"""Top-level acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or on
failure) and then asserts, so the suite doubles as a scoreboard.
"""

import math
import warnings

import numpy as np
from scipy.integrate import quad, solve_ivp

from zakwave.elliptic import Modulus, complete_E, complete_K, jacobi_sn_cn_dn
from zakwave.dynamics import GridSpec, band_limited_perturbation, orbital_distance, wave_state
from zakwave.errors import VerdictError
from zakwave.spectral import (
    constrained_rayleigh_min,
    hill_L3,
    hill_L4,
    instability_intervals,
    lame_eigen_analytic,
    lambda_from_rho,
    lame_operator,
    periodic_spectrum,
)
from zakwave.wavefamily import (
    build_wave,
    family_sweep,
    mass_derivative,
    mass_integral,
    nu_threshold,
    ode_residuals,
    period_of,
    solitary_wave,
)

from conftest import kernel_residual, relative_drift

LS = (2.0 * math.pi, 10.0, 20.0)
CS = (0.0, 0.5, -0.5)


def _check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _family_grid(n_nu=20):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for L in LS:
            thr = nu_threshold(L)
            for c in CS:
                for nu in np.geomspace(1.01 * thr, 100.0 * thr, n_nu):
                    yield build_wave(L, c, float(nu))


def test_criterion_01_family_construction():
    worst_period, worst_res = 0.0, 0.0
    for w in _family_grid():
        p = w.params
        T = period_of(p.eta2, p.nu, p.alpha)
        worst_period = max(worst_period, abs(T - p.L) / p.L)
        worst_res = max(worst_res, max(ode_residuals(w, 1024)))
    ok = worst_period <= 1e-12 and worst_res <= 1e-14
    _check("criterion 01 family construction",
           ok, f"period residual {worst_period:.2e}, ode residual {worst_res:.2e}")


def test_criterion_02_mass_closed_form():
    worst, min_deriv = 0.0, math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for w in _family_grid(n_nu=8):
            p = w.params
            xs = np.arange(8192) * p.L / 8192
            quad_mass = float(np.sum(w.phi(xs) ** 2) * p.L / 8192)
            closed = mass_integral(w)
            worst = max(worst, abs(closed - quad_mass) / closed)
            min_deriv = min(min_deriv, mass_derivative(p.L, p.c, p.nu))
    ok = worst <= 1e-10 and min_deriv > 0.0
    _check("criterion 02 mass closed form",
           ok, f"quadrature mismatch {worst:.2e}, min d(mass)/d(nu) {min_deriv:.2e}")


def test_criterion_03_monotone_chains():
    ok = True
    detail = "eta2 strictly down, k and mass strictly up on all sweeps"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for L in LS:
            thr = nu_threshold(L)
            grid = np.geomspace(1.01 * thr, 100.0 * thr, 20)
            for c in CS:
                try:
                    table = family_sweep(L, c, grid)
                except VerdictError as exc:
                    ok, detail = False, str(exc)
                    break
                eta2 = table.column("eta2")
                kk = table.column("k")
                mass = table.column("mass")
                if not (np.all(np.diff(eta2) < 0.0) and np.all(np.diff(kk) > 0.0)
                        and np.all(np.diff(mass) > 0.0)):
                    ok, detail = False, f"chain violated at L={L}, c={c}"
    _check("criterion 03 monotone chains", ok, detail)


def _representative_waves():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [build_wave(L, c, 10.0 * nu_threshold(L)) for L in LS for c in CS]


def test_criterion_04_spectral_verdicts():
    # each kernel mode carries its kernel's parity and is its kernel to
    # within sin 1e-6 (see `kernel_residual`)
    ok, detail = True, "L3 and L4 structure on 9 waves at N=512"
    for w in _representative_waves():
        p = w.params
        nu = p.nu
        xs = np.arange(512) * p.L / 512

        op4 = hill_L4(w, 512)
        spec4 = periodic_spectrum(op4, 3)
        lam4 = spec4.eigenvalues
        r4 = kernel_residual(op4, w.phi(xs))
        ok4 = (abs(lam4[0]) <= 1e-6 * nu and lam4[1] - lam4[0] > 1e-3 * nu
               and spec4.even[0] and r4 <= 1e-6 * lam4[1])

        op3 = hill_L3(w, 512)
        spec3 = periodic_spectrum(op3, 3)
        lam3 = spec3.eigenvalues
        r3 = kernel_residual(op3, w.phi_prime(xs))
        ok3 = (lam3[0] < -1e-4 * nu and abs(lam3[1]) <= 1e-6 * nu
               and lam3[2] > 1e-4 * nu
               and lam3[1] - lam3[0] > 1e-3 * nu
               and lam3[2] - lam3[1] > 1e-3 * nu
               and not spec3.even[1] and r3 <= 1e-6 * min(-lam3[0], lam3[2]))
        if not (ok3 and ok4):
            ok = False
            detail = f"failed at L={p.L:.4g}, c={p.c}, nu={nu:.4g}"
            break
    _check("criterion 04 spectral verdicts", ok, detail)


def test_criterion_05_lame_structure(wave_std):
    ok, details = True, []
    for k in (0.3, 0.5, 0.8):
        m = Modulus.from_k(k)
        analytic = np.array(lame_eigen_analytic(m))
        direct = periodic_spectrum(lame_operator(m, 512), 3).eigenvalues
        err = np.max(np.abs(analytic - direct))
        intervals = instability_intervals(m)
        widths = [hi - lo for lo, hi in intervals[1:]]
        wide = sum(1 for w_ in widths if w_ > 1e-4)
        # one semi-infinite plus exactly two finite gaps
        if err > 1e-8 or wide != 2 or any(w_ > 1e-6 for w_ in widths[2:]):
            ok = False
            details.append(f"k={k}: eig err {err:.2e}, wide gaps {wide}")
    nu = wave_std.params.nu
    rho0, rho1, rho2 = lame_eigen_analytic(wave_std.modulus)
    lam3 = periodic_spectrum(hill_L3(wave_std, 512), 3).eigenvalues
    map_ok = (abs(lambda_from_rho(wave_std, rho1)) <= 1e-12
              and abs(lambda_from_rho(wave_std, rho0) - lam3[0]) <= 1e-5 * nu
              and abs(lambda_from_rho(wave_std, rho2) - lam3[2]) <= 1e-5 * nu)
    if not map_ok:
        ok = False
        details.append("rho -> lambda anchors off")
    _check("criterion 05 Lame structure", ok,
           "; ".join(details) or "eigenvalues, gap count, and rho->lambda map agree")


def test_criterion_06_constrained_forms(wave_std):
    w = wave_std
    nu = w.params.nu
    xs = np.arange(512) * w.params.L / 512
    phi = w.phi(xs)
    prod = phi * w.psi(xs)
    k = 2.0 * math.pi * np.fft.fftfreq(512, d=1.0 / 512) / w.params.L
    dprod = np.fft.ifft(1j * k * np.fft.fft(prod)).real
    v1 = constrained_rayleigh_min(hill_L3(w, 512), [phi])
    v2 = constrained_rayleigh_min(hill_L3(w, 512), [phi, dprod])
    v3 = constrained_rayleigh_min(hill_L4(w, 512), [prod])
    ok = abs(v1) <= 1e-5 * nu and v2 >= 1e-3 * nu and v3 >= 1e-3 * nu
    _check("criterion 06 constrained forms", ok,
           f"L3|{{phi}}={v1:.2e}, L3|{{phi,(phi psi)'}}={v2:.2e}, L4|{{phi psi}}={v3:.2e}")


def test_criterion_07_conservation_and_exactness(exact_run):
    rec = exact_run
    dE = relative_drift(rec.E)
    dQ1 = relative_drift(rec.Q1)
    dQ2 = relative_drift(rec.Q2)
    sup_rho = float(np.max(rec.rho_nu))
    q1_uv = rec.q1_uv_real + 1j * rec.q1_uv_imag
    d_uv = float(np.max(np.abs(q1_uv - q1_uv[0])) / abs(q1_uv[0]))
    ok = (max(dE, dQ1, dQ2) <= 1e-7 and sup_rho <= 1e-5
          and d_uv >= 10.0 * dQ1)
    _check("criterion 07 conservation and exactness", ok,
           f"drift E={dE:.2e} Q1={dQ1:.2e} Q2={dQ2:.2e}, "
           f"sup rho={sup_rho:.2e}, uV-form drift {d_uv:.2e}")


def test_criterion_08_orbital_stability(pert_run_small, pert_run_large):
    sup_small = float(np.max(pert_run_small.rho_nu))
    sup_large = float(np.max(pert_run_large.rho_nu))
    ratio = sup_large / sup_small
    db_small = pert_run_small.delta_B()
    db_large = pert_run_large.delta_B()
    db_spread = max(float(np.max(np.abs(db_small - db_small[0]))),
                    float(np.max(np.abs(db_large - db_large[0]))))
    ok = (np.isfinite(sup_small) and np.isfinite(sup_large)
          and ratio <= 20.0 and db_spread <= 1e-8)
    _check("criterion 08 orbital stability", ok,
           f"sup rho {sup_small:.2e} / {sup_large:.2e} (ratio {ratio:.2f}), "
           f"deltaB spread {db_spread:.2e}")


def test_criterion_09_solitary_limit(solitary_run_pert):
    sw = solitary_wave(-1.0, 0.5)
    L = 80.0 / math.sqrt(-4.0 * sw.params.omega - sw.params.c**2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dn = build_wave(L, sw.params.c, sw.params.nu)
    xs = np.linspace(-L / 2.0, L / 2.0, 4096)
    profile_gap = float(np.max(np.abs(dn.phi(xs) - sw.phi(xs))))

    rec = solitary_run_pert
    sup_rho = float(np.max(rec.rho_nu))
    wrapped = np.mod(rec.y_star - sw.params.c * rec.times + 0.5 * L, L) - 0.5 * L
    track_err = float(np.max(np.abs(wrapped)))
    ok = (profile_gap <= 1e-6 and np.isfinite(sup_rho)
          and track_err <= 1e-3 * L)
    _check("criterion 09 solitary limit", ok,
           f"dnoidal-sech gap {profile_gap:.2e}, sup rho {sup_rho:.2e}, "
           f"max |y*-ct| {track_err:.2e}")


def test_criterion_10_oracle_layer(wave_std, grid_std):
    details = []
    ok = True

    # complete integrals vs direct quadrature
    k = 0.7
    m = Modulus.from_k(k)
    qK, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    qE, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    eKE = max(abs(complete_K(m) - qK) / qK, abs(complete_E(m) - qE) / qE)
    if eKE > 1e-12:
        ok = False
        details.append(f"K/E vs quadrature {eKE:.2e}")

    # Jacobi functions vs the pendulum ODE
    u0, kj = 1.3, 0.8
    sol = solve_ivp(lambda _, y: [y[1] * y[2], -y[0] * y[2], -kj * kj * y[0] * y[1]],
                    (0.0, u0), [0.0, 1.0, 1.0], rtol=1e-12, atol=1e-13)
    vals = np.array(jacobi_sn_cn_dn(u0, Modulus.from_k(kj)))
    eJ = float(np.max(np.abs(vals - sol.y[:, -1])))
    if eJ > 5e-11:
        ok = False
        details.append(f"sn/cn/dn vs ODE {eJ:.2e}")

    # Lame eigenvalues vs direct diagonalization
    m5 = Modulus.from_k(0.5)
    eL = float(np.max(np.abs(
        np.array(lame_eigen_analytic(m5))
        - periodic_spectrum(lame_operator(m5, 512), 3).eigenvalues)))
    if eL > 1e-8:
        ok = False
        details.append(f"Lame analytic vs diag {eL:.2e}")

    # modulated distance vs the brute-force (y, theta) grid oracle
    from test_dynamics import brute_force_rho
    rng = np.random.default_rng(3)
    s = wave_state(wave_std, grid_std)
    u = s.u + 1e-2 * band_limited_perturbation(rng, grid_std, 8, complex_field=True)
    rho, _, _ = orbital_distance(u, wave_std, grid_std)
    polished, grid_only = brute_force_rho(u, wave_std, wave_std.params.nu, grid_std)
    if not (abs(rho - polished) <= 1e-6 and rho <= grid_only + 1e-12):
        ok = False
        details.append(f"rho {rho:.8e} vs oracle {polished:.8e}")

    _check("criterion 10 oracle layer", ok,
           "; ".join(details) or "quadrature, ODE, diagonalization, grid oracles agree")

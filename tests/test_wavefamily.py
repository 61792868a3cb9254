"""Dnoidal family construction against scan/quadrature oracles."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipk

from zakwave import elliptic, wavefamily
from zakwave.elliptic import Modulus, complete_E, complete_K
from zakwave.errors import DomainError, NoSolutionError, VerdictError
from zakwave.wavefamily import (
    DnoidalWave,
    build_wave,
    family_sweep,
    mass_derivative,
    mass_integral,
    nu_threshold,
    ode_residuals,
    period_of,
    solitary_wave,
    solve_eta2,
)


def _quiet_build(L, c, nu):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_wave(L, c, nu)


# --------------------------------------------------------------------------
# period function

def test_period_limit_at_right_endpoint():
    nu, alpha = 1.3, 0.75
    top = math.sqrt(nu * alpha)
    T = period_of(0.999999 * top, nu, alpha)
    assert abs(T - math.pi * math.sqrt(2.0 / nu)) < 1e-4


def test_period_monotone_decreasing():
    nu, alpha = 2.0, 1.0
    top = math.sqrt(nu * alpha)
    etas = np.linspace(0.05, 0.999, 50) * top
    Ts = [period_of(e, nu, alpha) for e in etas]
    assert np.all(np.diff(Ts) < 0.0)


def test_period_closed_form_example():
    # nu=2, alpha=1, eta2=1: k^2 = 2/3 and T = 2 sqrt(2)/sqrt(3) K(sqrt(2/3))
    T = period_of(1.0, 2.0, 1.0)
    expected = 2.0 * math.sqrt(2.0) / math.sqrt(3.0) * complete_K(
        Modulus.from_k(math.sqrt(2.0 / 3.0)))
    assert T == pytest.approx(expected, rel=1e-14)


def test_period_domain_errors():
    with pytest.raises(DomainError):
        period_of(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        period_of(2.0, 1.0, 1.0)
    for nu in (0.0, -1.0):
        with pytest.raises(DomainError, match="period_of requires nu > 0"):
            period_of(0.5, nu, 1.0)


# --------------------------------------------------------------------------
# root solve

def test_solve_eta2_residual():
    for (L, c, nu) in [(2 * math.pi, 0.0, 1.0), (10.0, 0.5, 0.9), (20.0, -0.5, 0.3)]:
        eta2 = solve_eta2(L, c, nu)
        alpha = 1.0 - c * c
        assert abs(period_of(eta2, nu, alpha) - L) <= 1e-12 * L


def test_solve_eta2_against_dense_grid_scan():
    # vectorized period over a 10^6-point grid (scipy K as the oracle kernel)
    L, c, nu = 2.0 * math.pi, 0.0, 1.0
    alpha = 1.0 - c * c
    top = math.sqrt(nu * alpha)
    etas = np.linspace(1e-6 * top, (1.0 - 1e-9) * top, 1_000_000)
    denom = 2.0 * nu * alpha - etas**2
    msq = (2.0 * nu * alpha - 2.0 * etas**2) / denom  # k^2 in scipy's convention
    T = 2.0 * math.sqrt(2.0 * alpha) / np.sqrt(denom) * ellipk(msq)
    i = int(np.argmin(np.abs(T - L)))
    eta_grid = etas[i]
    eta = solve_eta2(L, c, nu)
    assert abs(eta - eta_grid) <= etas[1] - etas[0]


def test_solve_eta2_near_threshold_endpoint():
    L = 2.0 * math.pi
    nu = nu_threshold(L) * (1.0 + 1e-6)
    eta2 = solve_eta2(L, 0.0, nu)
    ratio = eta2 / math.sqrt(nu)
    assert 0.99 < ratio < 1.0


def test_solve_eta2_below_threshold_raises():
    L = 2.0 * math.pi
    with pytest.raises(NoSolutionError):
        solve_eta2(L, 0.0, nu_threshold(L))


def test_solve_eta2_reaches_long_periods():
    # eta2 is about 1e-65 at L sqrt(nu) = 270 and 1e-156 at 720: hundreds of
    # bracket halvings below sqrt(nu alpha)
    for L, c, nu in [(300.0, 0.0, 1.0), (8.0 * math.pi, 0.5, 150.0), (720.0, 0.0, 1.0)]:
        w = _quiet_build(L, c, nu)
        p = w.params
        assert p.eta2 < 1e-60
        assert abs(period_of(p.eta2, nu, p.alpha) - L) <= 1e-12 * L
        assert max(ode_residuals(w)) <= 1e-14


@pytest.mark.parametrize("L", [730.0, 748.0, 1000.0])
def test_solve_eta2_names_the_long_period_limit(L):
    # past L sqrt(nu) = 720 a subnormal k'^2 cannot resolve the period to
    # 1e-12 L, and past 748 it underflows to 0
    with pytest.raises(NoSolutionError, match=f"period L={L} is too long for double precision"):
        solve_eta2(L, 0.0, 1.0)


def test_solve_eta2_rejects_supersonic_speed():
    with pytest.raises(DomainError):
        solve_eta2(2.0 * math.pi, 1.0, 1.0)


def _acceptance_grid():
    for L in (2.0 * math.pi, 10.0, 20.0):
        thr = nu_threshold(L)
        for c in (0.0, 0.5, -0.5):
            for nu in np.geomspace(1.01 * thr, 100.0 * thr, 20):
                yield L, c, float(nu)


def test_solve_eta2_runs_one_agm_per_iterate(monkeypatch):
    # each Newton iterate builds one modulus from k'^2 and runs its AGM
    # once: K, E and the slope of an iterate read the same modulus
    built, agm = [], []
    from_kprime_sq, agm_sequence = Modulus.from_kprime_sq.__func__, elliptic._agm_sequence
    monkeypatch.setattr(Modulus, "from_kprime_sq", classmethod(
        lambda cls, kp2: built.append(from_kprime_sq(cls, kp2)) or built[-1]))
    monkeypatch.setattr(elliptic, "_agm_sequence", lambda m: agm.append(m) or agm_sequence(m))
    near = nu_threshold(2.0 * math.pi) * (1.0 + 1e-14)
    cases = [*_acceptance_grid(), (2.0 * math.pi, 0.0, near), (720.0, 0.0, 1.0)]
    for L, c, nu in cases:
        built.clear()
        agm.clear()
        solve_eta2(L, c, nu)
        assert 1 <= len(built) <= 25
        assert [id(m) for m in agm] == [id(m) for m in built]


@pytest.mark.parametrize("c", [0.0, 0.5])
@pytest.mark.parametrize("L", [2.0 * math.pi, 8.0 * math.pi, 25.0, 100.0, 300.0])
def test_solve_eta2_over_the_domain(L, c):
    # from just above the threshold up to L sqrt(nu) = 700
    alpha = 1.0 - c * c
    prev = math.inf
    for nu in np.geomspace(1.0001 * nu_threshold(L), (700.0 / L) ** 2, 40):
        eta2 = solve_eta2(L, c, float(nu))
        assert abs(period_of(eta2, float(nu), alpha) - L) <= 1e-12 * L
        assert eta2 < prev
        prev = eta2


# --------------------------------------------------------------------------
# wave construction

@pytest.mark.parametrize("L,c,nu", [
    (2 * math.pi, 0.0, 1.0),
    (10.0, 0.5, 0.9),
    (20.0, -0.5, 0.3),
    (2 * math.pi, 0.0, 30.0),
])
def test_wave_params_invariants(L, c, nu):
    w = _quiet_build(L, c, nu)
    p = w.params
    assert p.alpha > 0.0 and 4.0 * p.omega + p.c**2 < 0.0
    assert p.nu > nu_threshold(p.L)
    assert abs(p.eta1**2 + p.eta2**2 - 2.0 * p.nu * p.alpha) <= 1e-12 * p.nu * p.alpha
    root = math.sqrt(p.nu * p.alpha)
    assert 0.0 < p.eta2 < root < p.eta1 < math.sqrt(2.0) * root
    ksq = (2 * p.nu * p.alpha - 2 * p.eta2**2) / (2 * p.nu * p.alpha - p.eta2**2)
    assert abs(p.k**2 - ksq) <= 1e-12
    assert abs(p.Aphi + (p.eta1 * p.eta2) ** 2 / (4.0 * p.alpha)) <= 1e-12
    ek = complete_E(w.modulus) / complete_K(w.modulus)
    assert abs(p.d0 + p.c * p.eta1**2 / p.alpha * ek) <= 1e-12


def test_build_wave_c_zero_has_no_flux():
    w = build_wave(2.0 * math.pi, 0.0, 1.0)
    assert w.params.omega == pytest.approx(-1.0)
    assert w.params.d0 == 0.0
    xs = np.linspace(0.0, w.params.L, 64)
    assert np.max(np.abs(w.varphi(xs))) == 0.0


def test_build_wave_periodicity_warning():
    with pytest.warns(UserWarning, match="not an integer"):
        build_wave(10.0, 0.5, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_wave(8.0 * math.pi, 0.5, 0.2)  # cL/(4 pi) = 1, no warning


def test_spiky_limit_approaches_sech_amplitude():
    L, c, nu = 2.0 * math.pi, 0.0, 60.0
    w = build_wave(L, c, nu)
    # k -> 1: eta1 -> sqrt(2 nu alpha) and the crest approaches it
    assert w.params.k > 0.999
    assert float(w.phi(0.0)) == pytest.approx(math.sqrt(2.0 * nu), rel=1e-3)


# --------------------------------------------------------------------------
# profiles

def test_eval_profiles_pointwise_relations(wave_std):
    p = wave_std.params
    xs = np.linspace(0.0, p.L, 1024, endpoint=False)
    phi, psi = wave_std.phi(xs), wave_std.psi(xs)
    assert np.all(phi > 0.0) and np.all(psi < 0.0)
    assert np.all(phi >= p.eta2 - 1e-12) and np.all(phi <= p.eta1 + 1e-12)
    assert np.max(np.abs(psi + phi**2 / p.alpha)) <= 1e-12
    assert phi[0] == pytest.approx(p.eta1, rel=1e-14)


def test_varphi_zero_mean(wave_std):
    p = wave_std.params
    xs = np.linspace(0.0, p.L, 4097)
    mean = np.trapezoid(wave_std.varphi(xs), xs) / p.L
    assert abs(mean) <= 1e-10


def test_dnoidal_wave_requires_ek_ratio(wave_std):
    # varphi's zero mean rests on E/K; a silent default gave a biased profile
    with pytest.raises(TypeError, match="EK_ratio"):
        DnoidalWave(params=wave_std.params, modulus=wave_std.modulus)


def test_phi_prime_matches_finite_difference(wave_std):
    xs = np.linspace(0.3, 5.0, 33)
    h = 1e-6
    fd = (wave_std.phi(xs + h) - wave_std.phi(xs - h)) / (2.0 * h)
    assert np.max(np.abs(wave_std.phi_prime(xs) - fd)) < 1e-8


@pytest.mark.parametrize("L,c,nu_mult", [
    (2 * math.pi, 0.0, 2.0), (10.0, 0.5, 10.0), (20.0, -0.5, 80.0),
    (2 * math.pi, 0.5, 1.000001),
])
def test_ode_residuals_small(L, c, nu_mult):
    nu = nu_threshold(L) * nu_mult
    w = _quiet_build(L, c, nu)
    r1, r2 = ode_residuals(w, 1024)
    assert max(r1, r2) <= 1e-14


def test_ode_residuals_read_sn_cn_dn_once_at_every_scale(monkeypatch):
    # L sqrt(nu) = 10 at nu = 1e-300: phi'' - nu phi + phi^3/alpha has terms
    # of about 1e-450, which underflow, but the scaled identities do not
    calls = []
    jacobi = wavefamily.jacobi_sn_cn_dn
    monkeypatch.setattr(wavefamily, "jacobi_sn_cn_dn", lambda u, m: calls.append(m) or jacobi(u, m))
    w = _quiet_build(1e151, 0.0, 1e-300)
    residuals = ode_residuals(w, 512)
    assert calls == [w.modulus]
    assert len(residuals) == 2
    assert all(0.0 < r <= 1e-14 for r in residuals)


def test_ode_residuals_need_64_samples(wave_std):
    with pytest.raises(DomainError, match="ode_residuals needs N >= 64"):
        ode_residuals(wave_std, 63)


# --------------------------------------------------------------------------
# mass

def test_mass_integral_matches_quadrature(wave_std):
    p = wave_std.params
    xs = np.arange(8192) * p.L / 8192
    quad = float(np.sum(wave_std.phi(xs) ** 2) * p.L / 8192)
    assert mass_integral(wave_std) == pytest.approx(quad, rel=1e-10)


def test_mass_constant_profile_limit():
    L = 2.0 * math.pi
    nu = nu_threshold(L) * (1.0 + 1e-8)
    w = build_wave(L, 0.0, nu)
    # k ~ 0: phi ~ eta1 constant, so the mass tends to eta1^2 L; the
    # approach is first order in nu - threshold, hence the loose tolerance
    assert mass_integral(w) == pytest.approx(w.params.eta1**2 * L, rel=1e-3)


def test_mass_monotone_in_modulus():
    L = 10.0
    nus = nu_threshold(L) * np.array([2.0, 5.0, 20.0])
    waves = [build_wave(L, 0.0, nu) for nu in nus]
    ks = [w.params.k for w in waves]
    ms = [mass_integral(w) for w in waves]
    assert ks == sorted(ks) and ms == sorted(ms)


# the (L, c, nu) grid of the closed-form checks; c L / (4 pi) is not an
# integer for most of these (L, c), so the builds silence the carrier warning
_SLOPE_LS = (2.0 * math.pi, 10.0, 20.0, 8.0 * math.pi)
_SLOPE_CS = (0.0, 0.5, -0.5)


def _slope_grid():
    for L in _SLOPE_LS:
        thr = nu_threshold(L)
        for c in _SLOPE_CS:
            for nu in np.geomspace(1.01 * thr, 100.0 * thr, 20):
                yield L, c, float(nu)


def _quiet_slope(L, c, nu):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return mass_derivative(L, c, nu)


def _central_difference(L, c, nu, h):
    mp = mass_integral(_quiet_build(L, c, nu + h))
    mm = mass_integral(_quiet_build(L, c, nu - h))
    return (mp - mm) / (2.0 * h)


def test_mass_derivative_positive_and_matches_richardson():
    # Richardson extrapolation of the central difference at h and h/2 is
    # fourth order, an oracle independent of the closed form
    worst = 0.0
    for L, c, nu in _slope_grid():
        d = _quiet_slope(L, c, nu)
        assert d > 0.0, (L, c, nu)
        h = 1e-3 * nu
        rich = (4.0 * _central_difference(L, c, nu, h / 2.0)
                - _central_difference(L, c, nu, h)) / 3.0
        worst = max(worst, abs(d - rich) / rich)
    assert worst <= 5e-9


def test_mass_derivative_nu_of_k_identity():
    # the period constraint with eta1^2 + eta2^2 = 2 nu alpha and
    # eta2 = k' eta1 gives nu(k) = 4 K^2 (2 - k^2) / L^2, free of c
    for L, c, nu in _slope_grid():
        m = _quiet_build(L, c, nu).modulus
        k, K = m.k, complete_K(m)
        assert 4.0 * K * K * (2.0 - k * k) / L**2 == pytest.approx(nu, rel=1e-11)


def test_mass_derivative_solitary_limit():
    # M -> 4 alpha sqrt(nu), the sech mass, as the period grows
    for L in _SLOPE_LS:
        nu = 100.0 * nu_threshold(L)
        for c in _SLOPE_CS:
            expected = 2.0 * (1.0 - c * c) / math.sqrt(nu)
            assert _quiet_slope(L, c, nu) == pytest.approx(expected, rel=1e-12)


def test_mass_derivative_threshold_limit():
    # dM/dnu = alpha L / 3 (1 - (nu/threshold - 1)/6 + ...) near the threshold
    for L in _SLOPE_LS:
        nu = nu_threshold(L) * (1.0 + 1e-6)
        for c in _SLOPE_CS:
            expected = (1.0 - c * c) * L / 3.0
            assert _quiet_slope(L, c, nu) == pytest.approx(expected, rel=1e-6)


def test_mass_derivative_builds_one_wave(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_wave(*args)

    monkeypatch.setattr(wavefamily, "build_wave", counted)
    wavefamily.mass_derivative(2.0 * math.pi, 0.0, 1.0)
    assert calls == [(2.0 * math.pi, 0.0, 1.0)]


def test_mass_derivative_chain_rule_oracle():
    # d/dnu [8 alpha K E / L] = 8 alpha / L * d/dk(K E) * dk/dnu
    L, c, nu = 2.0 * math.pi, 0.0, 1.0
    h = 1e-5 * nu
    kp = _quiet_build(L, c, nu + h).params.k
    km = _quiet_build(L, c, nu - h).params.k
    dk_dnu = (kp - km) / (2.0 * h)
    k0 = build_wave(L, c, nu).params.k
    hk = 1e-6

    def KE(k):
        m = Modulus.from_k(k)
        return complete_K(m) * complete_E(m)

    dKE_dk = (KE(k0 + hk) - KE(k0 - hk)) / (2.0 * hk)
    oracle = 8.0 * (1.0 - c * c) / L * dKE_dk * dk_dnu
    assert mass_derivative(L, c, nu) == pytest.approx(oracle, rel=1e-4)


def test_mass_derivative_below_threshold_is_no_solution():
    L = 2.0 * math.pi
    for nu in (nu_threshold(L), 0.5 * nu_threshold(L)):
        with pytest.raises(NoSolutionError):
            mass_derivative(L, 0.0, nu)


def test_mass_derivative_finite_next_to_threshold():
    L = 2.0 * math.pi
    d = mass_derivative(L, 0.0, nu_threshold(L) * (1.0 + 1e-6))
    assert math.isfinite(d) and d > 0.0


# --------------------------------------------------------------------------
# solitary waves

def test_solitary_amplitude_and_relations():
    sw = solitary_wave(-1.0, 0.5)
    amp = math.sqrt((4.0 - 0.25) * 0.75 / 2.0)
    assert float(sw.phi(0.0)) == pytest.approx(amp, rel=1e-15)
    xs = np.linspace(-20.0, 20.0, 513)
    assert np.max(np.abs(sw.psi(xs) + sw.phi(xs) ** 2 / sw.params.alpha)) <= 1e-12
    assert np.max(np.abs(sw.varphi(xs) - sw.params.c * sw.psi(xs))) <= 1e-12


def test_solitary_profile_ode_residual():
    sw = solitary_wave(-1.0, 0.5)
    xs = np.linspace(-40.0, 40.0, 4096)
    b = sw.decay_rate
    amp = float(sw.phi(0.0))
    sech = 1.0 / np.cosh(b * xs)
    phi_dd = amp * b * b * (sech - 2.0 * sech**3)
    resid = phi_dd - sw.params.nu * sw.phi(xs) + sw.phi(xs) ** 3 / sw.params.alpha
    assert np.max(np.abs(resid)) <= 1e-10


def test_solitary_is_the_k1_dnoidal_wave():
    # the Jacobi profiles at k = 1 against the sech closed forms, on the
    # wrapped N = 1024 grid of the solitary run's box (box factor 80)
    omega, c = -1.0, 0.5
    sw = solitary_wave(omega, c)
    assert isinstance(sw, DnoidalWave) and sw.params.k == 1.0
    alpha = 1.0 - c * c
    amp = math.sqrt((-4.0 * omega - c * c) * alpha / 2.0)
    b = 0.5 * math.sqrt(-4.0 * omega - c * c)
    L = 80.0 / math.sqrt(-4.0 * omega - c * c)
    xs = np.arange(1024) * L / 1024 - 0.5 * L
    sech, tanh = 1.0 / np.cosh(b * xs), np.tanh(b * xs)
    phi = amp * sech
    psi = -phi**2 / alpha
    closed = {"phi": phi, "phi_prime": -amp * b * tanh * sech, "psi": psi,
              "varphi": c * psi}
    for name, ref in closed.items():
        err = np.max(np.abs(getattr(sw, name)(xs) - ref))
        assert err <= 1e-14 * np.max(np.abs(ref)), name


def test_solitary_domain_errors():
    with pytest.raises(DomainError):
        solitary_wave(0.0, 0.0)
    with pytest.raises(DomainError):
        solitary_wave(-1.0, 1.0)
    # the k = 1 wave has no finite period to sample
    with pytest.raises(DomainError, match="L=inf"):
        ode_residuals(solitary_wave(-1.0, 0.5))


def test_dnoidal_converges_to_solitary():
    omega, c = -1.0, 0.5
    sw = solitary_wave(omega, c)
    nu = -(omega + c * c / 4.0)
    sups = []
    for box in (20.0, 40.0, 80.0):
        L = box / math.sqrt(-4.0 * omega - c * c)
        w = _quiet_build(L, c, nu)
        xs = np.linspace(-L / 4.0, L / 4.0, 2048)
        sups.append(float(np.max(np.abs(w.phi(xs) - sw.phi(xs)))))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 1e-6


# --------------------------------------------------------------------------
# sweeps

def test_family_sweep_monotone_chains():
    L, c = 10.0, 0.0
    grid = np.geomspace(nu_threshold(L) * 1.01, nu_threshold(L) * 100.0, 20)
    table = family_sweep(L, c, grid)
    eta2 = table.column("eta2")
    k = table.column("k")
    mass = table.column("mass")
    assert np.all(np.diff(eta2) < 0.0)
    assert np.all(np.diff(k) > 0.0)
    assert np.all(np.diff(mass) > 0.0)
    for row in table.rows:
        alpha = 1.0 - c * c
        assert abs(period_of(row["eta2"], row["nu"], alpha) - L) <= 1e-12 * L


def test_family_sweep_reports_offending_nu():
    L = 10.0
    bad = nu_threshold(L) * 0.5
    with pytest.raises(NoSolutionError, match=str(bad)[:8]):
        family_sweep(L, 0.0, [nu_threshold(L) * 2.0, bad])


def test_family_sweep_names_a_broken_eta2_chain(monkeypatch):
    # the two waves come back in swapped order, so eta2 rises along the sweep
    L = 10.0
    lo, hi = nu_threshold(L) * 2.0, nu_threshold(L) * 3.0
    build, swap = wavefamily.build_wave, {lo: hi, hi: lo}
    monkeypatch.setattr(wavefamily, "build_wave", lambda L, c, nu: build(L, c, swap[nu]))
    with pytest.raises(VerdictError, match=re.escape(f"eta2 chain not strictly decreasing at nu={lo}")):
        family_sweep(L, 0.0, [lo, hi])


def test_family_table_serialization(tmp_path):
    L, c = 10.0, 0.0
    grid = np.geomspace(nu_threshold(L) * 2.0, nu_threshold(L) * 10.0, 4)
    table = family_sweep(L, c, grid)
    csv_path = tmp_path / "fam.csv"
    json_path = tmp_path / "fam.json"
    table.to_csv(csv_path)
    table.to_json(json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "nu,eta2,eta1,k,omega,d0,mass"
    import json

    rows = json.loads(json_path.read_text())
    assert len(rows) == 4 and rows[0]["nu"] == table.rows[0]["nu"]


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-0.9, 0.9), mult=st.floats(1.01, 200.0))
def test_random_waves_satisfy_energy_relation(c, mult):
    L = 2.0 * math.pi
    w = _quiet_build(L, c, nu_threshold(L) * mult)
    r1, r2 = ode_residuals(w, 256)
    assert max(r1, r2) <= 1e-14

"""Hill/Lame spectra against free-operator sanity checks and a direct
diagonalization oracle."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakwave import spectral
from zakwave.elliptic import Modulus, complete_K, jacobi_sn_cn_dn
from zakwave.errors import AccuracyError, DomainError
from zakwave.spectral import (
    assemble,
    constrained_rayleigh_min,
    hill_L3,
    hill_L4,
    instability_intervals,
    lame_eigen_analytic,
    lame_operator,
    lambda_from_rho,
    periodic_spectrum,
    semiperiodic_spectrum,
)
from zakwave.wavefamily import build_wave, nu_threshold, solitary_wave

from conftest import kernel_residual


ROOT = Path(__file__).resolve().parents[1]
SPECTRUM = {"periodic": periodic_spectrum, "semiperiodic": semiperiodic_spectrum}


def _grid(L, N):
    return np.arange(N) * L / N


@pytest.mark.parametrize("name", ["grid_matrix", "distance_at_shift"])
def test_no_program_path_calls(name):
    # the dense grid matrix and the distance at a given shift are the tests'
    # oracles: every solve runs in mode space, and a save measures its
    # distances in the shift search itself
    files = sorted((ROOT / "src" / "zakwave").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert ROOT / "src" / "zakwave" / "spectral.py" in files
    offenders = [f"{path.relative_to(ROOT)}:{i}"
                 for path in files
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(rf"\b{name}\s*\(", line) and f"def {name}(" not in line]
    assert offenders == []


# --------------------------------------------------------------------------
# assembly sanity

def test_free_operator_periodic_eigenvalues():
    L, shift, N = 5.0, 0.7, 64
    op = assemble(L, shift, np.zeros(N), N)
    lam = periodic_spectrum(op, 7).eigenvalues
    kap = lambda n: (2.0 * math.pi * n / L) ** 2
    expected = sorted([shift, shift + kap(1), shift + kap(1),
                       shift + kap(2), shift + kap(2), shift + kap(3),
                       shift + kap(3)])
    assert np.allclose(lam, expected, atol=1e-11)


def test_free_operator_semiperiodic_eigenvalues():
    L, shift, N = 5.0, -0.2, 64
    op = assemble(L, shift, np.zeros(N), N)
    lam = semiperiodic_spectrum(op, 4).eigenvalues
    kap = lambda n: (math.pi * (2 * n + 1) / L) ** 2
    expected = sorted([shift + kap(0)] * 2 + [shift + kap(1)] * 2)
    assert np.allclose(lam, expected, atol=1e-11)


def test_constant_potential_shifts_both_spectra():
    L, N, kappa = 3.0, 64, 1.37
    op0 = assemble(L, 0.0, np.zeros(N), N)
    opk = assemble(L, 0.0, np.full(N, kappa), N)
    for spec_fn in (periodic_spectrum, semiperiodic_spectrum):
        l0 = spec_fn(op0, 6).eigenvalues
        lk = spec_fn(opk, 6).eigenvalues
        assert np.allclose(lk, l0 + kappa, atol=1e-11)


def test_assemble_rejects_bad_inputs():
    with pytest.raises(DomainError):
        assemble(1.0, 0.0, np.zeros(31), 31)
    with pytest.raises(DomainError):
        assemble(1.0, 0.0, np.zeros(16), 16)
    with pytest.raises(DomainError):
        assemble(1.0, 0.0, np.zeros(64), 128)
    for L in (math.nan, math.inf, 0.0, -3.0):
        with pytest.raises(DomainError, match="L="):
            assemble(L, 0.0, np.zeros(64), 64)
    with pytest.raises(DomainError, match="L=inf"):
        hill_L3(solitary_wave(-1.0, 0.5))


def test_matrix_symmetric_and_constant_rayleigh(wave_std):
    op = hill_L3(wave_std, 128)
    mat = op.grid_matrix("periodic")
    assert np.max(np.abs(mat - mat.T)) <= 1e-13 * np.max(np.abs(mat))
    ones = np.ones(op.N) / math.sqrt(op.N)
    rq = float(ones @ mat @ ones)
    assert rq == pytest.approx(op.shift + 3.0 * np.mean(
        wave_std.psi(_grid(op.L, op.N))), abs=1e-10)


def test_spectrum_rejects_mode_counts_outside_the_window():
    # N = 32 solves on M = 7: the 15 periodic modes -7..7, the 14
    # semi-periodic modes -7..6
    op = assemble(5.0, 0.0, np.zeros(32), 32)
    for spec_fn, size in ((periodic_spectrum, 15), (semiperiodic_spectrum, 14)):
        for m in (0, -3, size + 1, 32):
            with pytest.raises(DomainError, match=f"at most {size}"):
                spec_fn(op, m)
        spec = spec_fn(op, size)
        assert spec.eigenvalues.shape == spec.even.shape == (size,)


def _kappa(op, boundary):
    """Bloch wavenumbers of all N mode integers n, in fft order."""
    n = np.fft.fftfreq(op.N, d=1.0 / op.N)
    if boundary == "periodic":
        return 2.0 * math.pi * n / op.L
    return math.pi * (2.0 * n + 1.0) / op.L


def _full_fourier_matrix(op, boundary):
    """Galerkin matrix on all N Bloch modes in fft order: entry (n, m) is
    Vhat[(n - m) mod N] with Vhat = fft(V) / N, plus kappa_n^2 + shift on
    the diagonal."""
    n = np.arange(op.N)
    vhat = np.fft.fft(op.potential) / op.N
    mat = vhat[(n[:, None] - n[None, :]) % op.N]
    mat[np.diag_indices(op.N)] += _kappa(op, boundary) ** 2 + op.shift
    return mat


def _basis_round_trip(op, boundary):
    """B F B^H with F the full mode-space matrix and B the explicit unitary
    map from Bloch modes exp(i kappa_n x) to grid samples."""
    basis = np.exp(1j * np.outer(_grid(op.L, op.N), _kappa(op, boundary))) / math.sqrt(op.N)
    return basis @ _full_fourier_matrix(op, boundary) @ basis.conj().T


@settings(max_examples=100, deadline=None)
@given(L=st.floats(1.0, 30.0), shift=st.floats(-2.0, 2.0),
       N=st.sampled_from([32, 64, 128, 256]),
       coeffs=st.lists(st.floats(-3.0, 3.0), min_size=13, max_size=13))
def test_grid_matrix_equals_basis_round_trip(L, shift, N, coeffs):
    # band-limited real potential: mean plus six cosine and six sine harmonics
    xs = _grid(L, N)
    V = coeffs[0] + sum(a * np.cos(2.0 * math.pi * j * xs / L)
                        + b * np.sin(2.0 * math.pi * j * xs / L)
                        for j, (a, b) in enumerate(zip(coeffs[1:7], coeffs[7:]), 1))
    op = assemble(L, shift, V, N)
    for boundary in ("periodic", "semiperiodic"):
        G = op.grid_matrix(boundary)
        assert np.array_equal(G, G.T)
        assert np.max(np.abs(G - _basis_round_trip(op, boundary))) <= (
            1e-12 * np.max(np.abs(G)))


@pytest.mark.parametrize("boundary", ["periodic", "semiperiodic"])
def test_lame_grid_spectrum_matches_mode_space_at_N1024(boundary, wave_std):
    # the full N-mode matrix and its truncation to M = N/8 modes both carry
    # the lowest 24 eigenvalues to the grid's rounding
    for m in (Modulus.from_k(0.5), wave_std.modulus):
        op = lame_operator(m, 1024)
        G = op.grid_matrix(boundary)
        lam_grid = np.linalg.eigvalsh(G)[:24]
        for F in (_full_fourier_matrix(op, boundary), op.fourier_matrix(boundary, 1024 // 8)):
            lam_mode = np.linalg.eigvalsh(F)[:24]
            assert np.max(np.abs(lam_grid - lam_mode)) <= 1e-13 * np.max(np.abs(G))


@pytest.mark.parametrize("boundary", ["periodic", "semiperiodic"])
def test_fourier_matrix_is_the_full_matrix_on_modes_minus_M_to_M(boundary, wave_std):
    op = hill_L3(wave_std, 256)
    M = 40
    F = op.fourier_matrix(boundary, M)
    assert F.shape == (2 * M + 1, 2 * M + 1)
    assert np.array_equal(F, F.conj().T)
    modes = np.arange(-M, M + 1) % op.N
    ref = _full_fourier_matrix(op, boundary)[np.ix_(modes, modes)]
    assert np.max(np.abs(F - ref)) <= 1e-13 * np.max(np.abs(F))


@pytest.mark.parametrize("N", [32, 512, 1024])
def test_fourier_matrix_is_bitwise_the_index_gather(N):
    # reference: the Toeplitz part gathered through an |n - m| index matrix
    rng = np.random.default_rng(N)
    V = rng.standard_normal(N)
    V = V + np.roll(V[::-1], 1)  # even: V[-j mod N] = V[j]
    op = assemble(7.0, 0.3, V, N)
    for M in (1, N // 8, (N - 1) // 4):
        for boundary in ("periodic", "semiperiodic"):
            n = np.arange(-M, M + 1)
            ref = (np.fft.rfft(V) / N).real[np.abs(n[:, None] - n[None, :])]
            ref[np.diag_indices(n.size)] += op._wavenumbers(boundary, n) ** 2 + op.shift
            F = op.fourier_matrix(boundary, M)
            assert np.array_equal(F, ref), (M, boundary)
            assert F.flags.writeable and F.flags.c_contiguous and F.flags.owndata
            F[...] = np.nan
            assert np.array_equal(op.fourier_matrix(boundary, M), ref), (M, boundary)


def test_fourier_matrix_rejects_an_unknown_boundary(wave_std):
    with pytest.raises(ValueError, match="unknown boundary 'antiperiodic'"):
        hill_L4(wave_std, 256).fourier_matrix("antiperiodic", 8)


def test_fourier_matrix_rejects_aliasing_mode_counts():
    op = assemble(5.0, 0.0, np.zeros(64), 64)
    for M in (0, -1, 16, 40):
        with pytest.raises(DomainError):
            op.fourier_matrix("periodic", M)
    assert op.fourier_matrix("periodic", 15).shape == (31, 31)


# --------------------------------------------------------------------------
# even potentials: one real matrix, cosine and sine blocks

# the README and standard sweep grids of the CLI
FAMILY_GRIDS = [(6.2832, 0.0, np.geomspace(0.6, 5.0, 20)),
                (8.0 * math.pi, 0.5, np.geomspace(0.05, 5.0, 20))]


def _family_waves():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [build_wave(L, c, float(nu)) for L, c, grid in FAMILY_GRIDS for nu in grid]


def _family_operators():
    for w in _family_waves():
        for N in (256, 512, 1024):
            yield hill_L3(w, N)
            yield hill_L4(w, N)
        yield lame_operator(w.modulus, 512)
        yield lame_operator(w.modulus, 1024)


def test_fourier_matrix_is_real_for_every_family_wave():
    # no complex eigensolve: every operator the CLI builds gives a float64
    # matrix, and passes the evenness check with a factor 100 to spare
    for op in _family_operators():
        vhat = np.fft.rfft(op.potential)
        assert np.max(np.abs(vhat.imag)) <= 1e-2 * spectral.EVEN_TOL * np.max(np.abs(vhat))
        for boundary in ("periodic", "semiperiodic"):
            F = op.fourier_matrix(boundary, (op.N - 1) // 4)
            assert F.dtype == np.float64
            assert np.array_equal(F, F.T)


def test_non_even_potential_fails_the_evenness_check(wave_std):
    L, N = wave_std.params.L, 512
    xs = _grid(L, N)
    odd = np.sin(2.0 * math.pi * xs / L)
    # the same wave sampled half a grid cell off x = 0
    shifted = 3.0 * wave_std.psi(xs + 0.5 * L / N)
    for V in (odd, 1.0 + odd, shifted):
        op = assemble(L, 0.2, V, N)
        with pytest.raises(DomainError, match="evenness check"):
            op.fourier_matrix("periodic", 64)
        for solve in (lambda: periodic_spectrum(op, 3), lambda: semiperiodic_spectrum(op, 3),
                      lambda: constrained_rayleigh_min(op, [np.ones(N)])):
            with pytest.raises(DomainError, match="evenness check"):
                solve()


def _full_window(op, boundary):
    M = (op.N - 1) // 4
    size = 2 * M + (boundary == "periodic")
    return op.fourier_matrix(boundary, M)[:size, :size]


@pytest.mark.parametrize("boundary", ["periodic", "semiperiodic"])
@pytest.mark.parametrize("operator", ["L3", "L4", "lame"])
def test_parity_blocks_match_the_full_window(wave_std, operator, boundary):
    builders = {"L3": lambda: hill_L3(wave_std, 512), "L4": lambda: hill_L4(wave_std, 512),
                "lame": lambda: lame_operator(Modulus.from_k(0.5), 512)}
    op = builders[operator]()
    F = _full_window(op, boundary)
    ref = np.linalg.eigvalsh(F)
    got = SPECTRUM[boundary](op, F.shape[0]).eigenvalues
    # the full solve's own rounding, about eps ||F||, is 1.2e-11 on the Lame
    # window (||F|| = 5.6e4) and 2.2e-13 on the L3/L4 ones (||F|| = 1.0e3)
    tol = np.maximum(1e-12 * np.maximum(1.0, np.abs(ref)),
                     5.0 * np.finfo(float).eps * np.linalg.norm(F, 2))
    assert np.all(np.abs(got - ref) <= tol)


@pytest.mark.parametrize("k", [0.3, 0.5, 0.8])
def test_lame_parity_blocks_hold_the_closed_form(k):
    # the cosine and sine blocks give rho0 < rho1 < rho2 closer than the
    # full window's rounding
    m = Modulus.from_k(k)
    lam = periodic_spectrum(lame_operator(m, 512), 3).eigenvalues
    assert np.max(np.abs(lam - lame_eigen_analytic(m))) <= 1e-13


def _even_weights(vecs, boundary):
    """||even part||^2 of each grid column v about x = 0, where v(-x_j) is
    v[-j mod N], negated for j > 0 on semi-periodic vectors, which change
    sign over one period."""
    N = vecs.shape[0]
    mirrored = vecs[(-np.arange(N)) % N]
    if boundary == "semiperiodic":
        mirrored[1:] *= -1.0
    return np.sum((0.5 * (vecs + mirrored)) ** 2, axis=0)


@pytest.mark.parametrize("builder", [hill_L3, hill_L4])
def test_periodic_eigenvectors_are_even_or_odd(wave_std, wave_c0, builder):
    for w in (wave_std, wave_c0):
        op = builder(w, 512)
        # periodic: 128 cosines n = 0..127 and 127 sines n = 1..127;
        # semi-periodic: 127 of each, n = 0..126 paired with -1 - n
        for boundary, n_even, n_odd in (("periodic", 128, 127), ("semiperiodic", 127, 127)):
            spec = SPECTRUM[boundary](op, n_even + n_odd)
            assert spec.even.dtype == bool
            assert np.sum(spec.even) == n_even and np.sum(~spec.even) == n_odd
            # the reference eigenvectors of each cluster of tied values (a
            # cosine and a sine whose values agree to rounding) span as many
            # even functions as the cluster has even labels.  The trace of the
            # even projector over a cluster does not depend on the basis
            # eigh picks; clusters lie >= 1.4e-5 ||G|| apart and tie within
            # 8e-16 ||G||, so a label is decided with margin (2e-15 measured)
            G = op.grid_matrix(boundary)
            lam, vecs = np.linalg.eigh(G)
            weights = _even_weights(vecs, boundary)
            cuts = np.flatnonzero(np.diff(lam) > 1e-6 * np.linalg.norm(G, 2)) + 1
            bounds = [0, *cuts[cuts < spec.even.size], spec.even.size]
            assert spec.even.size in cuts
            for a, b in zip(bounds, bounds[1:]):
                assert abs(weights[a:b].sum() - np.sum(spec.even[a:b])) <= 1e-10


def test_kernels_are_the_lowest_odd_L3_and_even_L4_modes(wave_std, wave_c0):
    # phi' spans L3's kernel and phi L4's (see `kernel_residual`)
    for w in (wave_std, wave_c0):
        xs = _grid(w.params.L, 512)
        for builder, kernel, even, index in ((hill_L3, w.phi_prime(xs), False, 1),
                                             (hill_L4, w.phi(xs), True, 0)):
            op = builder(w, 512)
            spec = periodic_spectrum(op, 6)
            assert int(np.flatnonzero(spec.even == even)[0]) == index
            others = np.delete(spec.eigenvalues, index)
            assert kernel_residual(op, kernel) <= 1e-6 * np.min(np.abs(others))


@pytest.mark.parametrize("builder", [hill_L3, hill_L4])
def test_constrained_minimum_takes_constraints_of_mixed_parity(wave_std, builder):
    # constraints with both a cosine and a sine part, against the dense grid
    N = 256
    w = wave_std
    xs = _grid(w.params.L, N)
    op = builder(w, N)
    G = op.grid_matrix("periodic")
    for cons in ([w.phi(xs - 0.3)], [w.phi(xs) + w.phi_prime(xs)],
                 [w.phi(xs), np.sin(2.0 * math.pi * xs / w.params.L)
                  + 0.5 * np.cos(4.0 * math.pi * xs / w.params.L)]):
        cons = np.array(cons)
        q, _ = np.linalg.qr(cons.T, mode="complete")
        z = q[:, len(cons):]
        ref = np.linalg.eigvalsh(z.T @ G @ z)[0]
        assert abs(constrained_rayleigh_min(op, cons) - ref) <= 1e-11


# --------------------------------------------------------------------------
# linearization spectra (Theorem-structure verdicts)

def _spectral_waves(wave_std, wave_c0):
    return [("std", wave_std), ("c0", wave_c0)]


def test_L4_kernel_structure(wave_std, wave_c0):
    for _, w in _spectral_waves(wave_std, wave_c0):
        nu = w.params.nu
        spec = periodic_spectrum(hill_L4(w, 512), 4)
        lam = spec.eigenvalues
        assert abs(lam[0]) <= 1e-6 * nu
        assert lam[1] - lam[0] > 1e-3 * nu
        # the ground state is even, as phi, and phi is its eigenvector
        assert spec.even[0]
        phi = w.phi(_grid(w.params.L, 512))
        assert kernel_residual(hill_L4(w, 512), phi) <= 1e-6 * lam[1]


def test_L3_single_negative_direction(wave_std, wave_c0):
    for _, w in _spectral_waves(wave_std, wave_c0):
        nu = w.params.nu
        spec = periodic_spectrum(hill_L3(w, 512), 4)
        lam = spec.eigenvalues
        assert lam[0] < -1e-4 * nu
        assert abs(lam[1]) <= 1e-6 * nu
        assert lam[2] > 1e-4 * nu
        assert lam[1] - lam[0] > 1e-3 * nu and lam[2] - lam[1] > 1e-3 * nu
        # lambda1 is odd, as phi', and phi' is its eigenvector
        assert not spec.even[1]
        dphi = w.phi_prime(_grid(w.params.L, 512))
        assert kernel_residual(hill_L3(w, 512), dphi) <= 1e-6 * min(-lam[0], lam[2])


def test_operators_annihilate_exact_kernels(wave_std):
    w = wave_std
    nu = w.params.nu
    N = 512
    xs = _grid(w.params.L, N)
    phi = w.phi(xs)
    dphi = w.phi_prime(xs)
    m4 = hill_L4(w, N).grid_matrix("periodic")
    m3 = hill_L3(w, N).grid_matrix("periodic")
    r4 = np.max(np.abs(m4 @ phi)) / np.max(np.abs(phi))
    r3 = np.max(np.abs(m3 @ dphi)) / np.max(np.abs(dphi))
    assert r4 <= 1e-6 * nu
    assert r3 <= 1e-6 * nu


@pytest.mark.parametrize("builder,boundary,N", [
    (hill_L3, "periodic", 256), (hill_L4, "periodic", 512),
    (hill_L3, "semiperiodic", 512), (hill_L4, "semiperiodic", 512),
], ids=["L3-periodic-256", "L4-periodic-512", "L3-semiperiodic-512", "L4-semiperiodic-512"])
def test_eigen_residuals(wave_std, builder, boundary, N):
    # the mode-space eigenvalues against the dense grid oracle, also near
    # the threshold, where the potential is almost constant and each cosine
    # ties with its sine to rounding
    L, c = wave_std.params.L, wave_std.params.c
    near = build_wave(L, c, 1.5 * nu_threshold(L))
    for w in (wave_std, near):
        op = builder(w, N)
        spec = SPECTRUM[boundary](op, 6)
        lam_grid = np.linalg.eigvalsh(op.grid_matrix(boundary))
        assert np.max(np.abs(spec.eigenvalues - lam_grid[:6])) <= 2e-12


def test_spectral_convergence_under_doubling(wave_std):
    for builder in (hill_L3, hill_L4):
        lam_c = periodic_spectrum(builder(wave_std, 256), 6).eigenvalues
        lam_f = periodic_spectrum(builder(wave_std, 512), 6).eigenvalues
        scale = np.maximum(np.abs(lam_f), 1.0)
        assert np.max(np.abs(lam_c - lam_f) / scale) <= 1e-9


# --------------------------------------------------------------------------
# Lame band structure

@pytest.mark.parametrize("k", [0.3, 0.5, 0.8])
def test_lame_analytic_matches_diagonalization(k):
    m = Modulus.from_k(k)
    rho0, rho1, rho2 = lame_eigen_analytic(m)
    assert rho1 == 4.0 + k * k
    lam = periodic_spectrum(lame_operator(m, 512), 3).eigenvalues
    # periodic eigenvalues of the two-gap operator: rho0 < rho1 < rho2
    assert lam[0] == pytest.approx(rho0, abs=1e-8)
    assert lam[1] == pytest.approx(rho1, abs=1e-8)
    assert lam[2] == pytest.approx(rho2, abs=1e-8)


def test_lame_analytic_small_k_limit():
    rho0, rho1, rho2 = lame_eigen_analytic(Modulus.from_k(1e-8))
    assert rho0 == pytest.approx(0.0, abs=1e-7)
    assert rho1 == pytest.approx(4.0, abs=1e-7)
    assert rho2 == pytest.approx(4.0, abs=1e-7)


def test_lame_analytic_where_k_rounds_to_one():
    # k' is about 6e-11 here, so k rounds to 1.0 and the k = 1 values hold
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = build_wave(8.0 * math.pi, 0.5, 3.9).modulus
    assert m.k == 1.0 and 0.0 < m.kprime < 1e-10
    rhos = lame_eigen_analytic(m)
    assert np.max(np.abs(np.array(rhos) - (2.0, 5.0, 6.0))) <= 1e-12
    with pytest.raises(DomainError, match="needs k in"):
        lame_eigen_analytic(Modulus.from_kprime_sq(0.0))


def test_lame_eigenfunctions_closed_form():
    # rho1 pairs with sn*cn; the even pair is 1 - beta sn^2
    k = 0.6
    m = Modulus.from_k(k)
    K = complete_K(m)
    xs = _grid(2.0 * K, 512)
    sn, cn, _ = jacobi_sn_cn_dn(xs, m)
    mat = lame_operator(m, 512).grid_matrix("periodic")
    f = sn * cn
    rho1 = 4.0 + k * k
    assert np.max(np.abs(mat @ f - rho1 * f)) <= 1e-7 * np.max(np.abs(f))


def test_interlacing_of_band_edges():
    m = Modulus.from_k(0.5)
    op = lame_operator(m, 512)
    lam = periodic_spectrum(op, 6).eigenvalues
    mu = semiperiodic_spectrum(op, 6).eigenvalues
    assert lam[0] < mu[0] <= mu[1] < lam[1] <= lam[2] < mu[2] <= mu[3]


def test_instability_intervals_two_gap_structure():
    intervals = instability_intervals(Modulus.from_k(0.5))
    assert intervals[0][0] == -math.inf
    widths = [hi - lo for lo, hi in intervals[1:]]
    assert widths[0] > 1e-4 and widths[1] > 1e-4
    assert all(w <= 1e-6 for w in widths[2:])


def test_instability_intervals_collapse_at_small_k():
    intervals = instability_intervals(Modulus.from_k(1e-5))
    widths = [hi - lo for lo, hi in intervals[1:]]
    assert all(w <= 1e-8 for w in widths)


def test_instability_intervals_resolution_guard():
    with pytest.raises(DomainError):
        instability_intervals(Modulus.from_k(0.5), N=128)


# the benchmark's band-edge tolerance against lame_eigen_analytic
LAME_EDGE_TOL = 1e-8
MODULI = [1e-5, 0.3, 0.5, 0.8, 1.0 - 1e-4, 1.0 - 1e-8, 1.0 - 1e-12]


@pytest.mark.parametrize("k", MODULI)
def test_instability_intervals_edges_match_analytic(k):
    m = Modulus.from_k(k)
    intervals = instability_intervals(m)
    # (-inf, lambda0), (mu0, mu1), (lambda1, lambda2): rho0, rho1, rho2
    edges = (intervals[0][1], intervals[2][0], intervals[2][1])
    for got, exact in zip(edges, lame_eigen_analytic(m)):
        assert abs(got - exact) <= LAME_EDGE_TOL


@pytest.mark.parametrize("k", [k for k in MODULI if k >= 0.3])
def test_instability_intervals_two_gaps_across_modulus(k):
    widths = [hi - lo for lo, hi in instability_intervals(Modulus.from_k(k))[1:]]
    assert sum(w > 1e-4 for w in widths) == 2
    assert widths[0] > 1e-4 and widths[1] > 1e-4
    assert all(w <= 1e-6 for w in widths[2:])


def test_instability_intervals_raises_when_M_doubling_disagrees(monkeypatch):
    # a harmonic at 130 > 2M = 128 is invisible to the M = 64 matrix but
    # not to the M = 128 one, so the two gap widths part
    lame = spectral.lame_operator

    def unresolved(m, N=512):
        op = lame(m, N)
        xs = _grid(op.L, N)
        return assemble(op.L, op.shift,
                        op.potential + 100.0 * np.cos(2.0 * math.pi * 130 * xs / op.L), N)

    monkeypatch.setattr(spectral, "lame_operator", unresolved)
    with pytest.raises(AccuracyError):
        instability_intervals(Modulus.from_k(0.5))


def test_instability_intervals_check_every_edge(monkeypatch):
    # a constant offset in the 2N potential moves every band edge and no gap
    # width, so only the edge check sees it, at lambda0 first
    lame = spectral.lame_operator

    def offset(m, N=512):
        op = lame(m, N)
        return op if N == 512 else assemble(op.L, op.shift, op.potential + 1e-3, N)

    monkeypatch.setattr(spectral, "lame_operator", offset)
    with pytest.raises(AccuracyError, match="band edge lambda0"):
        instability_intervals(Modulus.from_k(0.5))


def test_instability_intervals_check_every_gap_width(monkeypatch):
    # a harmonic of amplitude 1e-6 at n = 4 in the 2N potential opens the
    # closed gap (lambda3, lambda4) by about 1e-6 while each of its edges
    # moves by about 5e-7, inside the 1e-7 * |edge| = 1.5e-6 edge bound
    lame = spectral.lame_operator

    def opened(m, N=512):
        op = lame(m, N)
        if N == 512:
            return op
        xs = _grid(op.L, N)
        return assemble(op.L, op.shift, op.potential + 1e-6 * np.cos(2.0 * math.pi * 4 * xs / op.L), N)

    monkeypatch.setattr(spectral, "lame_operator", opened)
    with pytest.raises(AccuracyError, match="gap widths not converged"):
        instability_intervals(Modulus.from_k(0.5))


# the moduli of the L = 8 pi, c = 0.5 waves whose Lame edges the CLI reports:
# nu = 0.2 and nu over [0.04, 0.12]
LAME_SET = MODULI + [build_wave(8.0 * math.pi, 0.5, nu).modulus.k
                     for nu in [*np.linspace(0.04, 0.12, 9), 0.2]]


@pytest.mark.parametrize("k", LAME_SET)
def test_instability_intervals_return_the_whole_matrix_edges_at_N(k):
    m = Modulus.from_k(k)
    op = lame_operator(m, 512)
    lam, mu = (np.linalg.eigvalsh(op.fourier_matrix(b, 64)) for b in ("periodic", "semiperiodic"))
    expected = [(-math.inf, lam[0])] + [
        (mu[j], mu[j + 1]) if j % 2 == 0 else (lam[j], lam[j + 1]) for j in range(9)]
    intervals = instability_intervals(m)
    assert intervals == expected
    # a closed gap pairs an even and an odd edge; the one solve keeps them apart
    assert all(lo < hi for lo, hi in intervals[1:])


@pytest.mark.parametrize("boundary", ["periodic", "semiperiodic"])
@pytest.mark.parametrize("k", LAME_SET)
def test_lame_check_blocks_match_the_whole_matrix_at_2N(k, boundary):
    # the check solves the M = 128 matrix as its parity blocks; the
    # semi-periodic split drops the unpaired mode n = M, far above the 24
    # lowest eigenvalues
    F = lame_operator(Modulus.from_k(k), 1024).fourier_matrix(boundary, 128)
    blocks = spectral._parity_blocks(F, boundary)
    assert sum(b.shape[0] for b in blocks) == F.shape[0] - (boundary == "semiperiodic")
    got = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))[:24]
    assert np.max(np.abs(got - np.linalg.eigvalsh(F)[:24])) <= 1e-10


def test_lambda_from_rho_anchors(wave_std):
    w = wave_std
    nu = w.params.nu
    k = w.modulus.k
    rho0, rho1, rho2 = lame_eigen_analytic(w.modulus)
    assert abs(lambda_from_rho(w, rho1)) <= 1e-12
    lam = periodic_spectrum(hill_L3(w, 512), 3).eigenvalues
    assert lambda_from_rho(w, rho0) == pytest.approx(lam[0], abs=1e-5 * nu)
    assert lambda_from_rho(w, rho2) == pytest.approx(lam[2], abs=1e-5 * nu)
    assert abs(rho1 - (4.0 + k * k)) <= 1e-14


# --------------------------------------------------------------------------
# constrained quadratic forms

def test_constrained_minimum_L3_kernel_direction(wave_std):
    w = wave_std
    nu = w.params.nu
    xs = _grid(w.params.L, 512)
    op = hill_L3(w, 512)
    val = constrained_rayleigh_min(op, [w.phi(xs)])
    assert abs(val) <= 1e-5 * nu


def test_constrained_minimum_L3_two_constraints(wave_std):
    w = wave_std
    nu = w.params.nu
    xs = _grid(w.params.L, 512)
    prod = w.phi(xs) * w.psi(xs)
    k = 2.0 * math.pi * np.fft.fftfreq(512, d=1.0 / 512) / w.params.L
    dprod = np.fft.ifft(1j * k * np.fft.fft(prod)).real
    val = constrained_rayleigh_min(hill_L3(w, 512), [w.phi(xs), dprod])
    assert val >= 1e-3 * nu


def test_constrained_minimum_L4(wave_std):
    w = wave_std
    nu = w.params.nu
    xs = _grid(w.params.L, 512)
    prod = w.phi(xs) * w.psi(xs)
    val = constrained_rayleigh_min(hill_L4(w, 512), [prod])
    assert val >= 1e-3 * nu
    lam0 = periodic_spectrum(hill_L4(w, 512), 1).eigenvalues[0]
    assert abs(lam0) <= 1e-6 * nu


def test_constrained_minimum_rejects_rank_deficiency(wave_std):
    xs = _grid(wave_std.params.L, 512)
    phi = wave_std.phi(xs)
    with pytest.raises(DomainError):
        constrained_rayleigh_min(hill_L3(wave_std, 512), [phi, 2.0 * phi])


def test_constrained_minimum_rejects_constraints_off_the_grid(wave_std):
    with pytest.raises(DomainError, match="constraint vectors must live on the operator grid"):
        constrained_rayleigh_min(hill_L3(wave_std, 512), [wave_std.phi(_grid(wave_std.params.L, 256))])

"""Hill/Lame spectra against free-operator sanity checks and a direct
diagonalization oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakwave.elliptic import Modulus, complete_K, jacobi_sn_cn_dn
from zakwave.errors import DomainError
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


def _grid(L, N):
    return np.arange(N) * L / N


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


def test_matrix_symmetric_and_constant_rayleigh(wave_std):
    op = hill_L3(wave_std, 128)
    mat = op.grid_matrix("periodic")
    assert np.max(np.abs(mat - mat.T)) <= 1e-13 * np.max(np.abs(mat))
    ones = np.ones(op.N) / math.sqrt(op.N)
    rq = float(ones @ mat @ ones)
    assert rq == pytest.approx(op.shift + 3.0 * np.mean(
        wave_std.psi(_grid(op.L, op.N))), abs=1e-10)


def test_spectrum_rejects_mode_counts_outside_one_to_N():
    op = assemble(5.0, 0.0, np.zeros(32), 32)
    for spec_fn in (periodic_spectrum, semiperiodic_spectrum):
        for m in (0, -3, 33):
            with pytest.raises(DomainError):
                spec_fn(op, m)
    assert periodic_spectrum(op, 32).eigenvectors.shape == (32, 32)


def _basis_round_trip(op, boundary):
    """B M B^H with M the mode-space matrix and B the explicit unitary map
    from Bloch modes exp(i kappa_n x) to grid samples."""
    n = np.fft.fftfreq(op.N, d=1.0 / op.N)
    if boundary == "periodic":
        kappa = 2.0 * math.pi * n / op.L
    else:
        kappa = math.pi * (2.0 * n + 1.0) / op.L
    basis = np.exp(1j * np.outer(_grid(op.L, op.N), kappa)) / math.sqrt(op.N)
    return basis @ op.fourier_matrix(boundary) @ basis.conj().T


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
    for m in (Modulus.from_k(0.5), wave_std.modulus):
        op = lame_operator(m, 1024)
        G = op.grid_matrix(boundary)
        lam_grid = np.linalg.eigvalsh(G)[:24]
        lam_mode = np.linalg.eigvalsh(op.fourier_matrix(boundary))[:24]
        assert np.max(np.abs(lam_grid - lam_mode)) <= 1e-13 * np.max(np.abs(G))


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
        phi = w.phi(_grid(w.params.L, 512))
        align = abs(np.dot(spec.eigenvectors[0], phi)) / np.linalg.norm(phi)
        assert align >= 0.9999


def test_L3_single_negative_direction(wave_std, wave_c0):
    for _, w in _spectral_waves(wave_std, wave_c0):
        nu = w.params.nu
        spec = periodic_spectrum(hill_L3(w, 512), 4)
        lam = spec.eigenvalues
        assert lam[0] < -1e-4 * nu
        assert abs(lam[1]) <= 1e-6 * nu
        assert lam[2] > 1e-4 * nu
        assert lam[1] - lam[0] > 1e-3 * nu and lam[2] - lam[1] > 1e-3 * nu
        dphi = w.phi_prime(_grid(w.params.L, 512))
        align = abs(np.dot(spec.eigenvectors[1], dphi)) / np.linalg.norm(dphi)
        assert align >= 0.9999


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


def test_eigen_residuals(wave_std):
    op = hill_L3(wave_std, 256)
    mat = op.grid_matrix("periodic")
    spec = periodic_spectrum(op, 6)
    norm = np.linalg.norm(mat, 2)
    for lam, vec in zip(spec.eigenvalues, spec.eigenvectors):
        assert np.linalg.norm(mat @ vec - lam * vec) <= 1e-8 * norm


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
    intervals = instability_intervals(Modulus.from_k(0.5), n_gaps=10)
    assert intervals[0][0] == -math.inf
    widths = [hi - lo for lo, hi in intervals[1:]]
    assert widths[0] > 1e-4 and widths[1] > 1e-4
    assert all(w <= 1e-6 for w in widths[2:])


def test_instability_intervals_collapse_at_small_k():
    intervals = instability_intervals(Modulus.from_k(1e-5), n_gaps=6)
    widths = [hi - lo for lo, hi in intervals[1:]]
    assert all(w <= 1e-8 for w in widths)


def test_instability_intervals_resolution_guard():
    with pytest.raises(DomainError):
        instability_intervals(Modulus.from_k(0.5), N=128)


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

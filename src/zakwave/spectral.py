"""Hill-operator spectra for the linearization around dnoidal waves.

The operators -d^2/dx^2 + shift + V(x) with L-periodic potential act on
the Bloch modes exp(i kappa_n x), kappa_n = (2 pi n + theta) / L, with
Floquet phase theta = 0 for periodic and theta = pi for semi-periodic
spectra.  Every eigenproblem is solved on `fourier_matrix`, the truncated
Floquet-Fourier-Hill matrix on the modes |n| <= M (Deconinck & Kutz,
J. Comput. Phys. 219, 2006): V is analytic, so its Fourier coefficients
decay geometrically and a few hundred modes give the low eigenvalues to
rounding level.  Every potential built here is even about x = 0, so the
matrix is real symmetric, and it commutes with the reflection that
pairs kappa with -kappa (Magnus & Winkler, Hill's Equation, 1966).
Each operator transforms its potential and checks its evenness once
(`HillOperator.cosine_coefficients`); every matrix is then copied from
strided windows of those coefficients, with no index matrix.

`HillOperator.parity_blocks` builds the cosine block and the sine block
of the matrix at any M straight from the coefficient windows, without the
whole matrix: each is real symmetric Toeplitz-plus-Hankel, on n = 0..M
and n = 1..M for periodic spectra, on the pairs n <-> -1 - n with
n = 0..M-1 for semi-periodic ones.  The L3/L4 spectra and constrained
minima split at M = (N - 1) // 4.  A spectrum solves each block for its
eigenvalues alone (`eigvalsh`) and labels every mode even or odd by its
block.  The Lame band edges are returned from the whole matrix at M = N/8,
unsplit, so a closed gap keeps lo < hi, and checked against the blocks at
M = N/4 on 2N samples; the potential is sampled once, on the 2N grid (see
`instability_intervals`).
`grid_matrix`, the dense N-point grid operator, is the reference these
solves are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elliptic import Modulus, complete_K, jacobi_sn_cn_dn
from .errors import AccuracyError, DomainError
from .output import write_csv, write_json
from .wavefamily import DnoidalWave

__all__ = [
    "HillOperator",
    "HillSpectrum",
    "assemble",
    "hill_L3",
    "hill_L4",
    "lame_operator",
    "periodic_spectrum",
    "semiperiodic_spectrum",
    "lame_eigen_analytic",
    "lambda_from_rho",
    "instability_intervals",
    "constrained_rayleigh_min",
]


# Largest relative odd part of a potential that `cosine_coefficients` accepts.
# A dnoidal potential's odd part is its period residual: dn repeats after
# 2K sqrt(2 alpha) / eta1, which matches L to the 1e-12 tolerance of
# `solve_eta2`, and a steep profile magnifies that.  L3/L4 potentials reach
# 6.1e-12 on the README and standard sweep grids (N = 256..1024), 1.0e-11
# on 400-point grids over the same nu ranges and 9.1e-12 on 400-point
# grids out to nu = 200; Lame potentials stay below 2e-16.
EVEN_TOL = 1e-8


def _toeplitz(r: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with first row r, as a fresh C-contiguous array."""
    # with c = (r[s-1], ..., r[1], r[0], ..., r[s-1]), row i is
    # r[|i - j|] = c[s-1 - i + j]: the windows of c, last first
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((r[:0:-1], r)), r.size)
    return windows[::-1].copy()


# Floquet phase theta of each boundary condition: a mode picks up e^{i theta}
# over one period L
_FLOQUET_PHASES = {"periodic": 0.0, "semiperiodic": math.pi}


def _floquet_phase(boundary: str) -> float:
    if boundary not in _FLOQUET_PHASES:
        raise ValueError(f"unknown boundary {boundary!r}")
    return _FLOQUET_PHASES[boundary]


@dataclass(frozen=True)
class HillOperator:
    """Discretized -d^2/dx^2 + shift + V(x) on a uniform N-point grid of [0, L).

    `potential` is read-only, so the cached `cosine_coefficients` stay its own.
    """

    L: float
    shift: float
    potential: np.ndarray
    N: int

    def _wavenumbers(self, theta: float, n: np.ndarray) -> np.ndarray:
        """Bloch wavenumbers kappa_n = (2 pi n + theta) / L of the mode
        integers n at the Floquet phase theta."""
        return (2.0 * math.pi * n + theta) / self.L

    @cached_property
    def cosine_coefficients(self) -> np.ndarray:
        """vhat = rfft(V).real / N, read-only, after the evenness check.

        The potential must be even about x = 0, V[-j mod N] = V[j]: its odd
        part, max |Im rfft(V)| / max |rfft(V)|, above EVEN_TOL raises
        DomainError, since dropping it would move the eigenvalues.
        """
        vhat = np.fft.rfft(self.potential) / self.N
        odd = np.max(np.abs(vhat.imag))
        if odd > EVEN_TOL * np.max(np.abs(vhat)):
            raise DomainError(
                f"evenness check failed: the potential's odd part max|Im vhat| = "
                f"{odd:.3g} exceeds {EVEN_TOL:g} x max|vhat|; the Hill solves need "
                f"V(-x) = V(x) about x = 0")
        r = vhat.real
        r.flags.writeable = False
        return r

    def _coefficients(self, M: int) -> np.ndarray:
        """vhat[0..2M], the coefficients a matrix on the modes |n| <= M reads.

        M < N/4, so every difference |n - m| <= 2M is below the Nyquist
        index and no coefficient aliases.
        """
        if not 1 <= M < self.N / 4:
            raise DomainError(f"M={M} modes need 1 <= M < N/4 = {self.N / 4}")
        return self.cosine_coefficients[:2 * M + 1]

    def _diagonal(self, theta: float, n: np.ndarray) -> np.ndarray:
        """kappa_n^2 + shift, the diagonal the potential's coefficients sit on."""
        return self._wavenumbers(theta, n) ** 2 + self.shift

    def fourier_matrix(self, boundary: str, M: int) -> np.ndarray:
        """Real symmetric Floquet-Fourier-Hill matrix on the modes n = -M..M.

        Entry (n, m) is vhat[|n - m|], with vhat the `cosine_coefficients`,
        and the diagonal adds kappa_n^2 + shift.  The result is a fresh
        C-contiguous array the caller may write.  1 <= M < N/4, or
        DomainError.
        """
        r = self._coefficients(M)
        mat = _toeplitz(r)
        n = np.arange(-M, M + 1)
        mat[np.diag_indices(n.size)] += self._diagonal(_floquet_phase(boundary), n)
        return mat

    def parity_blocks(self, boundary: str, M: int):
        """Cosine and sine blocks of `fourier_matrix(boundary, M)`, built
        from the coefficient windows without the whole matrix.

        Periodic: n = 0..M and n = 1..M, entries vhat[|a - b|] +/- vhat[a + b],
        with row and column 0 of the cosine block scaled by 1/sqrt(2).
        Semi-periodic: n = 0..M-1 paired with -1 - n, vhat[|a - b|] +/- vhat[a + b + 1];
        the mode n = M, whose partner -1 - M lies outside the window, is dropped.
        Each block is bitwise the sum or difference of the two slices of the
        whole matrix that hold its Toeplitz and Hankel parts.
        """
        r = self._coefficients(M)
        theta = _floquet_phase(boundary)
        periodic = theta == 0.0
        size = M + 1 if periodic else M
        toeplitz = _toeplitz(r[:size])
        toeplitz[np.diag_indices(size)] += self._diagonal(theta, np.arange(size))
        # row a of the Hankel part is vhat[a + b + offset], b = 0..size-1
        offset = 0 if periodic else 1
        hankel = np.lib.stride_tricks.sliding_window_view(r[offset:offset + 2 * size - 1], size)
        if not periodic:
            return toeplitz + hankel, toeplitz - hankel
        even = toeplitz + hankel
        # n = 0 is its own partner, so its Hankel entry carries the diagonal too
        even[0, 0] = 2.0 * toeplitz[0, 0]
        even[0] /= math.sqrt(2.0)
        even[:, 0] /= math.sqrt(2.0)
        return even, toeplitz[1:, 1:] - hankel[1:, 1:]

    def grid_matrix(self, boundary: str = "periodic") -> np.ndarray:
        """Real-symmetric grid matrix B F B^H, with F the Galerkin matrix on
        all N modes in fft order and B the unitary map from Bloch modes to
        grid samples; eigenvectors live on the grid.

        Entry (j, l) of B diag(kappa^2) B^H is t(|j - l|), with
        t(s) = Re(exp(i kappa_0 x_s) ifft(kappa^2)[s]), and B circulant(Vhat) B^H
        is diag(V).  The ifft keeps t accurate: a direct cosine sum has
        arguments up to about pi N.
        """
        kappa = self._wavenumbers(_floquet_phase(boundary),
                                  np.fft.fftfreq(self.N, d=1.0 / self.N))
        s = np.arange(self.N)
        t = (np.exp(1j * kappa[0] * s * self.L / self.N) * np.fft.ifft(kappa**2)).real
        mat = t[np.abs(s[:, None] - s[None, :])]
        mat[np.diag_indices(self.N)] += self.potential + self.shift
        return mat


@dataclass(frozen=True)
class HillSpectrum:
    """Lowest eigenvalues of a Hill operator, each labelled by its parity.

    `even[i]` is True when mode i is even about x = 0 (a cosine series) and
    False when it is odd (a sine series).
    """

    boundary: str
    eigenvalues: np.ndarray
    even: np.ndarray  # shape (m,), bool
    N: int

    def to_csv(self, path) -> None:
        write_csv(path, ["index", "eigenvalue"], enumerate(self.eigenvalues))

    def to_json(self, path) -> None:
        write_json(path, {
            "boundary": self.boundary,
            "N": self.N,
            "eigenvalues": [float(v) for v in self.eigenvalues],
        })


def _check_period(L: float) -> None:
    # hill_L3 and hill_L4 check before they sample the wave: the solitary
    # wave's L = inf would give NaN samples
    if not (math.isfinite(L) and L > 0.0):
        raise DomainError(f"period L={L} must be finite and positive")


def assemble(L: float, shift: float, potential_samples, N: int) -> HillOperator:
    """Hill operator on the samples V(j L / N), j = 0..N-1.

    The operator keeps a read-only copy of the samples.  Every spectrum of
    it is solved on its `cosine_coefficients`, which need V even about
    x = 0 (V[-j mod N] = V[j]) to a relative odd part of EVEN_TOL = 1e-8
    and raise DomainError naming the evenness check otherwise.
    """
    _check_period(L)
    samples = np.array(potential_samples, dtype=float)
    samples.flags.writeable = False
    if N % 2 != 0 or N < 32:
        raise DomainError(f"N={N} must be even and >= 32")
    if samples.shape != (N,):
        raise DomainError(f"potential sample count {samples.shape} != ({N},)")
    return HillOperator(L=float(L), shift=float(shift), potential=samples, N=N)


def _wave_operator(w: DnoidalWave, N: int, weight: float) -> HillOperator:
    """Operator with potential weight * psi and constant term nu."""
    p = w.params
    _check_period(p.L)
    xs = np.arange(N) * p.L / N
    return assemble(p.L, p.nu, weight * w.psi(xs), N)


def hill_L3(w: DnoidalWave, N: int = 512) -> HillOperator:
    """Operator with potential 3 psi and constant term nu."""
    return _wave_operator(w, N, 3.0)


def hill_L4(w: DnoidalWave, N: int = 512) -> HillOperator:
    """Operator with potential psi and constant term nu."""
    return _wave_operator(w, N, 1.0)


def lame_operator(m: Modulus, N: int = 512) -> HillOperator:
    """-d^2/dx^2 + 6 k^2 sn^2(x; k) on the 2K(k)-periodic cell."""
    K = complete_K(m)
    xs = np.arange(N) * 2.0 * K / N
    sn, _, _ = jacobi_sn_cn_dn(xs, m)
    return assemble(2.0 * K, 0.0, 6.0 * m.k**2 * sn**2, N)


def _blocks(op: HillOperator, boundary: str):
    """Cosine and sine blocks of op's matrix on the L3/L4 window M = (N - 1) // 4."""
    return op.parity_blocks(boundary, (op.N - 1) // 4)


def _block_eigenvalues(even: np.ndarray, odd: np.ndarray):
    """Eigenvalues of a cosine and a sine block in ascending order, and
    True where a value is the cosine block's."""
    lam_e = np.linalg.eigvalsh(even)
    lam = np.concatenate([lam_e, np.linalg.eigvalsh(odd)])
    order = np.argsort(lam, kind="stable")
    return lam[order], order < lam_e.size


def _spectrum(op: HillOperator, m: int, boundary: str) -> HillSpectrum:
    lam, even = _block_eigenvalues(*_blocks(op, boundary))
    if not 1 <= m <= lam.size:
        raise DomainError(f"requested {m} modes; the N={op.N} {boundary} "
                          f"mode window holds at most {lam.size}")
    return HillSpectrum(boundary=boundary, eigenvalues=lam[:m], even=even[:m], N=op.N)


def periodic_spectrum(op: HillOperator, m: int) -> HillSpectrum:
    """Lowest m eigenvalues and their parities under chi(0)=chi(L), chi'(0)=chi'(L)."""
    return _spectrum(op, m, "periodic")


def semiperiodic_spectrum(op: HillOperator, m: int) -> HillSpectrum:
    """Lowest m eigenvalues and their parities under chi(0)=-chi(L), chi'(0)=-chi'(L)."""
    return _spectrum(op, m, "semiperiodic")


def lame_eigen_analytic(m: Modulus):
    """First three periodic eigenvalues of the two-gap Lame operator.

    rho1 = 4 + k^2 belongs to the odd eigenfunction sn*cn; the even pair
    1 - beta sn^2 yields the quadratic with roots
    rho = 2(1 + k^2) -/+ 2 sqrt((1 + k^2)^2 - 3 k^2).
    """
    # k may round to 1.0 while k' > 0; the formulas stay finite there
    if not (m.k > 0.0 and m.kprime > 0.0):
        raise DomainError("lame_eigen_analytic needs k in (0, 1)")
    k2 = m.k**2
    disc = math.sqrt((1.0 + k2) ** 2 - 3.0 * k2)
    rho0 = 2.0 * (1.0 + k2) - 2.0 * disc
    rho2 = 2.0 * (1.0 + k2) + 2.0 * disc
    return rho0, 4.0 + k2, rho2


def lambda_from_rho(w: DnoidalWave, rho: float) -> float:
    """Affine map from the Lame spectral variable to the one of 3*psi operator.

    lambda = nu - 3 eta1^2/alpha + eta1^2/(2 alpha) * rho, obtained from the
    rescaling x -> sqrt(2 alpha) x / eta1; it sends rho = 4 + k^2 to 0
    identically.
    """
    p = w.params
    return p.nu - 3.0 * p.eta1**2 / p.alpha + p.eta1**2 / (2.0 * p.alpha) * rho


def instability_intervals(m: Modulus, N: int = 512):
    """The semi-infinite instability interval (-inf, lambda0) of the Lame
    operator and its 9 lowest finite gaps, via the band-edge interlacing
    lambda0 < mu0 <= mu1 < lambda1 <= lambda2 < mu2 <= mu3 < ...

    The finite gaps are (mu0, mu1), (lambda1, lambda2), (mu2, mu3), ...  The
    returned band edges are the lowest eigenvalues of the real symmetric
    Fourier-Hill matrix with M = N/8 modes on the N-sample potential,
    solved whole with `eigvalsh`: the potential 6 k^2 sn^2 is even, but a
    closed gap pairs an even with an odd edge, and the parity blocks can
    return those bitwise equal, where the one solve keeps lo < hi.  The
    check solves the M = N/4 problem on the 2N-sample potential as its
    cosine and sine blocks, each about half the size; only their values
    near the returned ones matter there, not their order within a closed
    gap.  The potential is sampled once, on the 2N grid: the N grid's
    points are its even-indexed ones, bitwise, so the N-sample operator
    takes every other sample.  Every finite edge and every gap width must
    agree between the two to 1e-7 relative (floor 1), or AccuracyError
    names the first that does not.
    """
    if N < 512:
        raise DomainError("instability_intervals needs N >= 512")
    n_gaps = 10
    # lambda0, then the lower and upper end of each finite gap
    picks = [("lambda", 0)] + [("mu" if j % 2 == 0 else "lambda", i)
                               for j in range(n_gaps - 1) for i in (j, j + 1)]
    boundaries = (("lambda", "periodic"), ("mu", "semiperiodic"))

    def band_edges(solve):
        ev = {name: solve(b) for name, b in boundaries}
        return np.array([ev[name][i] for name, i in picks])

    fine = lame_operator(m, 2 * N)
    coarse = assemble(fine.L, fine.shift, fine.potential[::2], N)
    edges = band_edges(lambda b: np.linalg.eigvalsh(coarse.fourier_matrix(b, N // 8)))
    check = band_edges(lambda b: _block_eigenvalues(*fine.parity_blocks(b, N // 4))[0])
    for (name, i), e, e2 in zip(picks, edges, check):
        if abs(e - e2) > 1e-7 * max(1.0, abs(e2)):
            raise AccuracyError(f"band edge {name}{i} not converged under M doubling: {e} vs {e2}")
    for w, w2 in zip(edges[2::2] - edges[1::2], check[2::2] - check[1::2]):
        if abs(w - w2) > 1e-7 * max(1.0, abs(w2)):
            raise AccuracyError(f"gap widths not converged under M doubling: {w} vs {w2}")
    return [(-math.inf, float(edges[0]))] + [
        (float(lo), float(hi)) for lo, hi in zip(edges[1::2], edges[2::2])]


def constrained_rayleigh_min(op: HillOperator, constraints) -> float:
    """Smallest eigenvalue of the operator restricted to the orthogonal
    complement of span(constraints) (discrete constrained infimum)."""
    cons = np.atleast_2d(np.asarray(constraints, dtype=float))
    if cons.shape[1] != op.N:
        raise DomainError("constraint vectors must live on the operator grid")
    even, odd = _blocks(op, "periodic")
    # each constraint's coordinates in the cosine and sine bases, up to a
    # common scale: Re chat_n (chat_0 / sqrt(2) for n = 0) and -Im chat_n
    chat = np.fft.fft(cons)[:, :even.shape[0]]
    cons = np.concatenate([chat.real, -chat[:, 1:].imag], axis=1)
    cons[:, 0] /= math.sqrt(2.0)
    q, r = np.linalg.qr(cons.T, mode="complete")
    if np.min(np.abs(np.diag(r))) < 1e-10 * np.max(np.abs(r)):
        raise DomainError("constraint set is (numerically) rank deficient")
    # orthonormal basis of the complement: columns of the full Q beyond the span
    z = q[:, cons.shape[0]:]
    ze, zo = z[:even.shape[0]], z[even.shape[0]:]
    reduced = ze.T @ even @ ze + zo.T @ odd @ zo
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])

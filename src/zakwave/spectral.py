"""Hill-operator spectra for the linearization around dnoidal waves.

The operators -d^2/dx^2 + shift + V(x) with L-periodic potential act on
the Bloch modes exp(i kappa_n x), kappa_n = (2 pi n + theta) / L, with
Floquet phase theta = 0 for periodic and theta = pi for semi-periodic
spectra.  Every eigenproblem is solved on `fourier_matrix`, the truncated
Floquet-Fourier-Hill matrix on the modes |n| <= M (Deconinck & Kutz,
J. Comput. Phys. 219, 2006): V is analytic, so its Fourier coefficients
decay geometrically and a few hundred modes give the low eigenvalues to
rounding level.  The Lame band edges take M = N/8, checked by doubling M.
The L3/L4 spectra and constrained minima take M = (N - 1) // 4 on the
window of modes that kappa -> -kappa maps onto itself; with R its
reversal, W = exp(i pi/4) (I - i R) / sqrt(2) makes K = W^H F W real
symmetric, and one inverse FFT of W y turns an eigenvector y of K into
real grid samples.  `grid_matrix`, the dense N-point grid operator, is
the reference these solves are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class HillOperator:
    """Discretized -d^2/dx^2 + shift + V(x) on a uniform N-point grid of [0, L)."""

    L: float
    shift: float
    potential: np.ndarray
    N: int

    def _wavenumbers(self, boundary: str, n: np.ndarray) -> np.ndarray:
        """Bloch wavenumbers kappa_n of the mode integers n."""
        if boundary not in ("periodic", "semiperiodic"):
            raise ValueError(f"unknown boundary {boundary!r}")
        theta = 0.0 if boundary == "periodic" else math.pi
        return (2.0 * math.pi * n + theta) / self.L

    def fourier_matrix(self, boundary: str, M: int) -> np.ndarray:
        """Hermitian Floquet-Fourier-Hill matrix on the modes n = -M..M.

        Entry (n, m) is vhat[n - m], with vhat = fft(V) / N, and the
        diagonal adds kappa_n^2 + shift.  M < N/4, so every difference
        |n - m| <= 2M is below the Nyquist index and no coefficient
        aliases.  V is real, so vhat[-j] = conj(vhat[j]): the entries are
        read from rfft and the matrix is exactly Hermitian.
        """
        if not 1 <= M < self.N / 4:
            raise DomainError(f"M={M} modes need 1 <= M < N/4 = {self.N / 4}")
        n = np.arange(-M, M + 1)
        vhat = np.fft.rfft(self.potential) / self.N
        diff = n[:, None] - n[None, :]
        mat = vhat[np.abs(diff)]
        np.conjugate(mat, out=mat, where=diff < 0)
        mat[np.diag_indices(n.size)] += self._wavenumbers(boundary, n) ** 2 + self.shift
        return mat

    def grid_matrix(self, boundary: str = "periodic") -> np.ndarray:
        """Real-symmetric grid matrix B F B^H, with F the Galerkin matrix on
        all N modes in fft order and B the unitary map from Bloch modes to
        grid samples; eigenvectors live on the grid.

        Entry (j, l) of B diag(kappa^2) B^H is t(|j - l|), with
        t(s) = Re(exp(i kappa_0 x_s) ifft(kappa^2)[s]), and B circulant(Vhat) B^H
        is diag(V).  The ifft keeps t accurate: a direct cosine sum has
        arguments up to about pi N.
        """
        kappa = self._wavenumbers(boundary, np.fft.fftfreq(self.N, d=1.0 / self.N))
        s = np.arange(self.N)
        t = (np.exp(1j * kappa[0] * s * self.L / self.N) * np.fft.ifft(kappa**2)).real
        mat = t[np.abs(s[:, None] - s[None, :])]
        mat[np.diag_indices(self.N)] += self.potential + self.shift
        return mat


@dataclass(frozen=True)
class HillSpectrum:
    """Lowest eigenpairs of a Hill operator; eigenvectors are grid samples."""

    boundary: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (m, N), orthonormal rows in R^N
    N: int

    def to_csv(self, path) -> None:
        write_csv(path, ["index", "eigenvalue"], enumerate(self.eigenvalues))

    def to_json(self, path) -> None:
        write_json(path, {
            "boundary": self.boundary,
            "N": self.N,
            "eigenvalues": [float(v) for v in self.eigenvalues],
        })


def assemble(L: float, shift: float, potential_samples, N: int) -> HillOperator:
    samples = np.asarray(potential_samples, dtype=float)
    if N % 2 != 0 or N < 32:
        raise DomainError(f"N={N} must be even and >= 32")
    if samples.shape != (N,):
        raise DomainError(f"potential sample count {samples.shape} != ({N},)")
    return HillOperator(L=float(L), shift=float(shift), potential=samples, N=N)


def hill_L3(w: DnoidalWave, N: int = 512) -> HillOperator:
    """Operator with potential 3 psi and constant term nu."""
    p = w.params
    xs = np.arange(N) * p.L / N
    return assemble(p.L, p.nu, 3.0 * w.psi(xs), N)


def hill_L4(w: DnoidalWave, N: int = 512) -> HillOperator:
    """Operator with potential psi and constant term nu."""
    p = w.params
    xs = np.arange(N) * p.L / N
    return assemble(p.L, p.nu, w.psi(xs), N)


def lame_operator(m: Modulus, N: int = 512) -> HillOperator:
    """-d^2/dx^2 + 6 k^2 sn^2(x; k) on the 2K(k)-periodic cell."""
    K = complete_K(m)
    xs = np.arange(N) * 2.0 * K / N
    sn, _, _ = jacobi_sn_cn_dn(xs, m)
    return assemble(2.0 * K, 0.0, 6.0 * m.k**2 * sn**2, N)


def _real_window(op: HillOperator, boundary: str):
    """Mode integers n of the window at M = (N - 1) // 4 and K = W^H F W on it:
    V is real, so R F R = conj(F) and K = Re(F) + (Im(F) R - R Im(F)) / 2."""
    M = (op.N - 1) // 4
    size = 2 * M + (boundary == "periodic")
    F = op.fourier_matrix(boundary, M)[:size, :size]
    return np.arange(-M, size - M), F.real + 0.5 * (F.imag[:, ::-1] - F.imag[::-1])


def _spectrum(op: HillOperator, m: int, boundary: str) -> HillSpectrum:
    n, K = _real_window(op, boundary)
    if not 1 <= m <= n.size:
        raise DomainError(f"requested {m} modes; the N={op.N} {boundary} "
                          f"mode window holds at most {n.size}")
    evals, evecs = np.linalg.eigh(K)
    # samples of sum_n (W y)_n exp(i kappa_n x) / sqrt(N), real as (W y)_Rn = conj((W y)_n)
    modes = np.zeros((m, op.N), dtype=complex)
    modes[:, n % op.N] = np.exp(0.25j * math.pi) * (evecs[:, :m].T - 1j * evecs[::-1, :m].T)
    phase = np.exp(1j * op._wavenumbers(boundary, 0) * op.L / op.N * np.arange(op.N))
    vecs = (phase * np.fft.ifft(modes)).real * math.sqrt(op.N / 2)
    # sign convention: the largest-magnitude entry of each eigenvector is positive
    peak = vecs[np.arange(m), np.argmax(np.abs(vecs), axis=1)]
    vecs = np.where((peak < 0.0)[:, None], -vecs, vecs)
    return HillSpectrum(boundary=boundary, eigenvalues=evals[:m], eigenvectors=vecs, N=op.N)


def periodic_spectrum(op: HillOperator, m: int) -> HillSpectrum:
    """Lowest m eigenpairs under chi(0)=chi(L), chi'(0)=chi'(L)."""
    return _spectrum(op, m, "periodic")


def semiperiodic_spectrum(op: HillOperator, m: int) -> HillSpectrum:
    """Lowest m eigenpairs under chi(0)=-chi(L), chi'(0)=-chi'(L)."""
    return _spectrum(op, m, "semiperiodic")


def lame_eigen_analytic(m: Modulus):
    """First three periodic eigenvalues of the two-gap Lame operator.

    rho1 = 4 + k^2 belongs to the odd eigenfunction sn*cn; the even pair
    1 - beta sn^2 yields the quadratic with roots
    rho = 2(1 + k^2) -/+ 2 sqrt((1 + k^2)^2 - 3 k^2).
    """
    if not 0.0 < m.k < 1.0:
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


def instability_intervals(m: Modulus, n_gaps: int = 10, N: int = 512):
    """Instability intervals of the Lame operator, via the band-edge
    interlacing lambda0 < mu0 <= mu1 < lambda1 <= lambda2 < mu2 <= mu3 < ...

    The first interval is the semi-infinite (-inf, lambda0); the finite
    gaps follow as (mu0, mu1), (lambda1, lambda2), (mu2, mu3), ...  The
    band edges are the lowest eigenvalues of the truncated Fourier-Hill
    matrix with M = N/8 modes on the N-sample potential; gap widths are
    validated by the M = N/8 -> N/4 refinement on the 2N-sample potential,
    and non-convergence raises AccuracyError.
    """
    if N < 512:
        raise DomainError("instability_intervals needs N >= 512")
    n_eigs = 2 * n_gaps + 4
    if n_eigs > N // 8:
        raise DomainError(f"{n_gaps} gaps need N >= {8 * n_eigs}, got N={N}")

    def gaps_at(res: int):
        op = lame_operator(m, res)
        lam, mu = (np.linalg.eigvalsh(op.fourier_matrix(boundary, res // 8))[:n_eigs]
                   for boundary in ("periodic", "semiperiodic"))
        out = [(-math.inf, float(lam[0]))]
        for j in range(n_gaps - 1):
            if j % 2 == 0:
                lo, hi = mu[j], mu[j + 1]
            else:
                lo, hi = lam[j], lam[j + 1]
            out.append((float(lo), float(hi)))
        return out

    coarse = gaps_at(N)
    fine = gaps_at(2 * N)
    for (a, b), (a2, b2) in zip(coarse[1:], fine[1:]):
        if abs((b - a) - (b2 - a2)) > 1e-7 * max(1.0, abs(b2 - a2)):
            raise AccuracyError(
                f"gap widths not converged under M doubling: {b - a} vs {b2 - a2}"
            )
    return fine


def constrained_rayleigh_min(op: HillOperator, constraints) -> float:
    """Smallest eigenvalue of the operator restricted to the orthogonal
    complement of span(constraints) (discrete constrained infimum)."""
    cons = np.atleast_2d(np.asarray(constraints, dtype=float))
    if cons.shape[1] != op.N:
        raise DomainError("constraint vectors must live on the operator grid")
    n, K = _real_window(op, "periodic")
    # W^H of each constraint's Parseval modes on the window, up to a common scale
    c = np.fft.fft(cons)[:, n % op.N]
    cons = (np.exp(-0.25j * math.pi) * (c + 1j * c[:, ::-1])).real
    q, r = np.linalg.qr(cons.T, mode="complete")
    if np.min(np.abs(np.diag(r))) < 1e-10 * np.max(np.abs(r)):
        raise DomainError("constraint set is (numerically) rank deficient")
    # orthonormal basis of the complement: columns of the full Q beyond the span
    z = q[:, cons.shape[0]:]
    reduced = z.T @ K @ z
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])

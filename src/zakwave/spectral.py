"""Hill-operator spectra for the linearization around dnoidal waves.

The operators -d^2/dx^2 + shift + V(x) with L-periodic potential are
discretized on the uniform N-point grid of [0, L) in the Bloch basis
exp(i kappa_n x), kappa_n = (2 pi n + theta) / L, with Floquet phase
theta = 0 for periodic and theta = pi for semi-periodic spectra.  On the
grid the kinetic term is a real symmetric Toeplitz matrix and V is
diagonal, so the matrix is assembled directly as T + diag(V + shift).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import Modulus, complete_K, jacobi_sn_cn_dn
from .errors import AccuracyError, DomainError
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

    def _wavenumbers(self, boundary: str) -> np.ndarray:
        """Bloch wavenumbers kappa_n in fft order of the mode integers n."""
        if boundary not in ("periodic", "semiperiodic"):
            raise ValueError(f"unknown boundary {boundary!r}")
        theta = 0.0 if boundary == "periodic" else math.pi
        n = np.fft.fftfreq(self.N, d=1.0 / self.N)
        return (2.0 * math.pi * n + theta) / self.L

    def fourier_matrix(self, boundary: str = "periodic") -> np.ndarray:
        """Hermitian Galerkin matrix in the trigonometric basis.

        Rows/columns follow fft ordering of the mode integers n; the
        potential enters through Vhat[(n - m) mod N].
        """
        kappa = self._wavenumbers(boundary)
        n = np.arange(self.N)
        vhat = np.fft.fft(self.potential) / self.N
        diff = (n[:, None] - n[None, :]) % self.N
        mat = vhat[diff]
        mat[np.diag_indices(self.N)] += kappa**2 + self.shift
        return mat

    def grid_matrix(self, boundary: str = "periodic") -> np.ndarray:
        """Real-symmetric grid matrix B M B^H, with M = fourier_matrix and B
        the unitary basis map; eigenvectors live on the grid.

        Entry (j, l) of B diag(kappa^2) B^H is t(|j - l|), with
        t(s) = Re(exp(i kappa_0 x_s) ifft(kappa^2)[s]), and B circulant(Vhat) B^H
        is diag(V).  The ifft keeps t accurate: a direct cosine sum has
        arguments up to about pi N.
        """
        kappa = self._wavenumbers(boundary)
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "eigenvalue"])
            for i, lam in enumerate(self.eigenvalues):
                writer.writerow([i, f"{lam:.17g}"])

    def to_json(self, path) -> None:
        payload = {
            "boundary": self.boundary,
            "N": self.N,
            "eigenvalues": [float(v) for v in self.eigenvalues],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


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


def _spectrum(op: HillOperator, m: int, boundary: str) -> HillSpectrum:
    if not 1 <= m <= op.N:
        raise DomainError(f"requested {m} modes from an N={op.N} discretization")
    evals, evecs = np.linalg.eigh(op.grid_matrix(boundary))
    # sign convention: the largest-magnitude entry of each eigenvector is positive
    vecs = evecs[:, :m].T
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
    gaps follow as (mu0, mu1), (lambda1, lambda2), (mu2, mu3), ...  Gap
    widths are validated by an N -> 2N refinement; non-convergence raises
    AccuracyError.
    """
    if N < 512:
        raise DomainError("instability_intervals needs N >= 512")

    def gaps_at(res: int):
        op = lame_operator(m, res)
        n_eigs = 2 * n_gaps + 4
        lam = periodic_spectrum(op, n_eigs).eigenvalues
        mu = semiperiodic_spectrum(op, n_eigs).eigenvalues
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
                f"gap widths not converged under N doubling: {b - a} vs {b2 - a2}"
            )
    return fine


def constrained_rayleigh_min(op: HillOperator, constraints) -> float:
    """Smallest eigenvalue of the operator restricted to the orthogonal
    complement of span(constraints) (discrete constrained infimum)."""
    cons = np.atleast_2d(np.asarray(constraints, dtype=float))
    if cons.shape[1] != op.N:
        raise DomainError("constraint vectors must live on the operator grid")
    q, r = np.linalg.qr(cons.T, mode="complete")
    if np.min(np.abs(np.diag(r))) < 1e-10 * np.max(np.abs(r)):
        raise DomainError("constraint set is (numerically) rank deficient")
    mat = op.grid_matrix("periodic")
    # orthonormal basis of the complement: columns of the full Q beyond the span
    z = q[:, cons.shape[0]:]
    reduced = z.T @ mat @ z
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])

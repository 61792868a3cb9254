"""Hill-operator spectra for the linearization around dnoidal waves.

The operators -d^2/dx^2 + shift + V(x) with L-periodic potential are
discretized by a Fourier-Galerkin truncation: the kinetic term is diagonal
in the trigonometric basis and multiplication by V becomes a circulant
convolution with the DFT coefficients of the sampled potential.  Periodic
spectra use the integer-harmonic basis exp(2 pi i n x / L), semi-periodic
spectra the half-shifted basis exp(i pi (2n+1) x / L).
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

    def _mode_integers(self) -> np.ndarray:
        return np.fft.fftfreq(self.N, d=1.0 / self.N).astype(int)

    def fourier_matrix(self, boundary: str = "periodic") -> np.ndarray:
        """Hermitian Galerkin matrix in the trigonometric basis.

        Rows/columns follow fft ordering of the mode integers n; the
        potential enters through Vhat[(n - m) mod N].
        """
        n = self._mode_integers()
        if boundary == "periodic":
            kappa = 2.0 * math.pi * n / self.L
        elif boundary == "semiperiodic":
            kappa = math.pi * (2 * n + 1) / self.L
        else:
            raise ValueError(f"unknown boundary {boundary!r}")
        vhat = np.fft.fft(self.potential) / self.N
        diff = (n[:, None] - n[None, :]) % self.N
        mat = vhat[diff]
        mat[np.diag_indices(self.N)] += kappa**2 + self.shift
        return mat

    def grid_matrix(self, boundary: str = "periodic") -> np.ndarray:
        """Real-symmetric collocation form B M B^H with B the (unitary) basis map.

        Shares the spectrum of fourier_matrix; eigenvectors live on the grid.
        """
        mat = self.fourier_matrix(boundary)
        basis = self._basis(boundary)
        grid = basis @ mat @ basis.conj().T
        asym = np.max(np.abs(grid.imag))
        if asym > 1e-10 * np.max(np.abs(grid.real)):
            raise AccuracyError(f"grid matrix not real to tolerance ({asym:.2e})")
        return 0.5 * (grid.real + grid.real.T)

    def _basis(self, boundary: str) -> np.ndarray:
        n = self._mode_integers()
        xs = np.arange(self.N) * self.L / self.N
        if boundary == "periodic":
            kappa = 2.0 * math.pi * n / self.L
        else:
            kappa = math.pi * (2 * n + 1) / self.L
        return np.exp(1j * np.outer(xs, kappa)) / math.sqrt(self.N)


@dataclass(frozen=True)
class HillSpectrum:
    """Lowest eigenpairs of a Hill operator; eigenvectors are grid samples."""

    boundary: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (m, N), orthonormal rows in C^N
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


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    i = np.argmax(np.abs(vec))
    return -vec if vec[i] < 0.0 else vec


def _spectrum(op: HillOperator, m: int, boundary: str) -> HillSpectrum:
    if m > op.N:
        raise DomainError(f"requested {m} modes from an N={op.N} discretization")
    mat = op.grid_matrix(boundary)
    evals, evecs = np.linalg.eigh(mat)
    vecs = np.array([_fix_sign(evecs[:, i]) for i in range(m)])
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
    q, r = np.linalg.qr(cons.T)
    if np.min(np.abs(np.diag(r))) < 1e-10 * np.max(np.abs(r)):
        raise DomainError("constraint set is (numerically) rank deficient")
    mat = op.grid_matrix("periodic")
    # orthonormal basis of the complement: columns of the full Q beyond the span
    full_q, _ = np.linalg.qr(q, mode="complete")
    z = full_q[:, cons.shape[0]:]
    reduced = z.T @ mat @ z
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])

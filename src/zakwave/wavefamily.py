"""Dnoidal and solitary traveling-wave families of the periodic Zakharov system.

A wave is parameterized by the period L, the speed c (|c| < 1) and the
frequency parameter nu = -(omega + c^2/4) > 2 pi^2 / L^2.  The envelope
profile is phi(xi) = eta1 dn(eta1 xi / sqrt(2 alpha); k) with
alpha = 1 - c^2, the density profile is psi = -phi^2 / alpha, and the
zero-mean flux profile varphi = c psi - d0.

Each wave is built from its scale-free modulus: along the family
2 K(k) sqrt(1 + k'^2) = L sqrt(nu), so `solve_eta2` solves for k' alone
and eta1^2 = 2 nu alpha / (1 + k'^2), eta2 = k' eta1 follow in closed
form; c enters only through alpha.

The solitary wave is the L -> infinity end of the same family: there
k -> 1, eta2 -> 0, dn = cn = sech and E/K -> 0, so `solitary_wave` builds
a `DnoidalWave` at k = 1 and every profile goes through the one set of
Jacobi formulas.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .elliptic import Modulus, complete_E, complete_K, dK_dk, jacobi_sn_cn_dn
from .errors import DomainError, NoSolutionError, VerdictError
from .output import write_csv, write_json

__all__ = [
    "WaveParams",
    "DnoidalWave",
    "SolitaryWave",
    "FamilyTable",
    "period_of",
    "solve_eta2",
    "build_wave",
    "ode_residuals",
    "mass_integral",
    "mass_derivative",
    "nu_threshold",
    "solitary_wave",
    "family_sweep",
]


def nu_threshold(L: float) -> float:
    """Least admissible nu for period L (the period infimum is pi sqrt(2/nu)).

    An L whose threshold is no finite positive double, because L**2
    overflows or underflows, is a domain error naming L.
    """
    try:
        thr = 2.0 * math.pi**2 / L**2
    except ArithmeticError:
        thr = 0.0
    if not 0.0 < thr < math.inf:
        raise DomainError(f"period L={L} is out of range: 2*pi^2/L^2 is no finite positive double")
    return thr


@dataclass(frozen=True)
class WaveParams:
    """Scalar parameters of one dnoidal wave."""

    L: float
    c: float
    omega: float
    nu: float
    alpha: float
    eta1: float
    eta2: float
    k: float
    d0: float
    Aphi: float


def period_of(eta2: float, nu: float, alpha: float) -> float:
    """Fundamental period T(eta2) = 2 sqrt(2 alpha) K(k) / sqrt(2 nu alpha - eta2^2).

    Strictly decreasing on (0, sqrt(nu alpha)), diverging at the left
    endpoint and tending to pi sqrt(2/nu) at the right one.  It is the
    independent check of `solve_eta2`, which never evaluates it.
    """
    if nu <= 0.0 or alpha <= 0.0:
        raise DomainError("period_of requires nu > 0 and alpha > 0")
    if not 0.0 < eta2 < math.sqrt(nu * alpha):
        raise DomainError(
            f"eta2={eta2} outside (0, sqrt(nu*alpha)={math.sqrt(nu * alpha)})"
        )
    denom = 2.0 * nu * alpha - eta2 * eta2
    # k'^2 = eta2^2 / (2 nu alpha - eta2^2); free of the 1 - k^2 cancellation
    m = Modulus.from_kprime_sq(eta2 * eta2 / denom)
    return 2.0 * math.sqrt(2.0 * alpha) / math.sqrt(denom) * complete_K(m)


_TOO_LONG = "period L={L} is too long for double precision at nu={nu}: k'^2 underflows"
_MAX_NEWTON = 50


def solve_eta2(L: float, c: float, nu: float) -> float:
    """Unique eta2 in (0, sqrt(nu alpha)) with period_of(eta2) = L.

    Along the family the wave depends on L sqrt(nu) only: its modulus
    solves g(s) = 2 K(k) sqrt(1 + k'^2) - L sqrt(nu) = 0 in s = ln k',
    and then eta1^2 = 2 nu alpha / (1 + k'^2) and eta2 = k' eta1.  Newton
    steps with the analytic slope start from K ~ ln(4/k'), where g > 0;
    g is convex and decreasing in s, so the iterates rise monotonically
    to the root, and each one builds one modulus.  The root is accepted
    once |g| <= 1e-12 L sqrt(nu), which is |period_of(eta2) - L| <= 1e-12 L.

    The period grows like log(1/k') as k' -> 0, and k'^2 turns subnormal
    near L sqrt(nu) = 720: a longer period, whose k'^2 underflows or
    cannot resolve the tolerance, raises NoSolutionError naming that limit.
    """
    if not (math.isfinite(L) and L > 0.0):
        raise DomainError(f"period L={L} must be finite and positive")
    for name, val in (("c", c), ("nu", nu)):
        if not math.isfinite(val):
            raise DomainError(f"{name}={val} must be finite")
    alpha = 1.0 - c * c
    if alpha <= 0.0:
        raise DomainError(f"speed c={c} requires 1 - c^2 > 0")
    if nu <= nu_threshold(L):
        raise NoSolutionError(
            f"nu={nu} <= 2*pi^2/L^2={nu_threshold(L)}: the period infimum "
            f"pi*sqrt(2/nu) exceeds L, no dnoidal wave exists"
        )
    target = L * math.sqrt(nu)
    tol = 1e-12 * target
    # target > pi sqrt(2) above the threshold, so s < ln 4 - pi/sqrt(2) < 0
    s = math.log(4.0) - 0.5 * target
    for _ in range(_MAX_NEWTON):
        kp2 = math.exp(2.0 * s)
        if kp2 == 0.0:
            break
        m = Modulus.from_kprime_sq(kp2)
        K, sq = complete_K(m), math.sqrt(1.0 + kp2)
        g = 2.0 * K * sq - target
        if abs(g) <= tol:
            return m.kprime * math.sqrt(2.0 * nu * alpha / (1.0 + kp2))
        # dK/ds = dK_dk dk/ds with dk/ds = -k'^2/k; k'^2 cancels, so the
        # slope stays finite where dK_dk alone overflows
        dK_ds = -(complete_E(m) - kp2 * K) / (m.k * m.k)
        s -= g / (2.0 * (sq * dK_ds + K * kp2 / sq))
    if kp2 < sys.float_info.min:
        raise NoSolutionError(_TOO_LONG.format(L=L, nu=nu))
    raise NoSolutionError(f"solve_eta2 stalled with residual {g:.3e}")


@dataclass(frozen=True)
class DnoidalWave:
    """A dnoidal wave plus closed-form profile evaluators; at k = 1 (see
    `solitary_wave`) the same formulas give the sech solitary wave."""

    params: WaveParams
    modulus: Modulus
    EK_ratio: float  # E(k)/K(k), cached for varphi

    # --- elliptic building blocks -------------------------------------
    def _arg(self, xs):
        p = self.params
        return p.eta1 * np.asarray(xs, dtype=float) / math.sqrt(2.0 * p.alpha)

    def _sncndn(self, xs):
        return jacobi_sn_cn_dn(self._arg(xs), self.modulus)

    # --- profiles ------------------------------------------------------
    def phi(self, xs):
        _, _, dn = self._sncndn(xs)
        return self.params.eta1 * dn

    def psi(self, xs):
        ph = self.phi(xs)
        return -ph * ph / self.params.alpha

    def varphi(self, xs):
        p = self.params
        _, _, dn = self._sncndn(xs)
        return -p.c * p.eta1**2 / p.alpha * (dn * dn - self.EK_ratio)

    def phi_prime(self, xs):
        p = self.params
        sn, cn, _ = self._sncndn(xs)
        k2 = self.modulus.k**2
        return -p.eta1**2 * k2 / math.sqrt(2.0 * p.alpha) * sn * cn


def _carrier_mismatch(c: float, L: float) -> str | None:
    """Why the envelope carrier e^(icx/2) is not L-periodic, or None when
    cL/(4 pi) is an integer to 1e-9."""
    ratio = c * L / (4.0 * math.pi)
    if abs(ratio - round(ratio)) <= 1e-9:
        return None
    return (f"cL/(4*pi)={ratio:.6g} is not an integer: the envelope "
            "carrier e^(icx/2) is not L-periodic")


def build_wave(L: float, c: float, nu: float) -> DnoidalWave:
    """Construct the unique dnoidal wave with period L for (c, nu).

    Emits a warning (not an error) when cL/(4 pi) is not an integer, i.e.
    when the envelope's u-field is not itself L-periodic: its spectra do
    not use the carrier, but `evolve` raises DomainError for such a wave.
    """
    import warnings

    alpha = 1.0 - c * c
    eta2 = solve_eta2(L, c, nu)
    eta1 = math.sqrt(2.0 * nu * alpha - eta2 * eta2)
    kprime = eta2 / eta1
    m = Modulus.from_kprime_sq(kprime * kprime)
    omega = -nu - c * c / 4.0
    ek = complete_E(m) / complete_K(m)
    d0 = -c * eta1**2 / alpha * ek
    aphi = -(eta1 * eta2) ** 2 / (4.0 * alpha)
    if mismatch := _carrier_mismatch(c, L):
        warnings.warn(mismatch, stacklevel=2)
    params = WaveParams(
        L=L, c=c, omega=omega, nu=nu, alpha=alpha,
        eta1=eta1, eta2=eta2, k=m.k, d0=d0, Aphi=aphi,
    )
    return DnoidalWave(params=params, modulus=m, EK_ratio=ek)


def ode_residuals(w: DnoidalWave, N: int = 1024):
    """Sup-norm residuals (r1, r2) of the profile's two identities on an
    N-point grid of one period, from one sn, cn, dn evaluation, each divided
    by its scale so that they mean the same at every L sqrt(nu):

    r1 = (q/2) dn'' - dn + q dn^3, dn'' = -k^2 (cn^2 - sn^2) dn, q = eta1^2/(alpha nu):
         phi'' - nu phi + phi^3/alpha = 0 divided by nu eta1;
    r2 = (k^2 sn cn)^2 - (dn^2 - (eta2/eta1)^2)(1 - dn^2):
         (phi')^2 - (phi^2 - eta2^2)(eta1^2 - phi^2)/(2 alpha) = 0 divided by eta1^4/(2 alpha).
    """
    if N < 64:
        raise DomainError("ode_residuals needs N >= 64")
    p = w.params
    if not math.isfinite(p.L):
        raise DomainError(f"ode_residuals samples one period, but L={p.L}")
    sn, cn, dn = w._sncndn(np.linspace(0.0, p.L, N, endpoint=False))
    k2 = w.modulus.k**2
    q = p.eta1**2 / (p.alpha * p.nu)
    dn2 = dn * dn
    r1 = np.max(np.abs(-0.5 * q * k2 * (cn * cn - sn * sn) * dn - dn + q * dn2 * dn))
    r2 = np.max(np.abs((k2 * sn * cn) ** 2 - (dn2 - (p.eta2 / p.eta1) ** 2) * (1.0 - dn2)))
    return float(r1), float(r2)


def mass_integral(w: DnoidalWave) -> float:
    """Closed form of the squared-profile mass: int_0^L phi^2 = 8 alpha K(k) E(k) / L."""
    p = w.params
    return 8.0 * p.alpha * complete_K(w.modulus) * complete_E(w.modulus) / p.L


def mass_derivative(L: float, c: float, nu: float) -> float:
    """dM/dnu of M = int_0^L phi^2 at fixed (L, c), in closed form (positive on the family).

    Along the family nu(k) = 4 K^2 (2 - k^2) / L^2, free of c, and
    M(k) = 8 alpha K E / L with dE/dk = (E - K)/k, so dM/dnu is
    (dM/dk) / (dnu/dk) = alpha L (K' E + K (E - K)/k) / (K (K' (2 - k^2) - k K)).
    """
    w = build_wave(L, c, nu)
    m, k = w.modulus, w.modulus.k
    K, E, dK = complete_K(m), complete_E(m), dK_dk(m)
    return w.params.alpha * L * (dK * E + K * (E - K) / k) / (K * (dK * (2.0 - k * k) - k * K))


class SolitaryWave(DnoidalWave):
    """The L -> infinity end of the dnoidal family: k = 1, where dn = cn = sech."""

    @property
    def decay_rate(self) -> float:
        return math.sqrt(self.params.nu)


def solitary_wave(omega: float, c: float) -> SolitaryWave:
    """The sech wave phi = eta1 sech(sqrt(nu) x) on the line, built as the
    k = 1 dnoidal wave: eta1 = sqrt(2 nu alpha), eta2 = 0, E/K = d0 = 0."""
    if not 4.0 * omega + c * c < 0.0:
        raise DomainError(f"solitary wave needs 4*omega + c^2 < 0, got {4 * omega + c * c}")
    if not 1.0 - c * c > 0.0:
        raise DomainError(f"solitary wave needs 1 - c^2 > 0, got {1 - c * c}")
    alpha = 1.0 - c * c
    nu = -(omega + c * c / 4.0)
    params = WaveParams(
        L=math.inf, c=c, omega=omega, nu=nu, alpha=alpha,
        eta1=math.sqrt(2.0 * nu * alpha), eta2=0.0, k=1.0, d0=0.0, Aphi=0.0,
    )
    return SolitaryWave(params=params, modulus=Modulus.from_kprime_sq(0.0), EK_ratio=0.0)


_TABLE_FIELDS = ("nu", "eta2", "eta1", "k", "omega", "d0", "mass")


@dataclass
class FamilyTable:
    """One wave per row along a nu-sweep at fixed (L, c)."""

    L: float
    c: float
    rows: list[dict]

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])

    def to_csv(self, path) -> None:
        write_csv(path, _TABLE_FIELDS, ([row[f] for f in _TABLE_FIELDS] for row in self.rows))

    def to_json(self, path) -> None:
        write_json(path, [{f: row[f] for f in _TABLE_FIELDS} for row in self.rows])


def family_sweep(L: float, c: float, nu_grid) -> FamilyTable:
    """Construct the wave at every nu in nu_grid and verify the monotone chains.

    eta2 must decrease strictly and k / mass increase strictly along
    increasing nu.  A failed construction raises NoSolutionError and a
    broken chain VerdictError, each naming the offending nu.
    """
    rows = []
    for nu in nu_grid:
        try:
            w = build_wave(L, c, float(nu))
        except DomainError as exc:
            raise NoSolutionError(f"family_sweep failed at nu={nu}: {exc}") from exc
        p = w.params
        rows.append({
            "nu": p.nu, "eta2": p.eta2, "eta1": p.eta1, "k": p.k,
            "omega": p.omega, "d0": p.d0, "mass": mass_integral(w),
        })
    for prev, cur in zip(rows, rows[1:]):
        if not cur["eta2"] < prev["eta2"]:
            raise VerdictError(f"eta2 chain not strictly decreasing at nu={cur['nu']}")
        if not cur["k"] > prev["k"]:
            raise VerdictError(f"k chain not strictly increasing at nu={cur['nu']}")
        if not cur["mass"] > prev["mass"]:
            raise VerdictError(f"mass chain not strictly increasing at nu={cur['nu']}")
    return FamilyTable(L=L, c=c, rows=rows)

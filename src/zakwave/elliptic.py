"""Jacobi elliptic functions and complete elliptic integrals.

Everything is built on the arithmetic-geometric mean (AGM): K and E come
from the AGM scale sequence, sn/cn/dn from the descending Landen
back-recursion (DLMF 22.20(ii)).  Each `Modulus` runs its AGM once, on
first use, and `complete_K`, `complete_E`, `dK_dk` and `jacobi_sn_cn_dn`
all read that one sequence.  All routines are pure functions of their
arguments and accept scalars or numpy arrays for the argument `u`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = ["Modulus", "complete_K", "complete_E", "dK_dk", "jacobi_sn_cn_dn"]

_MAX_ITER = 64


@dataclass(frozen=True)
class Modulus:
    """Elliptic modulus k together with its complement k' (k^2 + k'^2 = 1).

    Construct via `from_k` or, when k is close to 1, via `from_kprime_sq`
    so the complement carries full precision.  The AGM scale sequence is
    cached on the instance, outside the dataclass fields, so equality and
    hashing still see only (k, k').
    """

    k: float
    kprime: float

    @classmethod
    def from_k(cls, k: float) -> "Modulus":
        if not 0.0 <= k <= 1.0:
            raise DomainError(f"modulus k={k} outside [0, 1]")
        # (1-k)(1+k) avoids cancellation in 1 - k^2 for k near 1
        return cls(float(k), math.sqrt(max(0.0, (1.0 - k) * (1.0 + k))))

    @classmethod
    def from_kprime_sq(cls, kprime_sq: float) -> "Modulus":
        if not 0.0 <= kprime_sq <= 1.0:
            raise DomainError(f"kprime^2={kprime_sq} outside [0, 1]")
        return cls(math.sqrt(max(0.0, 1.0 - kprime_sq)), math.sqrt(kprime_sq))

    @cached_property
    def _agm(self):
        return _agm_sequence(self)


def _agm_sequence(m: Modulus):
    """AGM scale sequence (a_n, b_n, c_n) starting from (1, k', k).

    Iterates until |a_n - b_n| <= 4 ulp(a_n); quadratic convergence makes
    this about 8 steps for any k in [0, 1).
    """
    a, b, c = 1.0, m.kprime, m.k
    a_seq, c_seq = [a], [c]
    for _ in range(_MAX_ITER):
        if abs(a - b) <= 4.0 * math.ulp(a):
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        a_seq.append(a)
        c_seq.append(c)
    return tuple(a_seq), tuple(c_seq)


def complete_K(m: Modulus) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 agm(1, k'))."""
    if m.kprime == 0.0:
        raise DomainError("K(k) diverges as k -> 1")
    a_seq, _ = m._agm
    return math.pi / (2.0 * a_seq[-1])


def complete_E(m: Modulus) -> float:
    """Complete elliptic integral of the second kind.

    Uses E = K (1 - sum_n 2^(n-1) c_n^2) with c_0 = k.
    """
    if m.kprime == 0.0:
        return 1.0
    a_seq, c_seq = m._agm
    s = sum(2.0 ** (n - 1) * c * c for n, c in enumerate(c_seq))
    return math.pi / (2.0 * a_seq[-1]) * (1.0 - s)


def dK_dk(m: Modulus) -> float:
    """dK/dk = (E - k'^2 K) / (k k'^2), valid for k in (0, 1)."""
    if m.k == 0.0 or m.kprime == 0.0:
        raise DomainError("dK/dk requires k in (0, 1)")
    kp2 = m.kprime * m.kprime
    return (complete_E(m) - kp2 * complete_K(m)) / (m.k * kp2)


def jacobi_sn_cn_dn(u, m: Modulus):
    """Simultaneous sn(u,k), cn(u,k), dn(u,k) by descending Landen recursion.

    `u` may be a scalar or ndarray; the return mirrors its shape.  The
    argument is reduced modulo the 4K period before the back-recursion so
    accuracy is uniform over large grids.
    """
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)

    if m.k <= 4.0 * math.ulp(1.0):
        sn, cn, dn = np.sin(u_arr), np.cos(u_arr), np.ones_like(u_arr)
    elif m.kprime == 0.0:
        sn = np.tanh(u_arr)
        cn = 1.0 / np.cosh(u_arr)
        dn = cn.copy()
    else:
        K = complete_K(m)
        u_red = u_arr - 4.0 * K * np.floor(u_arr / (4.0 * K))
        a_seq, c_seq = m._agm
        n_last = len(a_seq) - 1
        phi = (2.0 ** n_last) * a_seq[n_last] * u_red
        for n in range(n_last, 0, -1):
            ratio = c_seq[n] / a_seq[n]
            phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))
        sn = np.sin(phi)
        cn = np.cos(phi)
        # dn^2 = 1 - k^2 sn^2 rewritten as k'^2 + k^2 cn^2: no cancellation,
        # well conditioned at the quarter period where the classical
        # cos(phi_0)/cos(phi_1 - phi_0) form degenerates to 0/0
        dn = np.sqrt(m.kprime**2 + (m.k * cn) ** 2)

    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn

"""Elliptic-function layer against independent quadrature and ODE oracles."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from zakwave import elliptic
from zakwave.elliptic import (
    Modulus,
    complete_E,
    complete_K,
    dK_dk,
    jacobi_sn_cn_dn,
)
from zakwave.errors import DomainError


# --------------------------------------------------------------------------
# oracles

def K_quadrature(k: float) -> float:
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    return val


def E_quadrature(k: float) -> float:
    val, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    return val


def sncndn_ode(u: float, k: float):
    """Integrate sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn from (0, 1, 1)."""
    def f(_, y):
        sn, cn, dn = y
        return [cn * dn, -sn * dn, -k * k * sn * cn]

    sol = solve_ivp(f, (0.0, u), [0.0, 1.0, 1.0], rtol=1e-12, atol=1e-13,
                    dense_output=True)
    return sol.y[:, -1]


# --------------------------------------------------------------------------
# complete integrals

def test_K_at_zero_is_half_pi():
    assert complete_K(Modulus.from_k(0.0)) == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_E_endpoints():
    assert complete_E(Modulus.from_k(0.0)) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert complete_E(Modulus.from_k(1.0)) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.8, 0.95, 0.999])
def test_K_matches_quadrature(k):
    assert complete_K(Modulus.from_k(k)) == pytest.approx(K_quadrature(k), rel=1e-12)


@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.8, 0.95, 0.999])
def test_E_matches_quadrature(k):
    assert complete_E(Modulus.from_k(k)) == pytest.approx(E_quadrature(k), rel=1e-12)


def test_K_monotone_increasing():
    ks = np.linspace(0.0, 0.999, 40)
    vals = [complete_K(Modulus.from_k(k)) for k in ks]
    assert np.all(np.diff(vals) > 0.0)


def test_E_strictly_below_K_inside():
    for k in (0.05, 0.4, 0.9):
        m = Modulus.from_k(k)
        assert complete_E(m) < complete_K(m)


def test_K_diverges_at_one():
    with pytest.raises(DomainError):
        complete_K(Modulus.from_k(1.0))


def test_dK_dk_matches_finite_difference():
    for k in (0.2, 0.5, 0.8):
        h = 1e-6
        fd = (complete_K(Modulus.from_k(k + h)) -
              complete_K(Modulus.from_k(k - h))) / (2.0 * h)
        assert dK_dk(Modulus.from_k(k)) == pytest.approx(fd, rel=1e-6)


# --------------------------------------------------------------------------
# modulus bookkeeping

def test_modulus_complement_identity():
    for k in (0.0, 0.3, 0.99999, 1.0):
        m = Modulus.from_k(k)
        assert m.k**2 + m.kprime**2 == pytest.approx(1.0, abs=1e-15)


def test_modulus_from_kprime_sq_keeps_precision():
    kp2 = 1e-14
    m = Modulus.from_kprime_sq(kp2)
    assert m.kprime == pytest.approx(1e-7, rel=1e-12)


def test_modulus_rejects_out_of_range():
    with pytest.raises(DomainError):
        Modulus.from_k(1.5)
    with pytest.raises(DomainError):
        Modulus.from_kprime_sq(-0.1)


@pytest.mark.parametrize("m", [Modulus.from_k(0.0), Modulus.from_kprime_sq(0.0)])
def test_dK_dk_rejects_the_ends_of_the_modulus_range(m):
    with pytest.raises(DomainError, match=re.escape("dK/dk requires k in (0, 1)")):
        dK_dk(m)


def test_each_modulus_runs_its_agm_once(monkeypatch):
    calls = []
    agm = elliptic._agm_sequence
    monkeypatch.setattr(elliptic, "_agm_sequence", lambda m: calls.append(m) or agm(m))
    m = Modulus.from_k(0.7)
    dK_dk(m)
    assert len(calls) == 1
    m2 = Modulus.from_kprime_sq(0.3)
    K, E = complete_K(m2), complete_E(m2)
    jacobi_sn_cn_dn(np.linspace(0.0, 4.0 * K, 9), m2)
    assert calls == [m, m2]
    assert (K, E) == (complete_K(Modulus.from_kprime_sq(0.3)),
                      complete_E(Modulus.from_kprime_sq(0.3)))


def test_modulus_cache_is_no_dataclass_field():
    fresh, used = Modulus.from_k(0.7), Modulus.from_k(0.7)
    complete_E(used)
    assert [f.name for f in dataclasses.fields(Modulus)] == ["k", "kprime"]
    assert fresh == used and hash(fresh) == hash(used) == hash((0.7, used.kprime))
    assert repr(used) == repr(fresh)
    assert Modulus.from_k(0.7) != Modulus.from_k(0.5)


# --------------------------------------------------------------------------
# Jacobi functions

def test_jacobi_at_zero():
    sn, cn, dn = jacobi_sn_cn_dn(0.0, Modulus.from_k(0.73))
    assert (sn, cn, dn) == (0.0, 1.0, 1.0)


def test_jacobi_degenerates_to_sech_at_k_one():
    us = np.linspace(-5.0, 5.0, 41)
    sn, cn, dn = jacobi_sn_cn_dn(us, Modulus.from_k(1.0))
    assert np.max(np.abs(dn - 1.0 / np.cosh(us))) < 1e-14
    assert np.max(np.abs(sn - np.tanh(us))) < 1e-14


@pytest.mark.parametrize("u,k", [(0.7, 0.6), (2.3, 0.9), (-1.1, 0.3), (5.7, 0.95)])
def test_jacobi_matches_pendulum_ode(u, k):
    sn, cn, dn = jacobi_sn_cn_dn(u, Modulus.from_k(k))
    osn, ocn, odn = sncndn_ode(u, k)
    assert sn == pytest.approx(osn, abs=5e-11)
    assert cn == pytest.approx(ocn, abs=5e-11)
    assert dn == pytest.approx(odn, abs=5e-11)


def test_quarter_period_values():
    for k in (0.2, 0.5, 0.9, 0.999):
        m = Modulus.from_k(k)
        K = complete_K(m)
        sn, cn, dn = jacobi_sn_cn_dn(K, m)
        assert abs(sn - 1.0) < 1e-12
        assert abs(cn) < 1e-12
        assert dn == pytest.approx(m.kprime, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-50.0, 50.0), k=st.floats(0.0, 0.999))
def test_pythagorean_identities(u, k):
    m = Modulus.from_k(k)
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
    assert abs(k * k * sn * sn + dn * dn - 1.0) <= 1e-12
    assert m.kprime - 1e-12 <= dn <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(u=st.floats(-30.0, 30.0), k=st.floats(0.01, 0.99))
def test_dn_two_K_periodicity(u, k):
    m = Modulus.from_k(k)
    K = complete_K(m)
    _, _, dn0 = jacobi_sn_cn_dn(u, m)
    _, _, dn1 = jacobi_sn_cn_dn(u + 2.0 * K, m)
    assert abs(dn1 - dn0) <= 1e-11


@settings(max_examples=100, deadline=None)
@given(u=st.floats(-30.0, 30.0), k=st.floats(0.01, 0.99))
def test_sn_cn_four_K_periodicity(u, k):
    m = Modulus.from_k(k)
    K = complete_K(m)
    sn0, cn0, _ = jacobi_sn_cn_dn(u, m)
    sn1, cn1, _ = jacobi_sn_cn_dn(u + 4.0 * K, m)
    assert abs(sn1 - sn0) <= 1e-10
    assert abs(cn1 - cn0) <= 1e-10


def test_vectorized_matches_scalar():
    m = Modulus.from_k(0.7)
    us = np.linspace(-3.0, 7.0, 17)
    sn, cn, dn = jacobi_sn_cn_dn(us, m)
    for i, u in enumerate(us):
        s, c, d = jacobi_sn_cn_dn(float(u), m)
        assert (s, c, d) == (sn[i], cn[i], dn[i])

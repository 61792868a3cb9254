"""Exact symmetries of the Zakharov system on the stepper.

Each symmetry maps solutions to solutions, so it must commute with
`Evolver.step`, and none of these checks needs a reference run:
- reflection x -> -x with (v, V, u) -> (v, -V, u);
- phase rotation u -> e^{i alpha} u;
- translation by N/8 cells;
- time reversal (v, V, u) -> (v, -V, conj u): T forward, reverse, T
  forward, reverse returns the start.  RK4 is not time-symmetric, so this
  one is bounded by the step's truncation error, which scales with dt^4,
  and the others by rounding.

Each runs on the standard wave's box (L = 8 pi, c = 0.5) from the
experiments' own delta = 1e-2 perturbation over T = 2, at nu = 0.2 with the
default dt and at nu = 1 with 4 times it.
"""

import math

import numpy as np
import pytest

from zakwave import dynamics
from zakwave.dynamics import Evolver, GridSpec, default_dt
from zakwave.wavefamily import build_wave

T = 2.0
ALPHA = 0.7

# relative sup over the spectral state, measured with numpy 2.4 (pocketfft)
# on x86-64, seed 1; each bound is FACTOR times its measured value
MEASURED = {
    (0.2, 1): {"reflection": 9.7e-17, "phase": 2.4e-15, "translation": 3.5e-15,
               "time reversal": 2.4e-13},
    (1.0, 4): {"reflection": 1.3e-15, "phase": 2.0e-15, "translation": 1.5e-15,
               "time reversal": 1.6e-9},
}
FACTOR = 10.0


def _reflect(spec):
    """x -> -x, V -> -V: mode n of the reflected field is mode -n."""
    N = spec.shape[-1]
    out = spec[..., -np.arange(N) % N]
    out[1] *= -1.0
    return out


def _rotate(spec):
    out = spec.copy()
    out[2] *= np.exp(1j * ALPHA)
    return out


def _translate(spec):
    N = spec.shape[-1]
    n = np.fft.fftfreq(N, d=1.0 / N)
    return spec * np.exp(-2j * math.pi * n * (N // 8) / N)


def _reverse(spec):
    """(v, V, u) -> (v, -V, conj u): mode n of conj u is conj of mode -n."""
    N = spec.shape[-1]
    out = spec.copy()
    out[1] *= -1.0
    out[2] = np.conj(spec[2][..., -np.arange(N) % N])
    return out


SYMMETRIES = {"reflection": _reflect, "phase": _rotate, "translation": _translate}


def _start(nu, dt_factor):
    """The Evolver, the perturbed start's spectral state and the steps to T."""
    wave = build_wave(8.0 * math.pi, 0.5, nu)
    grid = GridSpec(L=wave.params.L, N=256)
    ev = Evolver(grid, dt_factor * default_dt(grid.L))
    s0 = dynamics._perturbed_initial_state(wave, grid, 1e-2, seed=1,
                                           respect_mean_condition=True,
                                           renormalize_q2=False)
    return ev, ev.to_spectral(s0), int(round(T / ev.dt))


def _steps(ev, spec, n):
    for _ in range(n):
        spec = ev.step(spec)
    return spec


def _gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("case", list(MEASURED), ids=["nu0.2", "nu1-4dt"])
@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_symmetry_commutes_with_the_step(case, name):
    # the state and its image step together as a batch of two, each row
    # exactly as it would alone
    ev, spec, n = _start(*case)
    transform = SYMMETRIES[name]
    out = _steps(ev, np.concatenate((spec, transform(spec)), axis=1), n)
    gap = _gap(transform(out[:, :1]), out[:, 1:])
    assert gap <= FACTOR * MEASURED[case][name], gap


@pytest.mark.parametrize("case", list(MEASURED), ids=["nu0.2", "nu1-4dt"])
def test_time_reversal_returns_the_start(case):
    ev, spec, n = _start(*case)
    s = spec
    for _ in range(2):
        s = _reverse(_steps(ev, s, n))
    gap = _gap(s, spec)
    assert gap <= FACTOR * MEASURED[case]["time reversal"], gap

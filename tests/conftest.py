"""Shared waves and (expensive) evolution runs, computed once per session."""

import math
import warnings

import numpy as np
import pytest

from zakwave.dynamics import (
    GridSpec,
    evolve,
    solitary_experiment,
    stability_experiment,
    wave_state,
)
from zakwave.wavefamily import build_wave

# standard periodic test wave: c*L/(4 pi) = 1 so the carrier is L-periodic,
# c != 0 so the flux profile varphi and Q1 are nontrivial
STD_L = 8.0 * math.pi
STD_C = 0.5
STD_NU = 0.2

SOL_OMEGA = -1.0
SOL_C = 0.5


@pytest.fixture(scope="session")
def wave_std():
    return build_wave(STD_L, STD_C, STD_NU)


@pytest.fixture(scope="session")
def wave_c0():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_wave(2.0 * math.pi, 0.0, 1.0)


@pytest.fixture(scope="session")
def grid_std(wave_std):
    return GridSpec(L=wave_std.params.L, N=256)


@pytest.fixture(scope="session")
def exact_run(wave_std, grid_std):
    """Exact traveling wave evolved over [0, 5] at dt=1e-4 with the paper-form
    momentum tracked alongside the conserved form."""
    state0 = wave_state(wave_std, grid_std)
    return evolve([state0], wave_std, grid_std, dt=1e-4, t_end=5.0)[0]


@pytest.fixture(scope="session")
def pert_runs(wave_std):
    """The delta = 1e-3 and 1e-2 runs of seed 11, stepped as one batch."""
    return stability_experiment(wave_std, delta=[1e-3, 1e-2], t_end=5.0, seed=11,
                                respect_mean_condition=True, N=256)


@pytest.fixture(scope="session")
def pert_run_small(pert_runs):
    return pert_runs[0]


@pytest.fixture(scope="session")
def pert_run_large(pert_runs):
    return pert_runs[1]


@pytest.fixture(scope="session")
def solitary_run_exact():
    return solitary_experiment(SOL_OMEGA, SOL_C, delta=0.0, t_end=10.0, seed=0)


@pytest.fixture(scope="session")
def solitary_run_pert():
    return solitary_experiment(SOL_OMEGA, SOL_C, delta=1e-3, t_end=10.0, seed=5)


def relative_drift(series: np.ndarray) -> float:
    return float(np.max(np.abs(series - series[0])) / max(abs(series[0]), 1e-30))


def kernel_residual(op, kernel: np.ndarray) -> float:
    """||G kernel|| / ||kernel|| on the dense periodic grid reference G of a
    Hill operator: below 1e-6 times the distance from 0 to the operator's
    other eigenvalues, it puts the kernel within sin 1e-6 of the zero mode
    (Davis-Kahan), an alignment >= 1 - 5e-13."""
    return float(np.linalg.norm(op.grid_matrix("periodic") @ kernel) / np.linalg.norm(kernel))

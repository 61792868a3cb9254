"""The traced benchmark run wraps zakwave names from outside; these checks
fail when one of those names is deleted or renamed, or when a step stops
doing the 16 transforms the benchmark's self-test expects."""

import os
import sys

import pytest

from zakwave.dynamics import Evolver, wave_state

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import spans  # noqa: E402


@pytest.fixture
def tracer():
    tr = spans.Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_traced_name_is_wrapped_then_restored():
    originals = {(owner, attr): _current(owner, attr)
                 for owner, attr, _, _ in spans._targets()}
    tr = spans.Tracer()
    tr.install()
    try:
        for (owner, attr), fn in originals.items():
            assert _current(owner, attr).__wrapped__ is fn, f"{owner}.{attr}"
    finally:
        tr.uninstall()
    for (owner, attr), fn in originals.items():
        assert _current(owner, attr) is fn, f"{owner}.{attr}"


def test_traced_step_does_sixteen_transforms(tracer, wave_std, grid_std):
    ev = Evolver(grid_std, dt=1e-3)
    spec = ev.to_spectral(wave_state(wave_std, grid_std))
    first = len(tracer.names)
    ev.step(spec)
    inside = tracer.names[first:]
    assert inside[0] == "dynamics.step"
    assert inside.count("dynamics.rhs") == 4
    assert inside.count("fft") == 16

"""The traced benchmark run wraps zakwave names from outside; these checks
fail when one of those names is deleted or renamed, when a step stops
doing the 16 transforms the benchmark's self-test expects, when the
modulated-distance search transforms shifted fields again, when the
save points transform the fixed reference fields again, when a batch
runs its save-point diagnostics member by member, or when the solitary
run's profiles stop going through the traced Jacobi evaluators."""

import os
import sys

import pytest

from zakwave import dynamics
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


def test_traced_orbital_distance_does_at_most_four_transforms(tracer, wave_std, grid_std):
    # field, profile and profile-derivative modes plus one correlation ifft
    u = wave_state(wave_std, grid_std).u
    first = len(tracer.names)
    dynamics.orbital_distance(u, wave_std, grid_std)
    inside = tracer.names[first:]
    assert inside[0] == "dynamics.orbital_distance"
    assert inside.count("fft") <= 4


def test_traced_solitary_run_evaluates_jacobi_profiles(tracer):
    # the solitary wave's profiles are the DnoidalWave methods at k = 1, so
    # the per-layer profile metrics count the solitary workload too
    first = len(tracer.names)
    dynamics.solitary_experiment(-1.0, 0.5, t_end=1e-2, N=256)
    inside = tracer.names[first:]
    assert "wavefamily.profile" in inside
    assert "elliptic.jacobi" in inside


def test_traced_evolve_transforms_reference_fields_once(tracer, wave_std, grid_std):
    # psi, varphi and the profile modes (phi', sqrt(nu) phi) are computed
    # once per run: a save transforms only the saved fields, so neither the
    # transforms per save nor the profile samplings grow with the saves
    s0 = wave_state(wave_std, grid_std)
    profiles = []
    for t_end in (4e-3, 8e-3):  # 5 and 9 saves
        first = len(tracer.names)
        dynamics.evolve([s0], wave_std, grid_std, 1e-3, t_end)
        profiles.append(tracer.names[first:].count("wavefamily.profile"))
    assert profiles[0] == profiles[1]
    assert spans.layer_metrics(tracer)["dynamics.fft.per_save"] <= 11


def test_traced_batch_saves_once_per_save_point(wave_std, grid_std):
    # a batch of five calls each diagnostic once per save, as one member does
    s0 = wave_state(wave_std, grid_std)
    metrics = []
    for n_members in (1, 5):
        tr = spans.Tracer()
        tr.install()
        try:
            dynamics.evolve([s0] * n_members, wave_std, grid_std, 1e-3, 4e-3)
        finally:
            tr.uninstall()
        metrics.append(spans.layer_metrics(tr))
    for m in metrics:
        assert m["dynamics.save.calls"] == 5
    assert metrics[1]["dynamics.fft.per_save"] == metrics[0]["dynamics.fft.per_save"]

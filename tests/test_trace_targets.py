"""The traced benchmark run wraps zakwave names from outside; these checks
fail when one of those names is deleted or renamed, when a step stops
doing the 16 transforms the benchmark's self-test expects, when the
modulated-distance search transforms shifted fields again, when a save
makes more than its three transforms or transforms the fixed reference
fields again, when a batch saves member by member, when the solitary
run's profiles stop going through the traced Jacobi evaluators, or when a
Hill solve assembles more than the matrices it solves whole."""

import os
import sys

import pytest

from zakwave import dynamics
from zakwave.dynamics import Evolver, wave_state
from zakwave.elliptic import Modulus
from zakwave.spectral import hill_L3, instability_intervals, periodic_spectrum

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
    # field and profile modes plus one correlation ifft: three
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


def _evolve_transforms(tr, first):
    """(transforms, saves) of the spans from index `first` on: the fft spans
    under dynamics.evolve outside dynamics.step and dynamics.to_spectral,
    and the dynamics.to_physical spans directly under dynamics.evolve, one
    per saved row."""
    names, parent = tr.names, tr.parent
    in_evolve = spans._flags_below(tr, lambda i: names[i] == "dynamics.evolve")
    stepping = spans._flags_below(
        tr, lambda i: names[i] in ("dynamics.step", "dynamics.to_spectral"))
    ffts = sum(1 for i in range(first, len(names))
               if names[i] == "fft" and in_evolve[i] and not stepping[i])
    saves = sum(1 for i in range(first, len(names)) if names[i] == "dynamics.to_physical"
                and parent[i] >= 0 and names[parent[i]] == "dynamics.evolve")
    return ffts, saves


def _save_transforms(s0s, wave, grid):
    """Transforms per save and per run of `evolve` from the states s0s, from
    two traced runs of 5 and 9 saves, and the profile samplings of each run."""
    tr = spans.Tracer()
    tr.install()
    try:
        counts, profiles = [], []
        for t_end in (4e-3, 8e-3):  # 5 and 9 saves
            first = len(tr.names)
            dynamics.evolve(s0s, wave, grid, 1e-3, t_end)
            counts.append(_evolve_transforms(tr, first))
            profiles.append(tr.names[first:].count("wavefamily.profile"))
    finally:
        tr.uninstall()
    (ffts5, saves5), (ffts9, saves9) = counts
    assert (saves5, saves9) == (5, 9)
    per_save = (ffts9 - ffts5) / (saves9 - saves5)
    return per_save, ffts5 - per_save * saves5, profiles


def test_traced_evolve_transforms_reference_fields_once(wave_std, grid_std):
    # a save transforms only the saved fields: one stacked ifft in
    # to_physical, one fft of u, v and V stacked, whose u rows serve E, Q1,
    # Q2, q1_uv and the orbit rows, and one correlation ifft in the one
    # shift search.  The reference fields are transformed once per run:
    # functional_B's u, and u, psi and varphi stacked; so neither the
    # transforms per save nor the profile samplings grow with the saves
    per_save, per_run, profiles = _save_transforms(
        [wave_state(wave_std, grid_std)], wave_std, grid_std)
    assert (per_save, per_run) == (3, 2)
    assert profiles[0] == profiles[1]


def test_traced_batch_saves_once_per_save_point(wave_std, grid_std):
    # a batch of five makes the transforms of a save once per save point,
    # as one member does
    s0 = wave_state(wave_std, grid_std)
    for n_members in (1, 5):
        per_save, per_run, _ = _save_transforms([s0] * n_members, wave_std, grid_std)
        assert (per_save, per_run) == (3, 2), n_members


def _spans(tr, first, name):
    """(size, dim) of each span called `name` recorded from index `first` on."""
    return [(tr.size[i], tr.dim[i]) for i in range(first, len(tr.names))
            if tr.names[i] == name]


def test_traced_lame_intervals_sample_once_and_assemble_two_matrices(tracer):
    # the N = 512 potential is every other sample of the 2N one, and only the
    # two whole M = N/8 matrices are assembled; the 2N check is solved as
    # parity blocks built from the coefficient windows
    first = len(tracer.names)
    instability_intervals(Modulus.from_k(0.5), 512)
    assert [size for size, _ in _spans(tracer, first, "elliptic.jacobi")] == [1024]
    assert [dim for _, dim in _spans(tracer, first, "spectral.matrix")] == [129, 129]


def test_traced_hill_spectrum_assembles_no_whole_matrix(tracer, wave_std):
    op = hill_L3(wave_std, 512)
    first = len(tracer.names)
    periodic_spectrum(op, 8)
    assert _spans(tracer, first, "spectral.matrix") == []

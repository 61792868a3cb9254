"""The save workspace of `evolve`: one per run, sized for its 3B search
rows, so that a save allocates a bounded multiple of its fields and no
array outlives the call or run that made it."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from zakwave import dynamics
from zakwave.dynamics import (
    Evolver,
    FieldState,
    GridSpec,
    band_limited_perturbation,
    evolve,
    orbital_distance,
    shift_distance,
    wave_state,
)
from zakwave.wavefamily import build_wave, solitary_wave

from conftest import SOL_C, SOL_OMEGA

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# a save's tracemalloc peak, in bytes of its (B, N) complex fields: 8
# fields of the N = 1024 solitary box are 128 KiB, glibc's default top pad
# and trim threshold, above which the heap may give pages back after a save
# and fault them in again at the next
SAVE_PEAK_FIELDS = 8


def _members(wave, grid, n_members, seed):
    """The wave plus a different band-limited perturbation per member."""
    base = wave_state(wave, grid)
    rng = np.random.default_rng(seed)
    return [FieldState(0.0,
                       base.v + 1e-2 * band_limited_perturbation(rng, grid, 8),
                       base.V + 1e-2 * band_limited_perturbation(rng, grid, 8, zero_mean=True),
                       base.u + 1e-2 * band_limited_perturbation(rng, grid, 8,
                                                                 complex_field=True))
            for _ in range(n_members)]


def _save_peaks(monkeypatch, run):
    """tracemalloc peak of each save of `run()` after a step above the
    memory in use when it began: from the sup-norm check of the saved
    state, when the previous saved state is released, to the next step."""
    peaks, start = [], []
    sup, step = dynamics._sup, Evolver.step

    def traced_sup(s):
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return sup(s)

    def traced_step(self, spec):
        if start:
            peaks.append(tracemalloc.get_traced_memory()[1] - start.pop())
        return step(self, spec)

    monkeypatch.setattr(dynamics, "_sup", traced_sup)
    monkeypatch.setattr(Evolver, "step", traced_step)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        run()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("kind, N, n_members", [("solitary", 1024, 1), ("dnoidal", 256, 5)])
def test_a_save_allocates_a_bounded_multiple_of_its_fields(wave_std, monkeypatch,
                                                          kind, N, n_members):
    # the rows, modes, search and distance arrays live in the run's
    # workspace, so after the first save a save's peak is its transients,
    # about 3.1 fields' worth at these shapes
    if kind == "solitary":
        wave = solitary_wave(SOL_OMEGA, SOL_C)
        grid = GridSpec(L=80.0 / math.sqrt(-4.0 * SOL_OMEGA - SOL_C**2), N=N)
    else:
        wave, grid = wave_std, GridSpec(L=wave_std.params.L, N=N)
    states0 = _members(wave, grid, n_members, seed=3)
    dt, n = dynamics.default_dt(grid.L), 5
    peaks = _save_peaks(monkeypatch, lambda: evolve(states0, wave, grid, dt, n * dt))
    # the first span runs from the initial sup norm through the set-up and
    # the first save; the others are the saves after steps 1 to n - 1
    assert len(peaks) == n
    fields = n_members * N * np.dtype(complex).itemsize
    assert max(peaks[1:]) <= SAVE_PEAK_FIELDS * fields, [p / fields for p in peaks]


def test_evolve_builds_one_save_workspace_per_run(wave_std, grid_std, monkeypatch):
    workspaces = []
    best_shift = dynamics._best_shift

    def spy(g, grid, ws):
        workspaces.append(ws)
        return best_shift(g, grid, ws)

    monkeypatch.setattr(dynamics, "_best_shift", spy)
    for n_members in (2, 1):
        workspaces.clear()
        states0 = _members(wave_std, grid_std, n_members, seed=5)
        evolve(states0, wave_std, grid_std, 1e-3, 4e-3)
        assert len(workspaces) == 5
        assert all(ws is workspaces[0] for ws in workspaces)
        assert workspaces[0].phases.shape == (3 * n_members, grid_std.N)


def test_distance_results_outlive_later_calls_at_other_shapes(wave_std, grid_std):
    rng = np.random.default_rng(8)
    ref = wave_state(wave_std, grid_std)
    u = ref.u + 1e-2 * np.stack([band_limited_perturbation(rng, grid_std, 8,
                                                           complex_field=True)
                                 for _ in range(3)])
    f = ref.v + 1e-2 * np.stack([band_limited_perturbation(rng, grid_std, 8)
                                 for _ in range(4)])
    rho_y_th = orbital_distance(u, wave_std, grid_std, t=0.3)
    dist_y = shift_distance(f, ref.v, grid_std)
    kept = [np.copy(x) for x in rho_y_th + dist_y]
    one = orbital_distance(u[1], wave_std, grid_std, t=0.3)
    # later calls at other batch sizes and on another grid
    small = GridSpec(L=grid_std.L, N=128)
    small_ref = wave_state(wave_std, small)
    orbital_distance(small_ref.u, wave_std, small)
    shift_distance(np.stack((small_ref.v, small_ref.V)), small_ref.v, small)
    shift_distance(f[0], ref.v, grid_std)
    orbital_distance(u[:2], wave_std, grid_std)
    for got, want in zip(rho_y_th + dist_y, kept):
        assert np.array_equal(got, want)
    assert orbital_distance(u[1], wave_std, grid_std, t=0.3) == one
    assert all(np.array_equal(a, b) for a, b in
               zip(orbital_distance(u, wave_std, grid_std, t=0.3) +
                   shift_distance(f, ref.v, grid_std), kept))


def _series(n_members):
    """Every series of an `evolve` run of n_members on the standard wave at
    N = 128, as one (members, series, saves) array."""
    wave = build_wave(8.0 * math.pi, 0.5, 0.2)
    grid = GridSpec(L=wave.params.L, N=128)
    states0 = _members(wave, grid, n_members, seed=n_members)
    records = evolve(states0, wave, grid, 1.6e-3, 6 * 1.6e-3)
    return np.array([[getattr(rec, name) for name in dynamics._SERIES] for rec in records])


def test_runs_of_other_batch_sizes_leave_a_run_bitwise_as_it_runs_alone(tmp_path):
    # each run made alone, in a fresh process
    alone = {}
    for n_members in (5, 1):
        out = tmp_path / f"alone{n_members}.npy"
        code = (f"import sys; sys.path.insert(0, {TESTS!r}); import numpy as np; "
                f"from test_save_workspace import _series; "
                f"np.save({str(out)!r}, _series({n_members}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        alone[n_members] = np.load(out)
    for n_members in (5, 1, 5):
        got = _series(n_members)
        assert got.shape == alone[n_members].shape
        assert got.tobytes() == alone[n_members].tobytes(), n_members

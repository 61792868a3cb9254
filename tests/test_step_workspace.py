"""The in-place Lawson RK4 step and right-hand side: bitwise the
expressions they replace, a workspace that follows the batch shape, and
fresh arrays where callers keep them."""

import numpy as np
import pytest

from zakwave.dynamics import Evolver, FieldState, GridSpec, band_limited_perturbation, wave_state


def _textbook_rhs(ev, spec):
    """The spectral right-hand side written as expressions on fresh arrays,
    with numpy's own real-to-complex casts."""
    vhat, Vhat, uhat = spec
    v = np.fft.ifft(vhat).real
    u = np.fft.ifft(uhat)
    u2hat = np.fft.fft(np.abs(u) ** 2)
    u2hat *= ev.mask
    uvhat = np.fft.fft(u * v)
    uvhat *= ev.mask
    d = np.empty_like(spec)
    d[0] = -ev.ik * Vhat
    d[1] = -ev.ik * (vhat + u2hat)
    d[2] = -1j * uvhat
    return d


def _textbook_step(ev, spec):
    """One Lawson RK4 step written as one expression on fresh arrays."""
    dt, eh, ef = ev.dt, ev.E_half, ev.E_full

    def f(y):
        return _textbook_rhs(ev, y)

    k1 = f(spec)
    k2 = f(eh * (spec + 0.5 * dt * k1))
    k3 = f(eh * spec + 0.5 * dt * k2)
    k4 = f(ef * spec + dt * eh * k3)
    return ef * spec + dt / 6.0 * (ef * k1 + 2.0 * eh * k2 + 2.0 * eh * k3 + k4)


def _batch(wave, grid, n_members, seed=0):
    """Spectral (3, B, N) state: the wave plus a different O(1/10)
    band-limited perturbation per member."""
    ev = Evolver(grid, dt=1.0)
    base = wave_state(wave, grid)
    rng = np.random.default_rng(seed)
    members = [FieldState(0.0,
                          base.v + 0.1 * band_limited_perturbation(rng, grid, 16),
                          base.V + 0.1 * band_limited_perturbation(rng, grid, 16,
                                                                    zero_mean=True),
                          base.u + 0.1 * band_limited_perturbation(rng, grid, 16,
                                                                    complex_field=True))
               for _ in range(n_members)]
    return np.concatenate([ev.to_spectral(s) for s in members], axis=1)


@pytest.mark.parametrize("N", [64, 256, 1024])
@pytest.mark.parametrize("n_members", [1, 3])
def test_rhs_is_bitwise_the_textbook_rhs(wave_std, N, n_members):
    grid = GridSpec(L=wave_std.params.L, N=N)
    ev = Evolver(grid, dt=1e-3)
    spec = _batch(wave_std, grid, n_members)
    for _ in range(3):
        assert np.array_equal(ev.rhs_spectral(spec), _textbook_rhs(ev, spec))
        spec = ev.step(spec)


@pytest.mark.parametrize("N", [64, 256, 1024])
@pytest.mark.parametrize("n_members", [1, 3])
@pytest.mark.parametrize("dt", [1e-4, 1e-3, 4e-3])
def test_step_is_bitwise_the_textbook_step(wave_std, N, n_members, dt):
    grid = GridSpec(L=wave_std.params.L, N=N)
    ev = Evolver(grid, dt)
    spec = ref = _batch(wave_std, grid, n_members)
    for _ in range(10):
        spec = ev.step(spec)
        ref = _textbook_step(ev, ref)
        assert np.array_equal(spec, ref)


def test_workspace_follows_the_batch_shape(wave_std, grid_std):
    one, three = _batch(wave_std, grid_std, 1), _batch(wave_std, grid_std, 3, seed=1)
    ev = Evolver(grid_std, dt=1e-3)
    for spec in (one, three, one):
        for _ in range(3):
            got = ev.step(spec)
            assert np.array_equal(got, Evolver(grid_std, dt=1e-3).step(spec))
            spec = got


def test_step_returns_a_fresh_array(wave_std, grid_std):
    ev = Evolver(grid_std, dt=1e-3)
    spec = _batch(wave_std, grid_std, 3)
    kept = spec.copy()
    new = ev.step(spec)
    assert np.array_equal(spec, kept)
    assert not np.shares_memory(new, spec)
    for buf in vars(ev._workspace(spec.shape)).values():
        if isinstance(buf, np.ndarray):
            assert not np.shares_memory(new, buf)
    # a later step leaves the earlier result alone
    newer = ev.step(new)
    assert not np.shares_memory(newer, new)
    assert np.array_equal(new, ev.step(spec))


def test_rhs_without_out_returns_a_new_array(wave_std, grid_std):
    ev = Evolver(grid_std, dt=1e-3)
    spec = _batch(wave_std, grid_std, 1)
    first = ev.rhs_spectral(spec)
    kept = first.copy()
    second = ev.rhs_spectral(spec)
    assert first is not second and not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and np.array_equal(first, second)


def test_rhs_with_out_writes_and_returns_out(wave_std, grid_std):
    ev = Evolver(grid_std, dt=1e-3)
    spec = _batch(wave_std, grid_std, 3)
    buf = np.empty_like(spec)
    assert ev.rhs_spectral(spec, out=buf) is buf
    assert np.array_equal(buf, ev.rhs_spectral(spec))

"""Conservative pseudo-spectral evolution of the first-order Zakharov system

    v_t = -V_x,   V_t = -(v + |u|^2)_x,   i u_t + u_xx = u v

on a periodic grid, plus the modulated-distance machinery used by the
orbital-stability experiments.  Derivatives are spectral, quadratic
products are 2/3-dealiased, and time stepping is Lawson integrating-factor
RK4: the stiff linear i u_xx term is transported exactly in Fourier space.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import BlowUpError, DomainError
from .output import write_csv, write_json
from .wavefamily import DnoidalWave, _carrier_mismatch, solitary_wave

__all__ = [
    "GridSpec",
    "FieldState",
    "ZakInvariants",
    "ExperimentRecord",
    "Evolver",
    "wave_state",
    "default_dt",
    "invariants",
    "q1_paper_form",
    "functional_B",
    "orbital_distance",
    "shift_distance",
    "band_limited_perturbation",
    "evolve",
    "stability_experiment",
    "solitary_experiment",
]


# --------------------------------------------------------------------------
# grid and state containers

@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid x_j = j L / N."""

    L: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise DomainError(f"grid period L={self.L} must be finite and positive")
        if self.N % 2 != 0 or self.N < 64:
            raise DomainError(f"grid N={self.N} must be even and >= 64")

    # grid arrays are computed on first use and shared read-only

    @cached_property
    def xs(self) -> np.ndarray:
        return _read_only(np.arange(self.N) * self.L / self.N)

    @cached_property
    def k(self) -> np.ndarray:
        """Spectral wavenumbers in fft ordering."""
        return _read_only(2.0 * math.pi * np.fft.fftfreq(self.N, d=1.0 / self.N) / self.L)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        n = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
        return _read_only(n <= self.N / 3.0)

    def integrate(self, f):
        """Spectral quadrature over the last axis, exact for trigonometric
        polynomials: a numpy scalar for (N,) samples, an array of one value
        per row for (B, N) samples."""
        return np.sum(f, axis=-1) * self.L / self.N


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class FieldState:
    """Sampled (v, V, u) triple at time t; v, V real, u complex, V mean-zero."""

    t: float
    v: np.ndarray
    V: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class ZakInvariants:
    """E, Q1, Q2: floats for one state, (B,) arrays for a batch."""

    E: float | np.ndarray
    Q1: float | np.ndarray
    Q2: float | np.ndarray


def _wrapped(grid: GridSpec, shift: float = 0.0) -> np.ndarray:
    """Comoving coordinate x - shift wrapped to [-L/2, L/2)."""
    return np.mod(grid.xs - shift + 0.5 * grid.L, grid.L) - 0.5 * grid.L


def wave_state(wave: DnoidalWave, grid: GridSpec, t: float = 0.0) -> FieldState:
    """Exact traveling-wave state sampled on the grid at time t."""
    c, omega = wave.params.c, wave.params.omega
    # wrap the comoving coordinate so solitary profiles stay centered in-box;
    # the carrier uses the same wrapped coordinate so that its (generally
    # non-periodic) phase jump falls where the envelope tails vanish, not at
    # the wrap point across the profile peak
    xi = _wrapped(grid, c * t)
    u = np.exp(-1j * omega * t) * np.exp(0.5j * c * xi) * wave.phi(xi)
    return FieldState(t=t, v=wave.psi(xi), V=wave.varphi(xi), u=u.astype(complex))


def default_dt(L: float) -> float:
    """Default time step 1e-4 (L / 2 pi)^2 for a box of length L."""
    return 1e-4 * (L / (2.0 * math.pi)) ** 2


# --------------------------------------------------------------------------
# right-hand side and time stepping

class Evolver:
    """Holds the grid-derived spectral machinery for one evolution run.

    The spectral state is one complex (3, B, N) array stacking (vhat, Vhat,
    uhat) for a batch of B members.  `to_spectral` reads a FieldState with
    (N,) fields as a batch of one and one with (B, N) fields as a batch of
    B; `to_physical` returns (B, N) fields, which the save-point
    diagnostics take as they are.  Every transform and product acts along
    the last axis, so each member steps exactly as it would alone.  The
    per-wavenumber arrays carry a unit member axis, which a batch of one
    matches without broadcasting.  The linear -i k^2 uhat term is left out
    of the right-hand side and transported exactly by the Lawson factors
    E_half and E_full.

    `step` and `rhs_spectral` work in a workspace that is allocated on
    first use and rebuilt whenever the batch shape changes: k1..k4 and one
    stage buffer with their (v, V, u) row views, and four (B, N) rows for
    the physical fields and their products.  Every transform writes
    through numpy's `out=` (numpy >= 2.0) and every product through a
    ufunc `out=`, with the factors 2 E_half, dt E_half and -ik formed once
    per Evolver, so a step allocates only the array it returns.  That
    array is fresh, so a caller may keep old states; the workspace is
    shared, so an Evolver is not re-entrant (one step or right-hand side
    at a time, from one thread).

    The two inverse transforms of `rhs_spectral` are unscaled
    (`norm="forward"`), which skips numpy's 1/N scaling pass; the 1/N^2
    this leaves on each quadratic product is folded into the dealiasing
    masks, -i/N^2 mask for u v and mask/N^2 for |u|^2.  At power-of-two N
    the scalings are exact, so the right-hand side and the step are
    bitwise those with numpy's scaled ifft.  At other N they round
    differently: at N = 96 and 192 a right-hand side moved at most 2.1e-14
    and ten steps at most 4.1e-17 of the largest entry of each of the v,
    V and u rows.

    Each in-place product keeps the operand order of the expression it
    replaces, `np.multiply(eh, y, out=y)` for `eh * y`: numpy's complex
    multiply need not be bitwise commutative (a SIMD loop that forms the
    imaginary part with a fused multiply-add rounds only one of the two
    cross products, as numpy 2.4's x86-64 loop does), and `y *= eh`
    computes `y * eh`.  With the order kept, a step at power-of-two N is
    bitwise the expression
    `ef*spec + dt/6*(ef*k1 + 2*eh*k2 + 2*eh*k3 + k4)` on fresh arrays.
    """

    def __init__(self, grid: GridSpec, dt: float):
        if not (math.isfinite(dt) and dt > 0.0):
            raise DomainError(f"dt={dt} must be finite and positive")
        self.grid = grid
        self.dt = dt
        self.k = grid.k
        self.ik = 1j * self.k[None]
        self.k2 = self.k**2
        self.mask = grid.dealias_mask.astype(complex)[None]
        # the inverse transforms of the right-hand side are unscaled, so its
        # products are N^2 times those of the fields; the masks divide that
        # back out, and the u v mask also carries the -i of i u_t = u v
        n_sq = float(grid.N) ** 2
        self._uv_mask = (-1j / n_sq) * self.mask
        self._u2_mask = self.mask / n_sq
        # Lawson factors for (v, V, u) over half and whole steps, (3, 1, N)
        ones = np.ones(grid.N)
        self.E_half = np.stack((ones, ones, np.exp(-0.5j * self.k2 * dt)))[:, None]
        self.E_full = self.E_half**2
        # the factors the step's expression would form on every call
        self._two_eh = 2.0 * self.E_half
        self._dt_eh = dt * self.E_half
        self._minus_ik = -self.ik
        self._ws = None

    def _workspace(self, shape: tuple) -> _Workspace:
        if self._ws is None or self._ws.shape != shape:
            self._ws = _Workspace(shape)
        return self._ws

    def to_spectral(self, s: FieldState) -> np.ndarray:
        spec = np.stack((np.fft.fft(s.v), np.fft.fft(s.V), np.fft.fft(s.u)))
        return spec.reshape(3, -1, self.grid.N)

    def to_physical(self, spec: np.ndarray, t: float) -> FieldState:
        v, V, u = np.fft.ifft(spec)
        return FieldState(t=t, v=v.real, V=V.real, u=u)

    def rhs_spectral(self, spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Spectral right-hand side at `spec`, written into `out` (a new
        array if None) and returned; `out` must not overlap `spec`."""
        if out is None:
            out = np.empty_like(spec)
        ws = self._workspace(spec.shape)
        rows = ws.rows
        vhat, Vhat, uhat = rows.get(id(spec)) or spec
        out_v, out_V, out_u = rows.get(id(out)) or out
        u, a, c, p, p_re = ws.u, ws.a, ws.c, ws.p, ws.p_re
        np.fft.ifft(uhat, out=u, norm="forward")
        np.fft.ifft(vhat, out=a, norm="forward")
        # p is (v, 0): the complex operand numpy casts the real v to in u * v
        np.copyto(p_re, ws.a_re)
        np.multiply(u, p, out=c)
        uvhat = np.fft.fft(c, out=a)
        np.multiply(uvhat, self._uv_mask, out=out_u)
        # p is (|u|^2, 0): the complex array fft casts the real |u|^2 to
        np.abs(u, out=p_re)
        np.square(p_re, out=p_re)
        u2hat = np.fft.fft(p, out=c)
        u2hat *= self._u2_mask
        np.add(vhat, u2hat, out=u2hat)
        np.multiply(self._minus_ik, u2hat, out=out_V)
        np.multiply(self._minus_ik, Vhat, out=out_v)
        return out

    def step(self, spec: np.ndarray) -> np.ndarray:
        """One Lawson integrating-factor RK4 step on the spectral state;
        returns a new array."""
        f = self.rhs_spectral
        ws = self._workspace(spec.shape)
        eh, ef = self.E_half, self.E_full
        k1, k2, k3, k4, y = ws.k1, ws.k2, ws.k3, ws.k4, ws.stage
        half_dt = 0.5 * self.dt
        f(spec, out=k1)
        # k2 = f(eh * (spec + dt/2 k1))
        np.multiply(half_dt, k1, out=y)
        np.add(spec, y, out=y)
        np.multiply(eh, y, out=y)
        f(y, out=k2)
        # k3 = f(eh * spec + dt/2 k2)
        np.multiply(eh, spec, out=y)
        np.multiply(half_dt, k2, out=k3)
        np.add(y, k3, out=y)
        f(y, out=k3)
        # k4 = f(ef * spec + dt eh k3)
        new = np.multiply(ef, spec)
        np.multiply(self._dt_eh, k3, out=k4)
        np.add(new, k4, out=y)
        f(y, out=k4)
        # ef * spec + dt/6 (ef k1 + 2 eh k2 + 2 eh k3 + k4)
        np.multiply(ef, k1, out=k1)
        np.multiply(self._two_eh, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(self._two_eh, k3, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(self.dt / 6.0, k1, out=k1)
        np.add(new, k1, out=new)
        return new


class _Workspace:
    """Scratch arrays of an `Evolver` for one (3, B, N) state shape."""

    def __init__(self, shape: tuple):
        self.shape = shape
        self.k1, self.k2, self.k3, self.k4, self.stage = (
            np.empty(shape, dtype=complex) for _ in range(5))
        # the (v, V, u) row views of each of them, by id
        self.rows = {id(a): tuple(a) for a in
                     (self.k1, self.k2, self.k3, self.k4, self.stage)}
        rows = shape[1:]
        self.u, self.a, self.c = (np.empty(rows, dtype=complex) for _ in range(3))
        # only p.real is ever written, so p.imag stays zero
        self.p = np.zeros(rows, dtype=complex)
        self.p_re, self.a_re = self.p.real, self.a.real


# --------------------------------------------------------------------------
# conserved quantities
#
# The save-point diagnostics take fields of shape (N,) or (B, N): every
# transform, product and quadrature acts along the last axis, so row i of
# a batched result is bitwise what the (N,) call on member i returns.

def _modes(f: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Fourier modes of f scaled so that sum |f_n|^2 = integral |f|^2
    (Parseval), written into `out` (a new array if None); then
    <f(.+y), g> = sum f_n conj(g_n) e^{i k_n y}."""
    m = np.fft.fft(f, out=out)
    return np.multiply(m, math.sqrt(grid.L) / grid.N, out=m)


def _invariants_q1_uv(s: FieldState, w: np.ndarray, grid: GridSpec):
    """(ZakInvariants, q1_paper_form) of s, given the Parseval modes w of
    s.u: integral |u_x|^2 = sum k^2 |w|^2 and integral Im(u_x conj u) =
    sum k |w|^2."""
    k, w2 = grid.k, np.abs(w) ** 2
    kw2 = np.sum(k * w2, axis=-1)
    e = np.sum(k * k * w2, axis=-1) + 0.5 * grid.integrate(
        s.v**2 + s.V**2 + 2.0 * s.v * np.abs(s.u) ** 2)
    q1 = grid.integrate(s.v * s.V) + kw2
    q2 = grid.integrate(np.abs(s.u) ** 2)
    return ZakInvariants(E=e, Q1=q1, Q2=q2), grid.integrate(s.u * s.V) + kw2


def invariants(s: FieldState, grid: GridSpec) -> ZakInvariants:
    """E, Q1 (vV form), Q2 by spectral quadrature."""
    return _invariants_q1_uv(s, _modes(s.u, grid), grid)[0]


def q1_paper_form(s: FieldState, grid: GridSpec):
    """The momentum functional with the u V integrand as printed in the
    source formula; complex-valued for generic u and not conserved
    (diagnostic only, see the vV form in `invariants`)."""
    return _invariants_q1_uv(s, _modes(s.u, grid), grid)[1]


def functional_B(s: FieldState, wave: DnoidalWave, grid: GridSpec) -> float:
    """Lyapunov functional B = E - c Q1 - omega Q2."""
    p = wave.params
    inv = invariants(s, grid)
    return inv.E - p.c * inv.Q1 - p.omega * inv.Q2


# --------------------------------------------------------------------------
# modulated distance

class _SaveWorkspace:
    """Scratch arrays of the save diagnostics for R rows of N points.

    Every row is one distance problem: the least ||e^{i theta} e^{iky} M - R||
    over shifts y of the weighted Parseval modes M of a field to those of
    its reference R.  The orbit rows hold the modes of u and of the wave's
    t = 0 sample, both weighted by sqrt((k - c/2)^2 + nu), so their
    distance is rho_nu, and minimize over the phase theta too; the
    acoustic rows of v and V weight by 1 and keep theta = 0.  `modes`
    (R, N) holds M, orbit rows first, and `rows` (R, N) the correlation
    rows M conj(R).
    `_best_shift` searches `rows` in `derivs` (C, C', C'' of each row) and
    `terms` (their products with the phases), each (3, R, N), and returns
    the phases of its shifts in `phases` (R, N); `_pick` then forms each
    row's distance at its shift in `terms`, with its squares in the real
    (R, N) `real`.

    `evolve` builds one workspace for its run and reuses it at every save,
    so a save allocates only transients, none larger than a few of its
    (B, N) fields; `orbital_distance` and `shift_distance` build one per
    call.  The phases `_best_shift` returns are `phases`, so the next save
    overwrites them; the pick returns fresh arrays.

    A numpy 2.4 ufunc whose operands differ in shape or are not contiguous
    allocates iteration buffers of up to the output's size (capped at
    `np.getbufsize()` elements per operand), with or without `out=`, while
    `np.copyto` broadcasts and casts without one.  So each product of the
    search and the pick first spreads its operands over these buffers
    with `copyto` and then multiplies same-shape contiguous arrays, in the
    operand order of the expression it replaces (see `Evolver` on why that
    order matters); every result is bitwise that expression's.
    """

    def __init__(self, grid: GridSpec, n_rows: int):
        self.rows = np.empty((n_rows, grid.N), dtype=complex)
        self.modes = np.empty_like(self.rows)
        self.phases = np.empty_like(self.rows)
        self.real = np.empty(self.rows.shape)
        self.derivs = np.empty((3,) + self.rows.shape, dtype=complex)
        self.terms = np.empty_like(self.derivs)


def _peak(f: np.ndarray):
    """Per row of the (B, N) periodic samples f: the index m of the largest
    sample and the sub-grid offset of the parabola through f[m-1], f[m],
    f[m+1], clipped to [-1/2, 1/2]."""
    m = f.argmax(axis=-1)
    rows = np.arange(len(f))[:, None]
    fm1, f0, fp1 = f[rows, (m[:, None] + (-1, 0, 1)) % f.shape[-1]].T
    denom = fm1 - 2.0 * f0 + fp1
    delta = np.divide(0.5 * (fm1 - fp1), denom, out=np.zeros_like(denom),
                      where=denom != 0.0)
    return m, delta.clip(-0.5, 0.5)


def _phases(ik: np.ndarray, y: np.ndarray, out: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """e^{i k y} for each of the shifts y, one row each, written into
    `out`; `spread` is scratch of the same shape."""
    np.copyto(out, ik)
    np.copyto(spread, y[:, None])
    np.multiply(out, spread, out=out)
    return np.exp(out, out=out)


def _best_shift(g: np.ndarray, grid: GridSpec, ws: _SaveWorkspace):
    """The maximizer of |C(y)|, C(y) = sum g_n e^{i k_n y}, for each row of
    the (R, N) array g: Newton on |C|^2, started from the parabolic vertex
    through the best grid shift and its neighbours.  Returns the (R,)
    shifts and their (R, N) phases e^{i k y}, which are `ws.phases`; `ws`
    must hold R rows.

    Newton runs on every row at once; a row leaves the iteration where a
    lone run would break (non-negative curvature, a step longer than dx,
    or convergence), and none takes more than 8 steps.
    """
    k = grid.k
    dx = grid.L / grid.N
    tol = 1e-14 * max(1.0, grid.L)
    # at the grid shifts y = j dx, C is N ifft(g); the scale leaves the
    # peak and the vertex unchanged.  The transform waits in the phases,
    # which overwrite it.
    m, delta = _peak(np.abs(np.fft.ifft(g, out=ws.phases)))
    y = (m + delta) * dx
    ik = 1j * k
    derivs, terms = ws.derivs, ws.terms
    # C, C', C'' share e^{iky}: the rows g, ik g and -k^2 g
    np.copyto(derivs[0], g)
    np.copyto(derivs[1], ik)
    np.multiply(derivs[1], g, out=derivs[1])
    np.copyto(derivs[2], -k * k)
    np.multiply(derivs[2], g, out=derivs[2])
    active = np.ones(y.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            np.copyto(terms, _phases(ik, y, ws.phases, terms[0]))
            C, Cp, Cpp = np.multiply(derivs, terms, out=terms).sum(axis=-1)
            Cc = C.conj()
            # curv is half the curvature of |C|^2, and y - step the Newton update
            curv = np.abs(Cp) ** 2 + (Cc * Cpp).real
            step = (Cc * Cp).real / curv
            size = np.abs(step)
            active &= (curv < 0.0) & (size <= dx)
            np.subtract(y, step, out=y, where=active)
            active &= size >= tol
            if not active.any():
                break
    return y, _phases(ik, y, ws.phases, terms[0])


def _pick(ref: np.ndarray, n_orbit: int, y: np.ndarray, e: np.ndarray, grid: GridSpec,
          ws: _SaveWorkspace):
    """(distance, shift, theta) per row of `ws.modes` M to its row of the
    (R, N) reference modes `ref`: ||e^{i theta} e^{iky} M - ref|| at the
    (R,) shifts y with phases e, the shifts wrapped to [0, L).  The first
    n_orbit rows take the closed-form optimal phase theta*(y) = -arg G(y),
    G(y) = sum g e^{iky} over their correlation rows g in `ws.rows`; the
    others keep theta = 0.  The phases e are rotated in place."""
    d, operand, d_re = ws.terms[0], ws.terms[1], ws.real
    # G is formed on every row in one product; only the orbit rows read it
    np.copyto(d, ws.rows)
    G = np.multiply(d, e, out=d).sum(axis=-1)
    theta = np.mod(-np.angle(G), 2.0 * math.pi)
    theta[n_orbit:] = 0.0
    np.copyto(d, np.exp(1j * theta)[:, None])
    np.multiply(d, e, out=e)
    # direct evaluation: well conditioned when the distance is tiny, unlike
    # the expanded |M|^2 + |ref|^2 - 2|G| form
    np.copyto(d, ws.modes)
    np.multiply(e, d, out=d)
    np.copyto(operand, ref)
    np.subtract(d, operand, out=d)
    np.abs(d, out=d_re)
    np.square(d_re, out=d_re)
    # np.mod rounds a y just below 0 up to L itself
    y = np.mod(y, grid.L)
    y[y == grid.L] = 0.0
    return np.sqrt(d_re.sum(axis=-1)), y, theta


def _distances(ref: np.ndarray, ref_conj: np.ndarray, n_orbit: int, grid: GridSpec,
               ws: _SaveWorkspace):
    """`_pick` on every row of `ws.modes` at once: the correlation rows
    M conj(ref) and one shift search over all of them."""
    rows = np.multiply(ws.modes, ref_conj, out=ws.rows)
    # the real correlation C(y) of an acoustic row is at least -sum |g_n|,
    # so after this offset its largest |C| is its largest C, not an
    # anti-correlation
    acoustic = rows[n_orbit:]
    acoustic[:, 0] += np.abs(acoustic).sum(axis=-1)
    return _pick(ref, n_orbit, *_best_shift(rows, grid, ws), grid, ws)


def _per_member(ndim: int, *values: np.ndarray):
    """The (B,) results as they are for a batch, row 0 of each for one field."""
    return values if ndim > 1 else tuple(v[0] for v in values)


def _orbit_weight(wave: DnoidalWave, grid: GridSpec) -> np.ndarray:
    """The weight sqrt((k - c/2)^2 + nu) of the orbit rows.  The H^1_nu
    norm ||f'||^2 + nu ||f||^2 is diagonal on Fourier modes with weight
    k^2 + nu, so on the modes of u this weight reads the norm of the
    carrier-free field f = e^{-icx/2} u."""
    p = wave.params
    return np.sqrt((grid.k - 0.5 * p.c) ** 2 + p.nu)


def _orbit_phase(theta: np.ndarray, y: np.ndarray, c: float, t: float, L: float) -> np.ndarray:
    """theta* from the phase theta that the shift y gives u's own modes:
    theta + c y~/2 - c^2 t/2 mod 2 pi, with y~ the representative of y
    nearest c t.  It is the phase of the profile in the traveling gauge,
    u ~ e^{-i theta*} e^{ic(x - ct)/2} phi(x - y*) with the carrier's seam
    at the antipode of x = c t; for carrier-periodic waves (c L a
    multiple of 4 pi) the representative changes nothing."""
    y_near = y - L * np.round((y - c * t) / L)
    return np.mod(theta + 0.5 * c * y_near - 0.5 * c * c * t, 2.0 * math.pi)


def orbital_distance(u: np.ndarray, wave: DnoidalWave, grid: GridSpec, t: float = 0.0):
    """nu-weighted modulated distance of u to the wave orbit, with c and nu
    read from the wave (dnoidal or solitary).

    rho_nu is the H^1_nu distance of e^{-icx/2} u to the profile phi's
    orbit under translations y and phases theta.  It is read on the
    Parseval modes of u and of the wave's t = 0 sample u0 =
    `wave_state(wave, grid).u`, both weighted by sqrt((k - c/2)^2 + nu)
    (`_orbit_weight`), so no carrier is divided out of either field.
    Correlates the weighted modes once, takes the closed-form optimal
    phase -arg G(y), and refines the best shift to sub-grid accuracy
    (parabolic vertex, then Newton); `_orbit_phase` turns that phase into
    theta_star, and is the only place t enters.  Returns (rho, y_star,
    theta_star): floats for a (N,) field, (B,) arrays for a (B, N) batch
    of fields.
    """
    rows = np.atleast_2d(u)
    weight = _orbit_weight(wave, grid)
    ref = np.array(np.broadcast_to(weight * _modes(wave_state(wave, grid).u, grid), rows.shape))
    ws = _SaveWorkspace(grid, len(rows))
    np.multiply(weight, _modes(rows, grid, out=ws.modes), out=ws.modes)
    rho, y, theta = _distances(ref, np.conj(ref), len(rows), grid, ws)
    return _per_member(np.ndim(u), rho, y, _orbit_phase(theta, y, wave.params.c, t, grid.L))


def shift_distance(f: np.ndarray, g: np.ndarray, grid: GridSpec):
    """(min_y ||f(.+y) - g||_L2, argmin y) for real periodic samples f of
    shape (N,) (floats) or (B, N) ((B,) arrays), and g of shape (N,) or
    one reference row per row of f."""
    rows = np.atleast_2d(f)
    ws = _SaveWorkspace(grid, len(rows))
    _modes(rows, grid, out=ws.modes)
    ref = np.array(np.broadcast_to(_modes(g, grid), rows.shape))
    dist, y, _ = _distances(ref, np.conj(ref), 0, grid, ws)
    return _per_member(np.ndim(f), dist, y)


def distance_at_shift(f: np.ndarray, g: np.ndarray, y: float, grid: GridSpec) -> float:
    """||f(.+y) - g||_L2 for (N,) samples."""
    d = np.exp(1j * grid.k * y) * _modes(f, grid) - _modes(g, grid)
    return math.sqrt(np.sum(np.abs(d) ** 2))


# --------------------------------------------------------------------------
# experiments

@dataclass
class ExperimentRecord:
    """Time series of conserved quantities and modulation diagnostics."""

    metadata: dict
    times: np.ndarray
    E: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    B: np.ndarray
    rho_nu: np.ndarray
    y_star: np.ndarray
    theta_star: np.ndarray
    dist_v: np.ndarray
    dist_V: np.ndarray
    q1_uv_real: np.ndarray
    q1_uv_imag: np.ndarray

    def delta_B(self) -> np.ndarray:
        return self.B - self.metadata["B_wave"]

    def to_csv(self, path) -> None:
        write_csv(path, ("t",) + _CSV_SERIES[1:],
                  zip(*(getattr(self, name) for name in _CSV_SERIES)))

    def to_json(self, path) -> None:
        write_json(path, {"metadata": self.metadata}
                   | {name: [float(x) for x in getattr(self, name)] for name in _SERIES})


# Recorded time series in field order; the CSV holds the first ten, with
# "times" written as "t".
_SERIES = tuple(f.name for f in fields(ExperimentRecord))[1:]
_CSV_SERIES = _SERIES[:10]


def band_limited_perturbation(rng: np.random.Generator, grid: GridSpec, n_max: int,
                              complex_field: bool = False,
                              zero_mean: bool = False) -> np.ndarray:
    """Seeded random field with Fourier support |n| <= n_max (unnormalized),
    0 <= n_max < N/2: a wider support would fold onto the Nyquist mode."""
    N = grid.N
    if not 0 <= n_max < N // 2:
        raise DomainError(f"n_max={n_max} outside [0, N/2) for N={N}")
    chat = np.zeros(N, dtype=complex)
    if complex_field:
        # one (re, im) pair per mode n = -n_max .. n_max, drawn in that order
        pairs = rng.standard_normal((2 * n_max + 1, 2))
        chat[np.arange(-n_max, n_max + 1) % N] = pairs[:, 0] + 1j * pairs[:, 1]
        return np.fft.ifft(chat)
    if not zero_mean:
        chat[0] = rng.standard_normal()
    # one (re, im) pair per mode n = 1 .. n_max; mode -n is its conjugate
    pairs = rng.standard_normal((n_max, 2))
    n = np.arange(1, n_max + 1)
    chat[n] = pairs[:, 0] + 1j * pairs[:, 1]
    chat[-n] = np.conj(chat[n])
    return np.fft.ifft(chat).real


def _l2(f, grid) -> float:
    return math.sqrt(abs(grid.integrate(np.abs(f) ** 2)))


def _h1nu(f, grid, nu) -> float:
    df = np.fft.ifft(1j * grid.k * np.fft.fft(f))
    return math.sqrt(abs(grid.integrate(np.abs(df) ** 2)) + nu * abs(grid.integrate(np.abs(f) ** 2)))


def _sup(s: FieldState) -> np.ndarray:
    """Per-member sup norm of (v, V, u) over (B, N) fields; NaN if any
    sample is NaN."""
    return np.max([np.max(np.abs(f), axis=-1) for f in (s.v, s.V, s.u)], axis=0)


def evolve(states0: Sequence[FieldState], wave: DnoidalWave, grid: GridSpec, dt: float,
           t_end: float, metadata: Sequence[dict] | None = None) -> list[ExperimentRecord]:
    """Run the system from each initial state and record diagnostics
    against `wave`; returns one record per state, in order.

    The run takes n_steps = round(t_end / dt) steps and saves the initial
    state, every max(1, n_steps // 200)-th step and the last step, about
    200 rows.  A t_end > 0 that rounds to no step is a DomainError.  The
    rounding can miss t_end (dt = 3.2e-3 stops at 4.9984 for t_end = 5), so
    each record's metadata holds n_steps and t_final = t0 + n_steps dt,
    bitwise its last `times` entry, beside the t_end asked for.

    The members share the wave, grid, dt, t_end and start time, and step
    together as one (3, B, N) spectral state.  Each save works on the
    (B, N) fields of the whole batch in 3 transforms: the stacked inverse
    transform of the state, one transform of u, v and V stacked, and the
    correlation inverse transform of one shift search over all 3B rows.
    The u rows of the forward transform give E, Q1, Q2 and q1_uv and are
    then weighted in place into the B orbit rows of `orbital_distance`;
    the v and V rows are the 2B acoustic rows of `shift_distance`.  Each
    row is one distance problem on weighted Parseval modes (see
    `_SaveWorkspace`), so one correlation step, one Newton search for one
    shift per row and one evaluation of each row's distance at its shift
    serve all rows, in one `_SaveWorkspace` built per run, and a save
    allocates none of their arrays.  A run transforms its references 2
    times: functional_B's u, and u, psi and varphi stacked.
    The save's values, keyed by series name, form one (n_series, B) row in
    `_SERIES` order; the rows stack into one (n_saves, B) array per series
    after the last step, and record i holds column i.  Steps and
    diagnostics act row by row, so a member's record is bitwise the one it
    gets in a batch of one, and each series is bitwise what `invariants`,
    `q1_paper_form`, `orbital_distance` and `shift_distance` return on the
    saved state.  `metadata[i]` seeds the metadata of record i.  Blow-up
    is judged per member, against that member's initial sup norm, and
    names the first failing member.

    A dnoidal wave is a DomainError unless grid.L is a whole number of its
    periods L (grid.L/L an integer >= 1 to 1e-9) and its carrier e^(icx/2)
    is grid.L-periodic: otherwise its sampled profile or u jumps at the
    wrap, so the run would not start from a solution.  The solitary wave
    (L = inf) runs on any box.
    """
    c, omega, nu = wave.params.c, wave.params.omega, wave.params.nu
    if math.isfinite(wave.params.L):
        periods = grid.L / wave.params.L
        if abs(periods - round(periods)) > 1e-9 or round(periods) == 0:
            raise DomainError(f"cannot evolve: grid.L/L={periods:.6g} is not a whole "
                              "number of wave periods: the profile is not grid.L-periodic")
        if mismatch := _carrier_mismatch(c, grid.L):
            raise DomainError(f"cannot evolve: {mismatch}")
    ev = Evolver(grid, dt)
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise DomainError(f"t_end={t_end} must be finite and non-negative")
    n_members = len(states0)
    metadata = [{}] * n_members if metadata is None else list(metadata)
    if n_members == 0:
        raise DomainError("evolve needs at least one initial state")
    if len(metadata) != n_members:
        raise DomainError(f"{len(metadata)} metadata dicts for {n_members} initial states")
    t0 = states0[0].t
    if any(s.t != t0 for s in states0):
        raise DomainError("batch members must start at the same time")
    n_steps = int(round(t_end / dt))
    if n_steps == 0 and t_end > 0.0:
        raise DomainError(f"dt={dt} takes no step to t_end={t_end}: "
                          f"round(t_end/dt) = 0, so dt must be below 2 t_end")
    save_stride = max(1, n_steps // 200)
    batch0 = FieldState(t0, np.stack([s.v for s in states0]),
                        np.stack([s.V for s in states0]), np.stack([s.u for s in states0]))
    spec = ev.to_spectral(batch0)
    sup0 = np.maximum(_sup(batch0), 1e-30)

    ref = wave_state(wave, grid, t=0.0)
    b_wave = functional_B(ref, wave, grid)
    # reference modes, transformed once for every save of every member:
    # the weighted modes of u0 for the orbit rows 0..B-1, and psi's and
    # varphi's for the acoustic rows B..2B-1 (v) and 2B..3B-1 (V)
    weight = _orbit_weight(wave, grid)
    ref_m = _modes(np.stack((ref.u, ref.v, ref.V)), grid)
    ref_m[0] = weight * ref_m[0]
    refs = np.repeat(ref_m, n_members, axis=0)
    refs_conj = np.conj(refs)
    ws = _SaveWorkspace(grid, 3 * n_members)
    orbit_m, spread = ws.modes[:n_members], ws.rows[:n_members]

    # one row per save: the initial state, every save_stride-th step and the last step
    rows = []

    def record(s):
        _modes(np.concatenate((s.u, s.v, s.V)), grid, out=ws.modes)
        inv, q1p = _invariants_q1_uv(s, orbit_m, grid)
        # weight the u rows into the orbit rows; `_distances` overwrites `spread`
        np.copyto(spread, weight)
        np.multiply(spread, orbit_m, out=orbit_m)
        dist, y_star, th = _distances(refs, refs_conj, n_members, grid, ws)
        y_star = y_star[:n_members]
        row = dict(times=np.full(n_members, s.t), E=inv.E, Q1=inv.Q1, Q2=inv.Q2,
                   B=inv.E - c * inv.Q1 - omega * inv.Q2, rho_nu=dist[:n_members],
                   y_star=y_star, theta_star=_orbit_phase(th[:n_members], y_star, c, s.t, grid.L),
                   dist_v=dist[n_members:2 * n_members], dist_V=dist[2 * n_members:],
                   q1_uv_real=q1p.real, q1_uv_imag=q1p.imag)
        rows.append(np.stack([row[name] for name in _SERIES]))

    record(ev.to_physical(spec, t0))
    for step in range(1, n_steps + 1):
        spec = ev.step(spec)
        t = t0 + step * dt
        if step % 50 == 0:
            finite = np.all(np.isfinite(spec[2]), axis=-1)
            if not np.all(finite):
                raise BlowUpError(t, member=int(np.argmin(finite)))
        if step % save_stride == 0 or step == n_steps:
            saved = ev.to_physical(spec, t)
            sup = _sup(saved)
            blown = ~np.isfinite(sup) | (sup > 1e6 * sup0)
            if blown.any():
                raise BlowUpError(t, member=int(np.argmax(blown)))
            record(saved)
    series = dict(zip(_SERIES, np.stack(rows, axis=1)))

    common = {"L": grid.L, "N": grid.N, "dt": dt, "t_end": t_end,
              "n_steps": n_steps, "t_final": t0 + n_steps * dt,
              "c": c, "omega": omega, "nu": nu, "B_wave": b_wave}
    return [ExperimentRecord(metadata={**meta, **common},
                             **{name: vals[:, i] for name, vals in series.items()})
            for i, meta in enumerate(metadata)]


def _perturbed_initial_state(wave: DnoidalWave, grid: GridSpec, delta: float, seed: int,
                             respect_mean_condition: bool,
                             renormalize_q2: bool) -> FieldState:
    if not math.isfinite(delta):
        raise DomainError(f"delta={delta} must be finite")
    base = wave_state(wave, grid, t=0.0)
    if delta == 0.0:
        return base
    rng = np.random.default_rng(seed)
    n_max = max(1, grid.N // 8)

    pert_v = band_limited_perturbation(rng, grid, n_max)
    pert_V = band_limited_perturbation(rng, grid, n_max, zero_mean=True)
    pert_u = band_limited_perturbation(rng, grid, n_max, complex_field=True)

    scale_v = _l2(base.v, grid) or 1.0
    scale_V = _l2(base.V, grid) or scale_v
    pert_v *= delta * scale_v / _l2(pert_v, grid)
    pert_V *= delta * scale_V / _l2(pert_V, grid)
    nu = wave.params.nu
    pert_u *= delta * _h1nu(base.u, grid, nu) / _h1nu(pert_u, grid, nu)

    if respect_mean_condition:
        mean = float(np.mean(pert_v))
        if mean > 0.0:
            pert_v -= mean

    u0 = base.u + pert_u
    if renormalize_q2:
        u0 *= _l2(base.u, grid) / _l2(u0, grid)
    return FieldState(t=0.0, v=base.v + pert_v, V=base.V + pert_V, u=u0)


def stability_experiment(w: DnoidalWave, delta: float | Sequence[float], t_end: float,
                         dt: float | None = None, seed: int = 0,
                         respect_mean_condition: bool = True,
                         N: int = 256, renormalize_q2: bool = False
                         ) -> ExperimentRecord | list[ExperimentRecord]:
    """Seeded perturbed evolution around a dnoidal wave, saved on the
    schedule of `evolve`.

    A float `delta` gives one ExperimentRecord.  A sequence of deltas gives
    a list with one record per delta, in order, from one batched `evolve`;
    each record equals the one a float call with that delta returns.
    """
    grid = GridSpec(L=w.params.L, N=N)
    if dt is None:
        dt = default_dt(w.params.L)
    deltas = [delta] if np.ndim(delta) == 0 else list(delta)
    states0 = [_perturbed_initial_state(w, grid, d, seed, respect_mean_condition,
                                        renormalize_q2) for d in deltas]
    metas = [{"kind": "dnoidal", "delta": d, "seed": seed,
              "respect_mean_condition": respect_mean_condition,
              "renormalize_q2": renormalize_q2,
              "wave": {"L": w.params.L, "c": w.params.c, "nu": w.params.nu}}
             for d in deltas]
    records = evolve(states0, w, grid, dt, t_end, metadata=metas)
    return records[0] if np.ndim(delta) == 0 else records


def solitary_experiment(omega: float, c: float, box_factor: float = 80.0,
                        delta: float = 0.0, t_end: float = 10.0,
                        dt: float | None = None, seed: int = 0, N: int = 1024
                        ) -> ExperimentRecord:
    """Solitary-wave run on the torus L = box_factor / sqrt(-4 omega - c^2),
    whose wrap x = L/2 lies box_factor / 4 decay lengths from the peak.

    At box_factor >= 80 the acoustic profiles psi and varphi (sech^2
    tails) are below 1e-14 at the wrap.  The envelope is not: phi(L/2) =
    eta1 sech(box_factor / 4), 4.9e-9 at 80, and the carrier e^{icx/2}
    also jumps there unless c L / (4 pi) is an integer.  So the sampled u
    is not a periodic solution, and even the unperturbed run leaves its
    orbit slowly: rho_nu reads about 7e-8 by t = 0.2 at N = 1024.  rho_nu
    reads u's own modes (see `orbital_distance`), so the carrier's jump
    is not put into the measured perturbation.
    """
    if not box_factor >= 80.0:
        raise DomainError("box_factor must be >= 80 so the wrapped tails of psi and varphi "
                          "stay < 1e-14 (phi's is eta1 sech(box_factor/4), 4.9e-9 at 80)")
    if not math.isfinite(box_factor):
        raise DomainError(f"box_factor={box_factor} must be finite")
    sw = solitary_wave(omega, c)
    L = box_factor / math.sqrt(-4.0 * omega - c * c)
    grid = GridSpec(L=L, N=N)
    if dt is None:
        dt = default_dt(L)
    state0 = _perturbed_initial_state(sw, grid, delta, seed,
                                      respect_mean_condition=False,
                                      renormalize_q2=False)
    meta = {"kind": "solitary", "delta": delta, "seed": seed,
            "box_factor": box_factor, "wave": {"omega": omega, "c": c}}
    return evolve([state0], sw, grid, dt, t_end, metadata=[meta])[0]

"""Conservative pseudo-spectral evolution of the first-order Zakharov system

    v_t = -V_x,   V_t = -(v + |u|^2)_x,   i u_t + u_xx = u v

on a periodic grid, plus the modulated-distance machinery used by the
orbital-stability experiments.  Derivatives are spectral, quadratic
products are 2/3-dealiased, and time stepping is Lawson integrating-factor
RK4: the stiff linear i u_xx term is transported exactly in Fourier space.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import BlowUpError, DomainError
from .wavefamily import DnoidalWave, solitary_wave

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
    "stationarity_check",
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
        if self.N % 2 != 0 or self.N < 64:
            raise DomainError(f"grid N={self.N} must be even and >= 64")

    @property
    def xs(self) -> np.ndarray:
        return np.arange(self.N) * self.L / self.N

    @property
    def k(self) -> np.ndarray:
        """Spectral wavenumbers in fft ordering."""
        return 2.0 * math.pi * np.fft.fftfreq(self.N, d=1.0 / self.N) / self.L

    @property
    def dealias_mask(self) -> np.ndarray:
        n = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
        return n <= self.N / 3.0

    def integrate(self, f) -> float | complex:
        """Spectral quadrature, exact for trigonometric polynomials."""
        total = np.sum(f) * self.L / self.N
        return complex(total) if np.iscomplexobj(f) else float(total)


@dataclass
class FieldState:
    """Sampled (v, V, u) triple at time t; v, V real, u complex, V mean-zero."""

    t: float
    v: np.ndarray
    V: np.ndarray
    u: np.ndarray

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.v.copy(), self.V.copy(), self.u.copy())


@dataclass(frozen=True)
class ZakInvariants:
    E: float
    Q1: float
    Q2: float


def _wave_scalars(wave):
    """(c, omega, nu) for either wave flavor."""
    if isinstance(wave, DnoidalWave):
        p = wave.params
        return p.c, p.omega, p.nu
    return wave.c, wave.omega, wave.nu


def _wrapped(grid: GridSpec, shift: float = 0.0) -> np.ndarray:
    """Comoving coordinate x - shift wrapped to [-L/2, L/2)."""
    return np.mod(grid.xs - shift + 0.5 * grid.L, grid.L) - 0.5 * grid.L


def wave_state(wave, grid: GridSpec, t: float = 0.0) -> FieldState:
    """Exact traveling-wave state sampled on the grid at time t."""
    c, omega, _ = _wave_scalars(wave)
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
    B; `to_physical` returns (B, N) fields.  Every transform and product
    acts along the last axis, so each member steps exactly as it would
    alone.  The per-wavenumber arrays carry a unit member axis, which a
    batch of one matches without broadcasting.  The linear -i k^2 uhat
    term is left out of the right-hand side and transported exactly by the
    Lawson factors E_half and E_full.
    """

    def __init__(self, grid: GridSpec, dt: float):
        if not (math.isfinite(dt) and dt > 0.0):
            raise DomainError(f"dt={dt} must be finite and positive")
        self.grid = grid
        self.dt = dt
        self.k = grid.k
        self.ik = 1j * self.k[None]
        self.k2 = self.k**2
        # complex, so that the in-place masking needs no cast from bool
        self.mask = grid.dealias_mask.astype(complex)[None]
        # Lawson factors for (v, V, u) over half and whole steps, (3, 1, N)
        ones = np.ones(grid.N)
        self.E_half = np.stack((ones, ones, np.exp(-0.5j * self.k2 * dt)))[:, None]
        self.E_full = self.E_half**2

    def to_spectral(self, s: FieldState) -> np.ndarray:
        spec = np.stack((np.fft.fft(s.v), np.fft.fft(s.V), np.fft.fft(s.u)))
        return spec.reshape(3, -1, self.grid.N)

    def to_physical(self, spec: np.ndarray, t: float) -> FieldState:
        return FieldState(t=t, v=np.fft.ifft(spec[0]).real, V=np.fft.ifft(spec[1]).real,
                          u=np.fft.ifft(spec[2]))

    def rhs_spectral(self, spec: np.ndarray) -> np.ndarray:
        vhat, Vhat, uhat = spec
        v = np.fft.ifft(vhat).real
        u = np.fft.ifft(uhat)
        u2hat = np.fft.fft(np.abs(u) ** 2)
        u2hat *= self.mask
        uvhat = np.fft.fft(u * v)
        uvhat *= self.mask
        d = np.empty_like(spec)
        d[0] = -self.ik * Vhat
        d[1] = -self.ik * (vhat + u2hat)
        d[2] = -1j * uvhat
        return d

    def step(self, spec: np.ndarray) -> np.ndarray:
        """One Lawson integrating-factor RK4 step on the spectral state."""
        dt, eh, ef, f = self.dt, self.E_half, self.E_full, self.rhs_spectral
        k1 = f(spec)
        k2 = f(eh * (spec + 0.5 * dt * k1))
        k3 = f(eh * spec + 0.5 * dt * k2)
        k4 = f(ef * spec + dt * eh * k3)
        return ef * spec + dt / 6.0 * (ef * k1 + 2.0 * eh * k2 + 2.0 * eh * k3 + k4)


# --------------------------------------------------------------------------
# conserved quantities

def invariants(s: FieldState, grid: GridSpec) -> ZakInvariants:
    """E, Q1 (vV form), Q2 by spectral quadrature."""
    ux = np.fft.ifft(1j * grid.k * np.fft.fft(s.u))
    e = 0.5 * grid.integrate(
        2.0 * np.abs(ux) ** 2 + s.v**2 + s.V**2 + 2.0 * s.v * np.abs(s.u) ** 2
    )
    q1 = grid.integrate(s.v * s.V + (ux * np.conj(s.u)).imag)
    q2 = grid.integrate(np.abs(s.u) ** 2)
    return ZakInvariants(E=float(e), Q1=float(q1), Q2=float(q2))


def q1_paper_form(s: FieldState, grid: GridSpec) -> complex:
    """The momentum functional with the u V integrand as printed in the
    source formula; complex-valued for generic u and not conserved
    (diagnostic only, see the vV form in `invariants`)."""
    ux = np.fft.ifft(1j * grid.k * np.fft.fft(s.u))
    return grid.integrate(s.u * s.V + (ux * np.conj(s.u)).imag)


def functional_B(s: FieldState, wave, grid: GridSpec) -> float:
    """Lyapunov functional B = E - c Q1 - omega Q2."""
    c, omega, _ = _wave_scalars(wave)
    inv = invariants(s, grid)
    return inv.E - c * inv.Q1 - omega * inv.Q2


# --------------------------------------------------------------------------
# modulated distance

def _modes(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Fourier modes of f scaled so that sum |f_n|^2 = integral |f|^2
    (Parseval); then <f(.+y), g> = sum f_n conj(g_n) e^{i k_n y}."""
    return np.fft.fft(f) * (math.sqrt(grid.L) / grid.N)


def _distance_sq(fm: np.ndarray, gm: np.ndarray, phase: np.ndarray) -> float:
    """||f(.+y) - g||^2 = sum |phase f_n - g_n|^2 with phase = e^{i k_n y}
    (times any constant phase), summed over stacked rows as well."""
    return float(np.sum(np.abs(phase * fm - gm) ** 2))


def _peak(f: np.ndarray):
    """Index m of the largest sample of periodic f and the sub-grid offset
    of the parabola through f[m-1], f[m], f[m+1], clipped to [-1/2, 1/2]."""
    m = int(np.argmax(f))
    fm1, f0, fp1 = f[m - 1], f[m], f[(m + 1) % f.size]
    denom = fm1 - 2.0 * f0 + fp1
    delta = 0.5 * (fm1 - fp1) / denom if denom != 0.0 else 0.0
    return m, float(np.clip(delta, -0.5, 0.5))


def _best_shift(g: np.ndarray, k: np.ndarray, grid: GridSpec):
    """Candidate maximizers of |C(y)|, C(y) = sum g_n e^{i k_n y}: the best
    grid shift, the parabolic vertex through its neighbours, and Newton on
    |C|^2 started from the vertex."""
    dx = grid.L / grid.N
    # at the grid shifts y = j dx, C is N ifft(g); the scale leaves the
    # peak and the vertex unchanged
    m, delta = _peak(np.abs(np.fft.ifft(g)))
    y = (m + delta) * dx
    derivs = np.stack((g, 1j * k * g, -k * k * g))  # C, C', C'' share e^{iky}
    for _ in range(8):
        C, Cp, Cpp = derivs @ np.exp(1j * k * y)
        slope = 2.0 * (np.conj(C) * Cp).real
        curv = 2.0 * (abs(Cp) ** 2 + (np.conj(C) * Cpp).real)
        if curv >= 0.0:
            break
        step = -slope / curv
        if abs(step) > dx:
            break
        y += step
        if abs(step) < 1e-14 * max(1.0, grid.L):
            break
    return m * dx, (m + delta) * dx, y


def _orbit_modes(u: np.ndarray, wave, nu: float, grid: GridSpec, t: float):
    """Stacked modes a = (w', sqrt(nu) w) of the gauged field and
    b = (phi', sqrt(nu) phi) of the profile, and the product g = sum a conj(b)
    with G(y) = sum g e^{iky} = <w'(.+y), phi'> + nu <w(.+y), phi>.

    The profile is sampled on the coordinate wrapped to [-L/2, L/2), so
    non-periodic solitary tails are centered rather than truncated."""
    c, _, _ = _wave_scalars(wave)
    # the gauge's phase seam tracks the antipode of x = c t instead of
    # cutting through the profile; for carrier-periodic waves (c L multiple
    # of 4 pi) the wrap changes nothing
    w = _modes(np.exp(-0.5j * c * _wrapped(grid, c * t)) * u, grid)
    xi = _wrapped(grid)
    r = math.sqrt(nu)
    a = np.stack((1j * grid.k * w, r * w))
    b = np.stack((_modes(wave.phi_prime(xi), grid), r * _modes(wave.phi(xi), grid)))
    return a, b, np.sum(a * np.conj(b), axis=0)


def orbital_distance(u: np.ndarray, wave, nu: float, grid: GridSpec, t: float = 0.0):
    """nu-weighted modulated distance of u to the wave orbit.

    Applies the traveling gauge, correlates the Fourier modes of field and
    profile once, takes the closed-form optimal phase theta*(y) = -arg G(y),
    and refines the best shift to sub-grid accuracy (parabolic vertex, then
    Newton).  Returns (rho, y_star, theta_star).
    """
    a, b, g = _orbit_modes(u, wave, nu, grid, t)
    k = grid.k
    best = None
    for y in _best_shift(g, k, grid):
        e = np.exp(1j * k * y)
        theta = float(-np.angle(g @ e)) % (2.0 * math.pi)
        # direct evaluation of Omega: well conditioned when the distance is
        # tiny, unlike the expanded const - 2|G| form
        omega_val = _distance_sq(a, b, np.exp(1j * theta) * e)
        if best is None or omega_val < best[0]:
            best = (omega_val, y % grid.L, theta)
    return math.sqrt(best[0]), best[1], best[2]


def stationarity_check(u: np.ndarray, wave, nu: float, y_star: float,
                       theta_star: float, grid: GridSpec, t: float = 0.0):
    """Gradient of Omega with respect to (y, theta) at the reported minimizer."""
    _, _, g = _orbit_modes(u, wave, nu, grid, t)
    k = grid.k
    # e^{i theta} G(y) and e^{i theta} G'(y)
    e = np.exp(1j * (theta_star + k * y_star))
    d_y = -2.0 * np.sum(1j * k * g * e).real
    d_theta = 2.0 * np.sum(g * e).imag
    return float(d_y), float(d_theta)


def shift_distance(f: np.ndarray, g: np.ndarray, grid: GridSpec):
    """(min_y ||f(.+y) - g||_L2, argmin y) for real periodic samples."""
    fm, gm = _modes(f, grid), _modes(g, grid)
    k = grid.k
    corr = fm * np.conj(gm)
    # the real correlation C(y) is at least -||f|| ||g||, so after this
    # offset the largest |C| is the largest C, not an anti-correlation
    corr[0] += np.linalg.norm(fm) * np.linalg.norm(gm)
    best = min(((_distance_sq(fm, gm, np.exp(1j * k * y)), y % grid.L)
                for y in _best_shift(corr, k, grid)), key=lambda c: c[0])
    return math.sqrt(best[0]), best[1]


def distance_at_shift(f: np.ndarray, g: np.ndarray, y: float, grid: GridSpec) -> float:
    return math.sqrt(_distance_sq(_modes(f, grid), _modes(g, grid),
                                  np.exp(1j * grid.k * y)))


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
    dist_v_at_ystar: np.ndarray
    dist_V_at_ystar: np.ndarray
    q1_uv_real: np.ndarray
    q1_uv_imag: np.ndarray

    def delta_B(self) -> np.ndarray:
        return self.B - self.metadata["B_wave"]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("t",) + _CSV_SERIES[1:])
            for row in zip(*(getattr(self, name) for name in _CSV_SERIES)):
                writer.writerow([f"{val:.17g}" for val in row])

    def to_json(self, path) -> None:
        payload = {"metadata": self.metadata}
        for name in _SERIES:
            payload[name] = [float(x) for x in getattr(self, name)]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


# Recorded time series in field order; the CSV holds the first ten, with
# "times" written as "t".
_SERIES = tuple(f.name for f in fields(ExperimentRecord))[1:]
_CSV_SERIES = _SERIES[:10]


def band_limited_perturbation(rng: np.random.Generator, grid: GridSpec, n_max: int,
                              complex_field: bool = False,
                              zero_mean: bool = False) -> np.ndarray:
    """Seeded random field with Fourier support |n| <= n_max (unnormalized)."""
    N = grid.N
    if complex_field:
        chat = np.zeros(N, dtype=complex)
        for n in range(-n_max, n_max + 1):
            chat[n % N] = rng.standard_normal() + 1j * rng.standard_normal()
        return np.fft.ifft(chat)
    chat = np.zeros(N, dtype=complex)
    if not zero_mean:
        chat[0] = rng.standard_normal()
    for n in range(1, n_max + 1):
        coef = rng.standard_normal() + 1j * rng.standard_normal()
        chat[n] = coef
        chat[-n] = np.conj(coef)
    return np.fft.ifft(chat).real


def _l2(f, grid) -> float:
    return math.sqrt(abs(grid.integrate(np.abs(f) ** 2)))


def _h1nu(f, grid, nu) -> float:
    df = np.fft.ifft(1j * grid.k * np.fft.fft(f))
    return math.sqrt(abs(grid.integrate(np.abs(df) ** 2)) + nu * abs(grid.integrate(np.abs(f) ** 2)))


def _sup(s: FieldState) -> float:
    return max(np.max(np.abs(s.v)), np.max(np.abs(s.V)), np.max(np.abs(s.u)))


def evolve(states0: Sequence[FieldState], wave, grid: GridSpec, dt: float,
           t_end: float, save_every: int | None = None,
           metadata: Sequence[dict] | None = None) -> list[ExperimentRecord]:
    """Run the system from each initial state and record diagnostics
    against `wave`; returns one record per state, in order.

    The members share the wave, grid, dt, t_end and start time, and step
    together as one (3, B, N) spectral state, so a member's record is
    bitwise the one it gets in a batch of one.  `metadata[i]` seeds the
    metadata of record i.  Blow-up is judged per member, against that
    member's initial sup norm, and names the member.
    """
    c, omega, nu = _wave_scalars(wave)
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
    if save_every is None:
        save_every = max(1, n_steps // 200)
    spec = ev.to_spectral(FieldState(t0, np.stack([s.v for s in states0]),
                                     np.stack([s.V for s in states0]),
                                     np.stack([s.u for s in states0])))
    sup0 = [max(_sup(s), 1e-30) for s in states0]

    ref = wave_state(wave, grid, t=0.0)
    b_wave = functional_B(ref, wave, grid)
    psi_ref, vphi_ref = ref.v, ref.V

    series = [{name: [] for name in _SERIES} for _ in range(n_members)]

    def members(batch):
        return [FieldState(batch.t, batch.v[i], batch.V[i], batch.u[i])
                for i in range(n_members)]

    def record(s, out):
        inv = invariants(s, grid)
        rho, ys, th = orbital_distance(s.u, wave, nu, grid, t=s.t)
        dv, _ = shift_distance(s.v, psi_ref, grid)
        dV, _ = shift_distance(s.V, vphi_ref, grid)
        q1p = q1_paper_form(s, grid)
        row = (s.t, inv.E, inv.Q1, inv.Q2, inv.E - c * inv.Q1 - omega * inv.Q2,
               rho, ys, th, dv, dV,
               distance_at_shift(s.v, psi_ref, ys, grid),
               distance_at_shift(s.V, vphi_ref, ys, grid),
               q1p.real, q1p.imag)
        for name, val in zip(_SERIES, row):
            out[name].append(val)

    for s, out in zip(members(ev.to_physical(spec, t0)), series):
        record(s, out)
    for step in range(1, n_steps + 1):
        spec = ev.step(spec)
        t = t0 + step * dt
        if step % 50 == 0:
            finite = np.all(np.isfinite(spec[2]), axis=-1)
            if not np.all(finite):
                raise BlowUpError(t, member=int(np.argmin(finite)))
        if step % save_every == 0 or step == n_steps:
            saved = members(ev.to_physical(spec, t))
            for i, s in enumerate(saved):
                sup = _sup(s)
                if not np.isfinite(sup) or sup > 1e6 * sup0[i]:
                    raise BlowUpError(t, member=i)
            for s, out in zip(saved, series):
                record(s, out)

    common = {"L": grid.L, "N": grid.N, "dt": dt, "t_end": t_end,
              "c": c, "omega": omega, "nu": nu, "B_wave": b_wave}
    return [ExperimentRecord(metadata={**meta, **common},
                             **{name: np.array(vals) for name, vals in out.items()})
            for meta, out in zip(metadata, series)]


def _perturbed_initial_state(wave, grid: GridSpec, delta: float, seed: int,
                             respect_mean_condition: bool,
                             renormalize_q2: bool) -> FieldState:
    c, omega, nu = _wave_scalars(wave)
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
                         N: int = 256, renormalize_q2: bool = False,
                         save_every: int | None = None
                         ) -> ExperimentRecord | list[ExperimentRecord]:
    """Seeded perturbed evolution around a dnoidal wave.

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
              "wave": {"L": w.params.L, "c": w.params.c, "nu": w.params.nu}}
             for d in deltas]
    records = evolve(states0, w, grid, dt, t_end, save_every=save_every, metadata=metas)
    return records[0] if np.ndim(delta) == 0 else records


def solitary_experiment(omega: float, c: float, box_factor: float = 80.0,
                        delta: float = 0.0, t_end: float = 10.0,
                        dt: float | None = None, seed: int = 0, N: int = 1024,
                        save_every: int | None = None) -> ExperimentRecord:
    """Solitary-wave run on a torus large enough that tails are below 1e-14."""
    if box_factor < 80.0:
        raise DomainError("box_factor must be >= 80 so wrapped tails stay < 1e-14")
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
    return evolve([state0], sw, grid, dt, t_end, save_every=save_every,
                  metadata=[meta])[0]

"""Span tracer for the benchmark's traced run.

The tracer wraps public names of zakwave and numpy from the outside (it
edits no program file): while installed, every call to a wrapped name
records a span with its parent, start, duration and the time its child
spans covered.  Spans stay in memory; `write` saves one pass's spans at
the end of the run and `layer_metrics` reduces them to the per-layer
metrics of BENCHMARK.json.  Flops and bytes are computed from the call
sizes, not measured.
"""

from __future__ import annotations

import gzip
import math
import statistics
import sys
from array import array
from time import perf_counter

# Diagnostics that `evolve` calls at each save point.
SAVE_NAMES = frozenset({
    "dynamics.to_physical", "dynamics.invariants", "dynamics.orbital_distance",
    "dynamics.shift_distance", "dynamics.distance_at_shift",
    "dynamics.q1_paper_form",
})

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "dynamics.step.calls": "count",
    "dynamics.step.self_s": "s",
    "dynamics.step.p50_us": "us",
    "dynamics.step.p99_us": "us",
    "dynamics.step.per_member": "steps/member",
    "dynamics.rhs.calls": "count",
    "dynamics.rhs.self_s": "s",
    "dynamics.fft.calls": "count",
    "dynamics.fft.per_step": "fft/step",
    "dynamics.fft.per_save": "fft/save",
    "dynamics.fft.self_s": "s",
    "dynamics.fft.flops": "flop",
    "dynamics.save.calls": "count",
    "dynamics.save.self_s": "s",
    "dynamics.orbital_distance.self_s": "s",
    "dynamics.orbital_distance.p50_us": "us",
    "dynamics.diag_share": "fraction",
    "dynamics.evolve.total_s": "s",
    "dynamics.evolve.self_s": "s",
    "wavefamily.profile.calls": "count",
    "wavefamily.profile.self_s": "s",
    "elliptic.jacobi.calls": "count",
    "elliptic.jacobi.points": "count",
    "elliptic.jacobi.self_s": "s",
    "wavefamily.build_wave.calls": "count",
    "wavefamily.build_wave.self_s": "s",
    "wavefamily.period_of.per_solve": "calls/solve",
    "elliptic.complete.calls": "count",
    "elliptic.complete.self_s": "s",
    "spectral.operator.self_s": "s",
    "spectral.matrix.self_s": "s",
    "spectral.matrix.dim": "count",
    "spectral.matrix.bytes": "B",
    "spectral.eigh.calls": "count",
    "spectral.eigh.self_s": "s",
    "spectral.eigh.flops": "flop",
    "spectral.intervals.self_s": "s",
    "cli.main.self_s": "s",
    "cli.write.self_s": "s",
    "trace.overhead_s": "s",
}


# Size functions give (work size, dimension) of a call from its arguments
# and result: transform length, eigenproblem order, points evaluated, or
# bytes and order of an assembled matrix.

def _n_last(args, _result):
    n = args[0].shape[-1]
    return n, n


def _points(args, _result):
    return int(getattr(args[0], "size", 1)), 0


def _matrix(_args, result):
    return result.nbytes, result.shape[-1]


def _targets():
    """(owner, attribute, span name, size function) for every traced name."""
    import numpy as np

    from zakwave import cli, dynamics, elliptic, spectral, wavefamily

    out = [
        (cli, "main", "cli.main", None),
        (np.fft, "fft", "fft", _n_last),
        (np.fft, "ifft", "fft", _n_last),
        (np.linalg, "eigh", "spectral.eigh", _n_last),
        (elliptic, "jacobi_sn_cn_dn", "elliptic.jacobi", _points),
        (elliptic, "complete_K", "elliptic.complete", None),
        (elliptic, "complete_E", "elliptic.complete", None),
        (wavefamily, "build_wave", "wavefamily.build_wave", None),
        (wavefamily, "solve_eta2", "wavefamily.solve_eta2", None),
        (wavefamily, "period_of", "wavefamily.period_of", None),
        (wavefamily, "family_sweep", "wavefamily.family_sweep", None),
        (spectral, "assemble", "spectral.operator", None),
        (spectral, "hill_L3", "spectral.operator", None),
        (spectral, "hill_L4", "spectral.operator", None),
        (spectral, "lame_operator", "spectral.operator", None),
        (spectral, "periodic_spectrum", "spectral.spectrum", None),
        (spectral, "semiperiodic_spectrum", "spectral.spectrum", None),
        (spectral, "instability_intervals", "spectral.intervals", None),
        (spectral.HillOperator, "fourier_matrix", "spectral.matrix", _matrix),
        (spectral.HillOperator, "grid_matrix", "spectral.matrix", _matrix),
        (dynamics, "stability_experiment", "dynamics.experiment", None),
        (dynamics, "solitary_experiment", "dynamics.experiment", None),
        (dynamics, "evolve", "dynamics.evolve", None),
        (dynamics, "wave_state", "dynamics.wave_state", None),
        (dynamics, "functional_B", "dynamics.functional_B", None),
        (dynamics.Evolver, "step", "dynamics.step", None),
        (dynamics.Evolver, "rhs_spectral", "dynamics.rhs", None),
        (dynamics.Evolver, "to_spectral", "dynamics.to_spectral", None),
        (dynamics.Evolver, "to_physical", "dynamics.to_physical", None),
    ]
    for name in ("invariants", "orbital_distance", "shift_distance",
                 "distance_at_shift", "q1_paper_form"):
        out.append((dynamics, name, f"dynamics.{name}", None))
    for cls in (wavefamily.DnoidalWave, wavefamily.SolitaryWave):
        for name in ("phi", "psi", "varphi", "phi_prime", "phi_second", "psi_second"):
            if name in vars(cls):
                out.append((cls, name, "wavefamily.profile", None))
    for cls in (dynamics.ExperimentRecord, wavefamily.FamilyTable, spectral.HillSpectrum):
        for name in ("to_csv", "to_json"):
            out.append((cls, name, "cli.write", None))
    return out


class Tracer:
    """Spans in flat arrays; span i's parent has a smaller index."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.start = array("d")
        self.dur = array("d")
        self.child = array("d")
        self.size = array("q")
        self.dim = array("q")
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, size):
        names, parent, start, dur, child, sizes, dims = (
            self.names, self.parent, self.start, self.dur, self.child, self.size,
            self.dim)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            dur.append(0.0)
            child.append(0.0)
            sizes.append(0)
            dims.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                start[idx] = t0
                dur[idx] = d
                if parent[idx] >= 0:
                    child[parent[idx]] += d
            if size is not None:
                sizes[idx], dims[idx] = size(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target, in its own module and wherever it was imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zakwave" or n.startswith("zakwave.")]
        for owner, attr, name, size in _targets():
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            traced = self._wrap(name, original, size)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, traced)
            if isinstance(owner, type):
                continue
            for mod in modules:
                if mod is not owner and getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, start, duration and self time in us."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_us\tdur_us\tself_us\tsize\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parent[i]}\t{name}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t{self.dur[i] * 1e6:.1f}\t"
                         f"{(self.dur[i] - self.child[i]) * 1e6:.1f}\t{self.size[i]}\n")


def _flags_below(tr: Tracer, test) -> list:
    """flag[i]: span i or one of its ancestors satisfies test(i)."""
    flag = [False] * len(tr.names)
    for i in range(len(tr.names)):
        p = tr.parent[i]
        flag[i] = test(i) or (p >= 0 and flag[p])
    return flag


def _pct(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    names, parent, dur, child, size = tr.names, tr.parent, tr.dur, tr.child, tr.size
    calls: dict = {}
    self_s: dict = {}
    durs: dict = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        durs.setdefault(name, []).append(dur[i])

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    in_step = _flags_below(tr, lambda i: names[i] == "dynamics.step")
    in_dyn = _flags_below(tr, lambda i: names[i].startswith("dynamics."))
    save_top = [names[i] in SAVE_NAMES and parent[i] >= 0
                and names[parent[i]] == "dynamics.evolve" for i in range(len(names))]
    in_save = _flags_below(tr, lambda i: save_top[i])

    fft_dyn = [i for i, name in enumerate(names) if name == "fft" and in_dyn[i]]
    n_step = n("dynamics.step")
    n_save = sum(1 for i, name in enumerate(names)
                 if name == "dynamics.orbital_distance" and save_top[i])
    fft_step = sum(1 for i in fft_dyn if in_step[i])
    fft_save = sum(1 for i in fft_dyn if in_save[i])
    save_s = sum(dur[i] for i in range(len(names)) if save_top[i])
    evolve_s = sum(durs.get("dynamics.evolve", []))
    solves = n("wavefamily.solve_eta2")
    experiments = n("dynamics.experiment")
    matrices = [i for i, name in enumerate(names) if name == "spectral.matrix"]
    eighs = [i for i, name in enumerate(names) if name == "spectral.eigh"]

    out = {
        "dynamics.step.calls": n_step,
        "dynamics.step.self_s": s("dynamics.step"),
        "dynamics.step.p50_us": _pct(durs.get("dynamics.step", []), 50) * 1e6,
        "dynamics.step.p99_us": _pct(durs.get("dynamics.step", []), 99) * 1e6,
        "dynamics.step.per_member": n_step / experiments if experiments else 0.0,
        "dynamics.rhs.calls": n("dynamics.rhs"),
        "dynamics.rhs.self_s": s("dynamics.rhs"),
        "dynamics.fft.calls": len(fft_dyn),
        "dynamics.fft.per_step": fft_step / n_step if n_step else 0.0,
        "dynamics.fft.per_save": fft_save / n_save if n_save else 0.0,
        "dynamics.fft.self_s": sum(dur[i] - child[i] for i in fft_dyn),
        # 5 N log2 N per complex transform of length N
        "dynamics.fft.flops": sum(5.0 * size[i] * math.log2(size[i]) for i in fft_dyn),
        "dynamics.save.calls": n_save,
        "dynamics.save.self_s": save_s,
        "dynamics.orbital_distance.self_s": s("dynamics.orbital_distance"),
        "dynamics.orbital_distance.p50_us":
            _pct(durs.get("dynamics.orbital_distance", []), 50) * 1e6,
        "dynamics.diag_share": save_s / evolve_s if evolve_s else 0.0,
        "dynamics.evolve.total_s": evolve_s,
        "dynamics.evolve.self_s": s("dynamics.evolve"),
        "wavefamily.profile.calls": n("wavefamily.profile"),
        "wavefamily.profile.self_s": s("wavefamily.profile"),
        "elliptic.jacobi.calls": n("elliptic.jacobi"),
        "elliptic.jacobi.points": sum(size[i] for i, name in enumerate(names)
                                      if name == "elliptic.jacobi"),
        "elliptic.jacobi.self_s": s("elliptic.jacobi"),
        "wavefamily.build_wave.calls": n("wavefamily.build_wave"),
        "wavefamily.build_wave.self_s": s("wavefamily.build_wave"),
        "wavefamily.period_of.per_solve":
            n("wavefamily.period_of") / solves if solves else 0.0,
        "elliptic.complete.calls": n("elliptic.complete"),
        "elliptic.complete.self_s": s("elliptic.complete"),
        "spectral.operator.self_s": s("spectral.operator"),
        "spectral.matrix.self_s": s("spectral.matrix"),
        "spectral.matrix.dim": max((tr.dim[i] for i in matrices), default=0),
        "spectral.matrix.bytes": sum(size[i] for i in matrices),
        "spectral.eigh.calls": len(eighs),
        "spectral.eigh.self_s": s("spectral.eigh"),
        # about 9 n^3 for a dense symmetric eigendecomposition with vectors
        "spectral.eigh.flops": sum(9.0 * size[i] ** 3 for i in eighs),
        "spectral.intervals.self_s": s("spectral.intervals"),
        "cli.main.self_s": s("cli.main"),
        "cli.write.self_s": s("cli.write"),
    }
    return out

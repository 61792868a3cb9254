"""The four workloads of the zakwave benchmark and their correctness checks.

Every workload drives the program only through its public entry points
(`zakwave.cli.main` and `scripts/perturbation_scaling.py`) with the inputs
generated from the benchmark seed, then checks what the program wrote.
An operation is one CLI call, one ensemble experiment or one spectrum; it
fails on a nonzero exit, an exception or a missed check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import runpy
import sys
import traceback
from dataclasses import dataclass, field

# The standard wave of the paper's experiment: cL/(4 pi) = 1, so the carrier
# is L-periodic.
L_STD = 8.0 * math.pi
C_STD = 0.5
NU_STD = 0.2

# Relative drift tolerances: ten times the largest drift observed over 20
# seeds at the seed commit (stability: E 7e-11, Q1 1e-12, Q2 8e-14;
# solitary: E 5.4e-10, Q1 2e-11, Q2 4.2e-12).
STABILITY_DRIFT_TOL = {"E": 1e-9, "Q1": 1e-11, "Q2": 1e-12}
SOLITARY_DRIFT_TOL = {"E": 5e-9, "Q1": 2e-10, "Q2": 5e-11}
# Orbital stability over the run: sup_t rho_nu stays within this factor of
# rho_nu(0) (observed at most 1.05 on stability and 1.15 on solitary).
RHO_GROWTH_MAX = 1.5
# Consecutive sup rho_nu ratios of the delta ensemble: linear scaling gives
# the delta ratio 10^(1/2) = 3.162 (observed 3.162); accepted within 10%.
ENSEMBLE_RATIO_BAND = (2.85, 3.48)
# Lame band edges against lame_eigen_analytic (observed about 4e-11).
LAME_EDGE_TOL = 1e-8

# A defect of the program that this benchmark counts as a failed operation
# but that does not mark its output as wrong: the standard-family sweep
# over nu in [0.05, 5] exits 3 because k rounds to 1.0 near nu = 3.9 and
# the strict k-chain check trips.  If it ever exits 0, its table is checked
# like any other sweep.
KNOWN_DEFECT_SWEEP = "k chain not strictly increasing"


@dataclass
class Op:
    """Outcome of one operation."""

    name: str
    ok: bool
    detail: str = ""
    known_defect: bool = False


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    digest: str = ""


def default_dt(L: float) -> float:
    """The CLI's documented default step, 1e-4 (L / 2 pi)^2."""
    return 1e-4 * (L / (2.0 * math.pi)) ** 2


def call_cli(argv):
    """zakwave.cli.main in-process; returns (exit code or None, stdout, stderr).

    `cli.main` is looked up at call time so that the traced run sees it.
    """
    from zakwave import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def exit_detail(rc, stderr: str) -> str:
    return f"exit {rc}: {stderr.strip()[-200:]}"


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def rel_drift(series) -> float:
    return max(abs(x - series[0]) for x in series) / max(abs(series[0]), 1e-30)


class Workload:
    """A named set of operations; `run_pass` performs and checks them once."""

    name = ""
    work_metric = ""     # name of the work rate printed for this workload
    work_per_pass = 0    # member time steps or Hill eigenproblems per pass

    def __init__(self, root: str, workdir: str, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self._digest = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Imports and the workload's waves: everything before the first pass."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Fill caches with the pass's code paths and sizes; nothing is checked."""
        self.run_pass()

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def _check_digest(self, result: PassResult) -> None:
        """Seeded outputs must be byte-identical across the passes of a run."""
        if self._digest is None:
            self._digest = result.digest
        elif result.digest != self._digest:
            for op in result.ops:
                if op.ok:
                    op.ok = False
                    op.detail = "output differs from the first pass of this run"


class _Evolution(Workload):
    """One seeded CLI evolution run, checked for conservation and stability."""

    work_metric = "steps_per_s"

    def argv(self, out: str):
        raise NotImplementedError

    def warmup(self) -> None:
        call_cli(self.argv(self.path("warmup.csv")) + ["--t-end", "0.1"])

    def run_pass(self) -> PassResult:
        out = self.path(f"{self.name}.csv")
        if os.path.exists(out):
            os.remove(out)
        rc, _, stderr = call_cli(self.argv(out))
        op = Op(self.name, False)
        result = PassResult(ops=[op])
        if rc != 0:
            op.detail = exit_detail(rc, stderr)
            return result
        cols = read_columns(out)
        drifts = {q: rel_drift(cols[q]) for q in ("E", "Q1", "Q2")}
        bad = [f"{q} drift {d:.3e} > {self.ref['drift_tol'][q]:.1e}"
               for q, d in drifts.items() if not d <= self.ref["drift_tol"][q]]
        growth = max(cols["rho_nu"]) / cols["rho_nu"][0]
        if not growth <= self.ref["rho_growth_max"]:
            bad.append(f"sup rho_nu / rho_nu(0) = {growth:.3f}")
        op.ok = not bad
        op.detail = "; ".join(bad) or ("drift " + " ".join(
            f"{q}={d:.2e}" for q, d in drifts.items()))
        result.digest = file_digest([out])
        self._check_digest(result)
        return result


class Stability(_Evolution):
    """`zakwave stability` on the standard wave: the paper's experiment."""

    name = "stability"

    def setup(self) -> None:
        import zakwave.cli  # noqa: F401
        from zakwave.wavefamily import build_wave

        wave = build_wave(L_STD, C_STD, NU_STD)
        self.work_per_pass = round(5.0 / default_dt(wave.params.L))
        self.ref = {"drift_tol": dict(STABILITY_DRIFT_TOL),
                    "rho_growth_max": RHO_GROWTH_MAX}

    def argv(self, out: str):
        return ["stability", "--L", repr(L_STD), "--c", repr(C_STD),
                "--nu", repr(NU_STD), "--delta", "1e-3",
                "--seed", str(self.seed), "--out", out]


class Solitary(_Evolution):
    """`zakwave solitary`: the only workload on the integrating-factor path."""

    name = "solitary"

    def setup(self) -> None:
        import zakwave.cli  # noqa: F401
        from zakwave.wavefamily import solitary_wave

        wave = solitary_wave(-1.0, 0.5)
        # the CLI's torus: box_factor 80 over twice the decay rate
        self.work_per_pass = round(10.0 / default_dt(40.0 / wave.decay_rate))
        self.ref = {"drift_tol": dict(SOLITARY_DRIFT_TOL),
                    "rho_growth_max": RHO_GROWTH_MAX}

    def argv(self, out: str):
        return ["solitary", "--omega", "-1", "--c", "0.5", "--delta", "1e-3",
                "--seed", str(self.seed), "--out", out]


class Ensemble(Workload):
    """`scripts/perturbation_scaling.py` with its defaults: five serial
    stability experiments over delta in [1e-4, 1e-2]."""

    name = "ensemble"
    work_metric = "steps_per_s"
    members = 5

    def setup(self) -> None:
        import zakwave.dynamics  # noqa: F401
        from zakwave.wavefamily import build_wave

        self.script = os.path.join(self.root, "scripts", "perturbation_scaling.py")
        wave = build_wave(L_STD, C_STD, NU_STD)
        self.work_per_pass = self.members * round(5.0 / default_dt(wave.params.L))
        self.ref = {"ratio_band": ENSEMBLE_RATIO_BAND}

    def _run_script(self, out: str, extra=()):
        argv = [self.script, "--seed", str(self.seed), "--out", out, *extra]
        saved = sys.argv
        sys.argv = argv
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    runpy.run_path(self.script, run_name="__main__")
                    rc = 0
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else (
                        0 if exc.code is None else 1)
                except Exception:
                    traceback.print_exc()
                    rc = None
        finally:
            sys.argv = saved
        return rc, stderr.getvalue()

    def warmup(self) -> None:
        self._run_script(self.path("warmup.csv"), ["--t-end", "0.1"])

    def run_pass(self) -> PassResult:
        out = self.path("ensemble.csv")
        if os.path.exists(out):
            os.remove(out)
        rc, stderr = self._run_script(out)
        ops = [Op(f"experiment {i}", False) for i in range(self.members)]
        result = PassResult(ops=ops)
        if rc != 0:
            for op in ops:
                op.detail = exit_detail(rc, stderr)
            return result
        cols = read_columns(out)
        sups = cols["sup_rho_nu"]
        lo, hi = self.ref["ratio_band"]
        for i, op in enumerate(ops):
            if i >= len(sups) or not (math.isfinite(sups[i]) and sups[i] > 0.0):
                op.detail = "missing or non-positive sup rho_nu"
                continue
            if i == 0:
                op.ok = True
                continue
            ratio = sups[i] / sups[i - 1]
            op.ok = lo <= ratio <= hi
            op.detail = f"ratio {ratio:.3f}"
        result.digest = file_digest([out])
        self._check_digest(result)
        return result


class Spectra(Workload):
    """Hill and Lame spectra and two family sweeps: dense assembly and eigh."""

    name = "spectra"
    work_metric = "solves_per_s"
    # Each Lame spectrum solves periodic and semi-periodic problems at N and
    # at 2N (the doubling check); L3 and L4 solve one periodic problem each.
    work_per_pass = 2 * 4 + 1 + 1

    def setup(self) -> None:
        import zakwave.cli  # noqa: F401
        from zakwave.spectral import lame_eigen_analytic
        from zakwave.wavefamily import build_wave

        # The second Lame modulus comes from the seed: nu in [0.04, 0.12]
        # gives k from 0.908 to 0.9987, apart from k = 0.99989 at nu = 0.2.
        self.nu2 = round(random.Random(self.seed).uniform(0.04, 0.12), 6)
        self.ref = {"lame_edges": {}}
        for nu in (NU_STD, self.nu2):
            w = build_wave(L_STD, C_STD, nu)
            self.ref["lame_edges"][nu] = list(lame_eigen_analytic(w.modulus))

    def _wave_flags(self, nu):
        return ["--L", repr(L_STD), "--c", repr(C_STD), "--nu", repr(nu)]

    def _lame(self, nu, out):
        op = Op(f"spectrum lame nu={nu}", False)
        rc, _, stderr = call_cli(["spectrum", "--operator", "lame",
                                  *self._wave_flags(nu), "--out", out])
        if rc != 0:
            op.detail = exit_detail(rc, stderr)
            return op
        rows = read_columns(out)
        # band edges: (-inf, lambda0), (mu0, mu1), (lambda1, lambda2), ...
        got = [rows["gap_hi"][0], rows["gap_lo"][2], rows["gap_hi"][2]]
        err = max(abs(g - r) for g, r in zip(got, self.ref["lame_edges"][nu]))
        op.ok = err <= LAME_EDGE_TOL
        op.detail = f"band-edge error {err:.2e}"
        return op

    def _hill(self, operator, out):
        op = Op(f"spectrum {operator}", False)
        rc, _, stderr = call_cli(["spectrum", "--operator", operator,
                                  *self._wave_flags(NU_STD), "--out", out])
        if rc != 0:
            op.detail = exit_detail(rc, stderr)
            return op
        lam = read_columns(out)["eigenvalue"]
        op.ok = len(lam) == 8 and all(a <= b for a, b in zip(lam, lam[1:]))
        op.detail = "verdicts pass" if op.ok else "eigenvalue table malformed"
        return op

    def _sweep(self, label, flags, out):
        op = Op(f"sweep {label}", False)
        rc, _, stderr = call_cli(["sweep", *flags, "--out", out])
        if rc != 0:
            op.detail = exit_detail(rc, stderr)
            op.known_defect = rc == 3 and KNOWN_DEFECT_SWEEP in stderr
            return op
        cols = read_columns(out)
        ok = len(cols["nu"]) == 20
        for name, sign in (("eta2", -1), ("k", 1), ("mass", 1)):
            col = cols[name]
            ok = ok and all(sign * (b - a) > 0.0 for a, b in zip(col, col[1:]))
        op.ok = ok
        op.detail = "monotone chains hold" if ok else "table breaks a monotone chain"
        return op

    def run_pass(self) -> PassResult:
        outs = [self.path(f"spectra-{i}.csv") for i in range(6)]
        for out in outs:
            if os.path.exists(out):
                os.remove(out)
        ops = [
            self._lame(NU_STD, outs[0]),
            self._lame(self.nu2, outs[1]),
            self._hill("L3", outs[2]),
            self._hill("L4", outs[3]),
            self._sweep("README", ["--L", "6.2832", "--c", "0", "--nu-min", "0.6",
                                   "--nu-max", "5", "--points", "20"], outs[4]),
            self._sweep("standard family", ["--L", repr(L_STD), "--c", repr(C_STD),
                                            "--nu-min", "0.05", "--nu-max", "5",
                                            "--points", "20"], outs[5]),
        ]
        result = PassResult(ops=ops)
        result.digest = file_digest([p for p in outs if os.path.exists(p)])
        self._check_digest(result)
        return result


WORKLOADS = {cls.name: cls for cls in (Stability, Ensemble, Solitary, Spectra)}

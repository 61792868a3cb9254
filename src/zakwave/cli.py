"""Command-line front end: wave construction, family sweeps, Hill spectra,
and evolution / stability experiments.

Each command returns nothing and fails by raising; `main` alone turns
every outcome into an exit code.  An optional JSON config file supplies
parameter defaults; explicit command-line flags override it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from .dynamics import solitary_experiment, stability_experiment
from .errors import AccuracyError, BlowUpError, DomainError, VerdictError
from .output import fmt, write_csv, write_json
from .spectral import (
    hill_L3,
    hill_L4,
    instability_intervals,
    periodic_spectrum,
)
from .wavefamily import build_wave, family_sweep, ode_residuals

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERDICT = 3
EXIT_BLOWUP = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here reserves 2
    for domain violations, so remap usage failures to 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -1 and -.5 as values but -1e-3 as an unknown
        # option; widen its negative-number pattern to exponent forms
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Columns:
    """Equal-length columns of numbers: CSV rows under a header, or one
    JSON object of lists after the `head` fields, with a non-finite number
    as null."""

    def __init__(self, columns: dict, head: dict | None = None):
        self.columns = columns
        self.head = head or {}

    def to_csv(self, path) -> None:
        write_csv(path, list(self.columns), zip(*self.columns.values()))

    def to_json(self, path) -> None:
        write_json(path, self.head | {
            name: [float(v) if math.isfinite(v) else None for v in col]
            for name, col in self.columns.items()})


def _write(result, args) -> None:
    """Save a family table, spectrum, record or `_Columns` to --out in
    --format; an --out that cannot be written is a usage error."""
    if args.out is None:
        return
    try:
        if args.format == "json":
            result.to_json(args.out)
        else:
            result.to_csv(args.out)
    except OSError as exc:
        _usage_error(f"cannot write --out {args.out}: {exc}")


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _require(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        _usage_error(f"missing required parameter(s): {', '.join(f'--{n}' for n in missing)}")


def _read_json(path, what: str):
    """Parsed JSON file; an unreadable or malformed file is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _usage_error(f"cannot read {what} {path}: {exc}")


def _apply_config(parser, args: argparse.Namespace, argv) -> argparse.Namespace:
    """Parse argv again with the JSON config file's values as flags placed
    before the explicit ones: the file fills every parameter the command
    line leaves out, and argparse checks each value by its flag's type and
    choices."""
    cfg = _read_json(args.config, "config")
    if not isinstance(cfg, dict):
        _usage_error("config file must hold a JSON object")
    sub = parser.commands[args.command]
    flags = {}
    for action in sub._actions:
        if action.option_strings and action.dest not in ("help", "config"):
            flags.setdefault(action.dest, []).append(action)
    tokens = []
    for key, val in cfg.items():
        actions = flags.get(key.replace("-", "_"))
        if actions is None:
            _usage_error(f"config key {key} matches no parameter of {sub.prog}")
        if actions[0].nargs == 0:
            # an on/off flag: the flag that stores val, none if val is the default
            if not isinstance(val, bool):
                _usage_error(f"config key {key} takes true or false")
            tokens += [a.option_strings[0] for a in actions if a.const is val][:1]
        elif isinstance(val, str) or (actions[0].type and type(val) in (int, float)):
            # a number goes in as its JSON text, so 256.5 is no valid int
            text = val if isinstance(val, str) else json.dumps(val)
            tokens.append(f"{actions[0].option_strings[0]}={text}")
        else:
            _usage_error(f"config key {key} takes a "
                         f"{'number' if actions[0].type else 'string'}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _load_wave_args(args):
    """Wave from --wave-file (a cmd_construct JSON) or from --L/--c/--nu;
    giving both is a usage error."""
    if getattr(args, "wave_file", None) is not None:
        given = [f"--{n}" for n in ("L", "c", "nu") if getattr(args, n) is not None]
        if given:
            _usage_error(f"--wave-file and {', '.join(given)} both give the wave; "
                         f"pass one of them")
        payload = _read_json(args.wave_file, "wave file")
        try:
            p = payload["params"]
            L, c, nu = float(p["L"]), float(p["c"]), float(p["nu"])
        except (KeyError, TypeError, ValueError) as exc:
            _usage_error(f"cannot read wave file {args.wave_file}: "
                         f"no params L, c, nu ({exc!r})")
        return build_wave(L, c, nu)
    _require(args, ["L", "c", "nu"])
    return build_wave(args.L, args.c, args.nu)


# --------------------------------------------------------------------------
# construct

def cmd_construct(args) -> None:
    if args.samples < 1:
        _usage_error(f"--samples must be at least 1, got {args.samples}")
    w = _load_wave_args(args)
    p = w.params
    xs = np.arange(args.samples) * p.L / args.samples

    r1, r2 = ode_residuals(w, max(args.samples, 64))
    print(f"ode residuals: r1={fmt(r1)} r2={fmt(r2)}")

    _write(_Columns({"x": xs, "phi": w.phi(xs), "psi": w.psi(xs), "varphi": w.varphi(xs),
                     "phi_prime": w.phi_prime(xs)}, head={"params": asdict(p)}), args)
    print(f"wave: eta1={fmt(p.eta1)} eta2={fmt(p.eta2)} k={fmt(p.k)} "
          f"omega={fmt(p.omega)} d0={fmt(p.d0)}")


# --------------------------------------------------------------------------
# sweep

def cmd_sweep(args) -> None:
    _require(args, ["L", "c", "nu-min", "nu-max"])
    if args.points < 2:
        _usage_error(f"--points must be at least 2, got {args.points}")
    if args.nu_max <= args.nu_min:
        _usage_error(f"--nu-max must exceed --nu-min, got {args.nu_min} and {args.nu_max}")
    for name, val in (("nu_min", args.nu_min), ("nu_max", args.nu_max)):
        if not (math.isfinite(val) and val > 0.0):
            raise DomainError(f"{name}={val} must be finite and positive")
    grid = np.geomspace(args.nu_min, args.nu_max, args.points)
    table = family_sweep(args.L, args.c, grid)
    _write(table, args)
    print(f"sweep: {len(table.rows)} rows, eta2 decreasing, k and mass increasing")


# --------------------------------------------------------------------------
# spectrum

def _judge(result, args, verdicts) -> None:
    """Print each (name, ok, detail) verdict as a [pass] or [FAIL] line,
    save result to --out, then raise VerdictError naming every failure."""
    for name, ok, detail in verdicts:
        print(f"  [{'pass' if ok else 'FAIL'}] {name}: {detail}")
    _write(result, args)
    failures = [name for name, ok, _ in verdicts if not ok]
    if failures:
        raise VerdictError(", ".join(failures))


def cmd_spectrum(args) -> None:
    w = _load_wave_args(args)
    nu = w.params.nu

    if args.operator == "lame":
        if args.modes is not None:
            _usage_error("--modes applies to L3 and L4, not to --operator lame")
        intervals = instability_intervals(w.modulus, N=args.N)
        finite = intervals[1:]
        widths = [hi - lo for lo, hi in finite]
        wide = sum(1 for w_ in widths if w_ > 1e-4)
        print(f"lame instability intervals (k={fmt(w.modulus.k)}):")
        print(f"  semi-infinite: (-inf, {fmt(intervals[0][1])})")
        for (lo, hi), w_ in zip(finite, widths):
            print(f"  ({fmt(lo)}, {fmt(hi)}) width {fmt(w_)}")
        _judge(_Columns({"gap_lo": [lo for lo, _ in intervals],
                         "gap_hi": [hi for _, hi in intervals]}), args, [
            ("three instability intervals",
             wide == 2, f"semi-infinite + {wide} finite gaps of width > 1e-4"),
            ("higher gaps closed",
             all(w_ <= 1e-6 for w_ in widths[2:]), f"max residual gap {fmt(max(widths[2:]))}"),
        ])
        return

    # the verdicts read lambda_0 .. lambda_2
    modes = 8 if args.modes is None else args.modes
    if modes < 3:
        _usage_error(f"--modes must be at least 3, got {modes}")
    op = hill_L3(w, args.N) if args.operator == "L3" else hill_L4(w, args.N)
    spec = periodic_spectrum(op, modes)
    lam = spec.eigenvalues
    print(f"{args.operator} eigenvalues (N={args.N}):")
    for i, v in enumerate(lam[:min(modes, 6)]):
        print(f"  lambda_{i} = {fmt(v)}")

    # parity names the kernels: phi is even and phi' odd about x = 0
    def parity(i):
        return "even" if spec.even[i] else "odd"

    if args.operator == "L4":
        verdicts = [("lambda0 ~ 0", abs(lam[0]) <= 1e-6 * nu, f"|lambda0|={fmt(abs(lam[0]))}"),
                    ("lambda0 simple", lam[1] - lam[0] > 1e-3 * nu, f"gap={fmt(lam[1] - lam[0])}"),
                    ("ground state even, as phi", spec.even[0], f"parity={parity(0)}")]
    else:
        verdicts = [("lambda0 < 0", lam[0] < -1e-4 * nu, f"lambda0={fmt(lam[0])}"),
                    ("lambda1 ~ 0", abs(lam[1]) <= 1e-6 * nu, f"|lambda1|={fmt(abs(lam[1]))}"),
                    ("lambda2 > 0", lam[2] > 1e-4 * nu, f"lambda2={fmt(lam[2])}"),
                    ("first three separated",
                     lam[1] - lam[0] > 1e-3 * nu and lam[2] - lam[1] > 1e-3 * nu,
                     f"gaps {fmt(lam[1] - lam[0])}, {fmt(lam[2] - lam[1])}"),
                    ("lambda1 odd, as phi'", not spec.even[1], f"parity={parity(1)}")]
    _judge(spec, args, verdicts)


# --------------------------------------------------------------------------
# evolution commands

def _report_record(rec, args) -> None:
    """Print a run's summary and save its record.

    The time reached is printed as t_final, which can fall short of t_end.
    The drift of a conserved series a is max|a - a(0)| / |a(0)|, except
    where |a(0)| <= 1e-12 Q2(0): there a(0) is at rounding level (the Q1
    of a c = 0 wave), the ratio would be noise over noise, and the
    absolute drift max|a - a(0)| is printed, labelled `(absolute)`.  Q2,
    the mass of u, is positive for any nonzero u.
    """
    floor = 1e-12 * abs(rec.Q2[0])

    def drift(name):
        a = getattr(rec, name)
        change = np.max(np.abs(a - a[0]))
        if abs(a[0]) <= floor:
            return f"{name}(absolute)={fmt(change)}"
        return f"{name}={fmt(change / abs(a[0]))}"

    print(f"steps saved: {len(rec.times)}, t_final={fmt(rec.metadata['t_final'])}")
    print(f"relative drift: {drift('E')} {drift('Q1')} {drift('Q2')}")
    db = rec.delta_B()
    print(f"deltaB spread: {fmt(float(np.max(np.abs(db - db[0]))))}")
    print(f"sup rho_nu: {fmt(float(np.max(rec.rho_nu)))}")
    _write(rec, args)


def _require_seed(args) -> None:
    if args.seed < 0:
        _usage_error(f"--seed must be non-negative, got {args.seed}")


def cmd_stability(args) -> None:
    """A seeded perturbed run; `evolve` is this command at delta 0, seed 0."""
    _require(args, ["delta", "seed"])
    _require_seed(args)
    w = _load_wave_args(args)
    _report_record(stability_experiment(
        w, delta=args.delta, t_end=args.t_end, dt=args.dt, seed=args.seed,
        respect_mean_condition=args.respect_mean_condition, N=args.N,
        renormalize_q2=args.renormalize_q2), args)


def cmd_solitary(args) -> None:
    _require(args, ["omega", "c", "delta", "seed"])
    _require_seed(args)
    _report_record(solitary_experiment(
        omega=args.omega, c=args.c, box_factor=args.box_factor,
        delta=args.delta, t_end=args.t_end, dt=args.dt, seed=args.seed, N=args.N), args)


# --------------------------------------------------------------------------
# parser assembly

def _add_wave_flags(sp, with_wave_file=False):
    sp.add_argument("--L", type=float, default=None, help="fundamental period")
    sp.add_argument("--c", type=float, default=None, help="wave speed, |c| < 1")
    sp.add_argument("--nu", type=float, default=None,
                    help="frequency parameter nu = -(omega + c^2/4)")
    if with_wave_file:
        sp.add_argument("--wave-file", default=None,
                        help="JSON wave file written by `construct --format json`")


def _add_io_flags(sp):
    sp.add_argument("--out", default=None, help="output file path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--config", default=None,
                    help="JSON config file; explicit flags take precedence")


def _add_run_flags(sp):
    sp.add_argument("--N", type=int, default=256, help="grid points")
    sp.add_argument("--dt", type=float, default=None,
                    help="time step (default 1e-4 * (L/2pi)^2)")
    sp.add_argument("--t-end", type=float, default=5.0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zakwave",
                     description="Zakharov traveling waves: construction, "
                                 "spectra, and stability experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, for --config

    sp = sub.add_parser("construct", parents=[], help="build one dnoidal wave")
    _add_wave_flags(sp)
    sp.add_argument("--samples", type=int, default=512)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("sweep", help="family table over a nu grid")
    sp.add_argument("--L", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--nu-min", type=float, default=None)
    sp.add_argument("--nu-max", type=float, default=None)
    sp.add_argument("--points", type=int, default=20)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("spectrum", help="Hill-operator spectrum with verdicts")
    _add_wave_flags(sp, with_wave_file=True)
    sp.add_argument("--operator", choices=("L3", "L4", "lame"), default="L3")
    sp.add_argument("--modes", type=int, default=None,
                    help="L3/L4 eigenpairs to report (default 8); not for lame")
    sp.add_argument("--N", type=int, default=512,
                    help="potential samples; L3 and L4 solve on the (N-1)//4 "
                         "Fourier modes each side of 0, so --modes is at most "
                         "2*((N-1)//4)+1; lame takes band edges from N/8 modes, "
                         "checked at N/4 on 2N samples")
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("evolve", help="evolve the exact wave state")
    _add_wave_flags(sp, with_wave_file=True)
    _add_run_flags(sp)
    _add_io_flags(sp)
    # delta = 0 starts from the exact wave state; the rest are stability's defaults
    sp.set_defaults(func=cmd_stability, delta=0.0, seed=0, respect_mean_condition=True,
                    renormalize_q2=False)

    sp = sub.add_parser("stability", help="seeded perturbed stability run")
    _add_wave_flags(sp, with_wave_file=True)
    _add_run_flags(sp)
    sp.add_argument("--delta", type=float, default=None,
                    help="relative perturbation size")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--respect-mean-condition", dest="respect_mean_condition",
                    action="store_true", default=True)
    sp.add_argument("--no-respect-mean-condition", dest="respect_mean_condition",
                    action="store_false")
    sp.add_argument("--renormalize-q2", action="store_true")
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("solitary", help="solitary-wave run on a large torus")
    sp.add_argument("--omega", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--box-factor", type=float, default=80.0)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    _add_run_flags(sp)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_solitary, N=1024, t_end=10.0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one zakwave command and return its exit code: 0 success, 1 usage
    error, 2 domain violation or a spectrum not converged at the requested
    --N, 3 verdict failure, 4 blow-up during time integration.

    Every call in a process parses with the same parser, built by the
    first call: argparse reads it without changing it, and a --config
    file's values enter as extra flags of a second parse, not as new
    defaults, so no call sees another's arguments.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config(parser, args, argv)
        args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except VerdictError as exc:
        print(f"verdict FAIL: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except BlowUpError as exc:
        print(f"blow-up at t={exc.t:.6g}", file=sys.stderr)
        return EXIT_BLOWUP
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AccuracyError as exc:
        print(f"accuracy error: {exc} (try a larger --N)", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

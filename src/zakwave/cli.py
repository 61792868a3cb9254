"""Command-line front end: wave construction, family sweeps, Hill spectra,
and evolution / stability experiments.

Exit codes: 0 success, 1 usage error, 2 domain violation, 3 verdict
failure, 4 blow-up during time integration.  An optional JSON config file
supplies parameter defaults; explicit command-line flags override it.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

import numpy as np

from .dynamics import solitary_experiment, stability_experiment
from .errors import BlowUpError, DomainError
from .spectral import (
    hill_L3,
    hill_L4,
    instability_intervals,
    periodic_spectrum,
)
from .wavefamily import build_wave, family_sweep, nu_threshold, ode_residuals

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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(result, args) -> None:
    """Save a family table, spectrum or record to --out in --format."""
    if args.out is None:
        return
    if args.format == "json":
        result.to_json(args.out)
    else:
        result.to_csv(args.out)


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
    """Wave from --wave-file (a cmd_construct JSON) or from --L/--c/--nu."""
    if getattr(args, "wave_file", None) is not None:
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

def cmd_construct(args) -> int:
    _require(args, ["L", "c", "nu"])
    w = build_wave(args.L, args.c, args.nu)
    p = w.params
    xs = np.arange(args.samples) * p.L / args.samples
    phi, psi, varphi = w.phi(xs), w.psi(xs), w.varphi(xs)
    dphi = w.phi_prime(xs)

    r1, r2, r3 = ode_residuals(w, max(args.samples, 64))
    print(f"ode residuals: r1={_fmt(r1)} r2={_fmt(r2)} r3={_fmt(r3)}")

    if args.out is not None:
        if args.format == "csv":
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "phi", "psi", "varphi", "phi_prime"])
                for row in zip(xs, phi, psi, varphi, dphi):
                    writer.writerow([_fmt(v) for v in row])
        else:
            payload = {
                "params": {
                    "L": p.L, "c": p.c, "omega": p.omega, "nu": p.nu,
                    "alpha": p.alpha, "eta1": p.eta1, "eta2": p.eta2,
                    "k": p.k, "d0": p.d0, "Aphi": p.Aphi,
                },
                "x": xs.tolist(),
                "phi": phi.tolist(),
                "psi": psi.tolist(),
                "varphi": varphi.tolist(),
                "phi_prime": dphi.tolist(),
            }
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
    print(f"wave: eta1={_fmt(p.eta1)} eta2={_fmt(p.eta2)} k={_fmt(p.k)} "
          f"omega={_fmt(p.omega)} d0={_fmt(p.d0)}")
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep

def cmd_sweep(args) -> int:
    _require(args, ["L", "c", "nu-min", "nu-max"])
    if args.points < 2:
        _usage_error(f"--points must be at least 2, got {args.points}")
    if args.nu_min <= nu_threshold(args.L):
        raise DomainError(
            f"nu_min={args.nu_min} <= 2*pi^2/L^2={nu_threshold(args.L)}"
        )
    grid = np.geomspace(args.nu_min, args.nu_max, args.points)
    try:
        table = family_sweep(args.L, args.c, grid)
    except AssertionError as exc:
        print(f"verdict FAIL: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    _write(table, args)
    mass = table.column("mass")
    if not np.all(np.diff(mass) > 0.0):
        print("verdict FAIL: mass column not strictly increasing", file=sys.stderr)
        return EXIT_VERDICT
    print(f"sweep: {len(table.rows)} rows, eta2 decreasing, k and mass increasing")
    return EXIT_OK


# --------------------------------------------------------------------------
# spectrum

def _verdict(name: str, ok: bool, detail: str, failures: list) -> None:
    print(f"  [{'pass' if ok else 'FAIL'}] {name}: {detail}")
    if not ok:
        failures.append(name)


def cmd_spectrum(args) -> int:
    w = _load_wave_args(args)
    p = w.params
    nu = p.nu
    failures: list = []

    if args.operator == "lame":
        intervals = instability_intervals(w.modulus, n_gaps=10, N=args.N)
        finite = intervals[1:]
        widths = [hi - lo for lo, hi in finite]
        wide = sum(1 for w_ in widths if w_ > 1e-4)
        print(f"lame instability intervals (k={_fmt(w.modulus.k)}):")
        print(f"  semi-infinite: (-inf, {_fmt(intervals[0][1])})")
        for (lo, hi), w_ in zip(finite, widths):
            print(f"  ({_fmt(lo)}, {_fmt(hi)}) width {_fmt(w_)}")
        _verdict("three instability intervals",
                 wide == 2, f"semi-infinite + {wide} finite gaps of width > 1e-4",
                 failures)
        _verdict("higher gaps closed",
                 all(w_ <= 1e-6 for w_ in widths[2:]),
                 f"max residual gap {_fmt(max(widths[2:]))}", failures)
        if args.out is not None:
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["gap_lo", "gap_hi"])
                for lo, hi in intervals:
                    writer.writerow([_fmt(lo), _fmt(hi)])
        if failures:
            print(f"verdict FAIL: {', '.join(failures)}", file=sys.stderr)
            return EXIT_VERDICT
        return EXIT_OK

    # the verdicts read lambda_0 .. lambda_2
    if args.modes < 3:
        _usage_error(f"--modes must be at least 3, got {args.modes}")
    op = hill_L3(w, args.N) if args.operator == "L3" else hill_L4(w, args.N)
    spec = periodic_spectrum(op, args.modes)
    lam = spec.eigenvalues
    xs = np.arange(args.N) * p.L / args.N
    print(f"{args.operator} eigenvalues (N={args.N}):")
    for i, v in enumerate(lam[:min(args.modes, 6)]):
        print(f"  lambda_{i} = {_fmt(v)}")

    def align(vec, target):
        t = target / np.linalg.norm(target)
        return abs(np.dot(vec, t)) / np.linalg.norm(vec)

    if args.operator == "L4":
        a = align(spec.eigenvectors[0], w.phi(xs))
        _verdict("lambda0 ~ 0", abs(lam[0]) <= 1e-6 * nu, f"|lambda0|={_fmt(abs(lam[0]))}", failures)
        _verdict("lambda0 simple", lam[1] - lam[0] > 1e-3 * nu,
                 f"gap={_fmt(lam[1] - lam[0])}", failures)
        _verdict("ground state ~ phi", a >= 0.9999, f"alignment={_fmt(a)}", failures)
    else:
        a = align(spec.eigenvectors[1], w.phi_prime(xs))
        _verdict("lambda0 < 0", lam[0] < -1e-4 * nu, f"lambda0={_fmt(lam[0])}", failures)
        _verdict("lambda1 ~ 0", abs(lam[1]) <= 1e-6 * nu, f"|lambda1|={_fmt(abs(lam[1]))}", failures)
        _verdict("lambda2 > 0", lam[2] > 1e-4 * nu, f"lambda2={_fmt(lam[2])}", failures)
        _verdict("first three separated",
                 lam[1] - lam[0] > 1e-3 * nu and lam[2] - lam[1] > 1e-3 * nu,
                 f"gaps {_fmt(lam[1] - lam[0])}, {_fmt(lam[2] - lam[1])}", failures)
        _verdict("second eigenvector ~ phi'", a >= 0.9999, f"alignment={_fmt(a)}", failures)

    _write(spec, args)
    if failures:
        print(f"verdict FAIL: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


# --------------------------------------------------------------------------
# evolution commands

def _report_record(rec) -> None:
    drift = lambda a: np.max(np.abs(a - a[0])) / max(abs(a[0]), 1e-30)
    print(f"steps saved: {len(rec.times)}, t_end={_fmt(rec.times[-1])}")
    print(f"relative drift: E={_fmt(drift(rec.E))} Q1={_fmt(drift(rec.Q1))} "
          f"Q2={_fmt(drift(rec.Q2))}")
    db = rec.delta_B()
    print(f"deltaB spread: {_fmt(float(np.max(np.abs(db - db[0]))))}")
    print(f"sup rho_nu: {_fmt(float(np.max(rec.rho_nu)))}")


def cmd_evolve(args) -> int:
    w = _load_wave_args(args)
    # delta = 0 starts from the exact wave state
    rec = stability_experiment(w, delta=0.0, t_end=args.t_end, dt=args.dt, N=args.N)
    _report_record(rec)
    _write(rec, args)
    return EXIT_OK


def cmd_stability(args) -> int:
    _require(args, ["delta", "seed"])
    w = _load_wave_args(args)
    rec = stability_experiment(
        w, delta=args.delta, t_end=args.t_end, dt=args.dt, seed=args.seed,
        respect_mean_condition=args.respect_mean_condition, N=args.N,
        renormalize_q2=args.renormalize_q2)
    _report_record(rec)
    _write(rec, args)
    return EXIT_OK


def cmd_solitary(args) -> int:
    _require(args, ["omega", "c", "delta", "seed"])
    rec = solitary_experiment(
        omega=args.omega, c=args.c, box_factor=args.box_factor,
        delta=args.delta, t_end=args.t_end, dt=args.dt, seed=args.seed, N=args.N)
    _report_record(rec)
    _write(rec, args)
    return EXIT_OK


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
    sp.add_argument("--modes", type=int, default=8)
    sp.add_argument("--N", type=int, default=512)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("evolve", help="evolve the exact wave state")
    _add_wave_flags(sp, with_wave_file=True)
    _add_run_flags(sp)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_evolve)

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


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config(parser, args, argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except BlowUpError as exc:
        print(f"blow-up at t={exc.t:.6g}", file=sys.stderr)
        return EXIT_BLOWUP
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())

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
import sys

import numpy as np

from .dynamics import (
    GridSpec,
    default_dt,
    evolve,
    solitary_experiment,
    stability_experiment,
    wave_state,
)
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

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _require(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        print(f"error: missing required parameter(s): {flags}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset (None) parameters from the JSON config file, if given."""
    if getattr(args, "config", None) is None:
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if not isinstance(cfg, dict):
        print("error: config file must hold a JSON object", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, val)
    return args


def _load_wave_args(args):
    """Wave from --wave-file (a cmd_construct JSON) or from --L/--c/--nu."""
    if getattr(args, "wave_file", None) is not None:
        with open(args.wave_file) as fh:
            payload = json.load(fh)
        p = payload["params"]
        return build_wave(float(p["L"]), float(p["c"]), float(p["nu"]))
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
    if args.out is not None:
        if args.format == "json":
            table.to_json(args.out)
        else:
            table.to_csv(args.out)
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
        print(f"error: --modes must be at least 3, got {args.modes}", file=sys.stderr)
        return EXIT_USAGE
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

    if args.out is not None:
        if args.format == "json":
            spec.to_json(args.out)
        else:
            spec.to_csv(args.out)
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


def _write_record(rec, args) -> None:
    if args.out is None:
        return
    if args.format == "json":
        rec.to_json(args.out)
    else:
        rec.to_csv(args.out)


def cmd_evolve(args) -> int:
    w = _load_wave_args(args)
    grid = GridSpec(L=w.params.L, N=args.N)
    dt = args.dt if args.dt is not None else default_dt(w.params.L)
    state0 = wave_state(w, grid)
    rec = evolve(state0, w, grid, dt, args.t_end,
                 integrating_factor=args.integrating_factor)
    _report_record(rec)
    _write_record(rec, args)
    return EXIT_OK


def cmd_stability(args) -> int:
    _require(args, ["delta", "seed"])
    w = _load_wave_args(args)
    rec = stability_experiment(
        w, delta=args.delta, t_end=args.t_end, dt=args.dt, seed=args.seed,
        respect_mean_condition=args.respect_mean_condition, N=args.N,
        renormalize_q2=args.renormalize_q2,
        integrating_factor=args.integrating_factor)
    _report_record(rec)
    _write_record(rec, args)
    return EXIT_OK


def cmd_solitary(args) -> int:
    _require(args, ["omega", "c", "delta", "seed"])
    rec = solitary_experiment(
        omega=args.omega, c=args.c, box_factor=args.box_factor,
        delta=args.delta, t_end=args.t_end, dt=args.dt, seed=args.seed,
        N=args.N, integrating_factor=args.integrating_factor)
    _report_record(rec)
    _write_record(rec, args)
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
    sp.add_argument("--integrating-factor", action="store_true",
                    help="treat the linear Schroedinger term exactly in Fourier space")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zakwave",
                     description="Zakharov traveling waves: construction, "
                                 "spectra, and stability experiments")
    sub = parser.add_subparsers(dest="command", required=True)

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
    sp.add_argument("--N", type=int, default=1024)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=10.0)
    sp.add_argument("--integrating-factor", action="store_true", default=True)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_solitary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        args = _apply_config(args)
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

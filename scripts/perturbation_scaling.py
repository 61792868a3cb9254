#!/usr/bin/env python3
"""Measure how the orbital distance scales with the perturbation size.

Runs seeded experiments over a geometric delta grid, stepped together as
one batch, and reports sup_t rho_nu together with consecutive ratios; for
an orbitally stable wave the sup should scale roughly linearly in delta.
"""

import argparse
import sys

import numpy as np

from zakwave.dynamics import stability_experiment
from zakwave.output import write_csv
from zakwave.wavefamily import build_wave


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=float, default=8.0 * np.pi)
    ap.add_argument("--c", type=float, default=0.5)
    ap.add_argument("--nu", type=float, default=0.2)
    ap.add_argument("--delta-min", type=float, default=1e-4)
    ap.add_argument("--delta-max", type=float, default=1e-2)
    ap.add_argument("--points", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t-end", type=float, default=5.0)
    ap.add_argument("--N", type=int, default=256)
    ap.add_argument("--out", default="perturbation_scaling.csv")
    args = ap.parse_args()

    wave = build_wave(args.L, args.c, args.nu)
    deltas = np.geomspace(args.delta_min, args.delta_max, args.points)
    # one batched evolution steps every delta together
    records = stability_experiment(wave, delta=[float(d) for d in deltas],
                                   t_end=args.t_end, seed=args.seed, N=args.N)
    sups = [float(np.max(rec.rho_nu)) for rec in records]
    for delta, sup in zip(deltas, sups):
        print(f"delta={delta:.3e}: sup rho_nu = {sup:.6e}")
    for i in range(1, len(sups)):
        print(f"ratio {deltas[i]:.3e}/{deltas[i-1]:.3e}: "
              f"{sups[i] / sups[i-1]:.3f}")

    write_csv(args.out, ["delta", "sup_rho_nu"], zip(deltas, sups))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

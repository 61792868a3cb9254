#!/usr/bin/env python3
"""Scan the two-gap Lame band structure over a modulus grid.

Writes one CSV row per modulus with the semi-infinite edge, both finite
instability intervals, and the widest residual higher gap.
"""

import argparse
import sys

import numpy as np

from zakwave.elliptic import Modulus
from zakwave.output import write_csv
from zakwave.spectral import instability_intervals, lame_eigen_analytic


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-min", type=float, default=0.05)
    ap.add_argument("--k-max", type=float, default=0.95)
    ap.add_argument("--points", type=int, default=19)
    ap.add_argument("--N", type=int, default=512)
    ap.add_argument("--out", default="band_structure.csv")
    args = ap.parse_args()

    rows = []
    for k in np.linspace(args.k_min, args.k_max, args.points):
        m = Modulus.from_k(float(k))
        rho0, rho1, rho2 = lame_eigen_analytic(m)
        intervals = instability_intervals(m, N=args.N)
        (g1_lo, g1_hi), (g2_lo, g2_hi) = intervals[1], intervals[2]
        residual = max(hi - lo for lo, hi in intervals[3:])
        rows.append([k, intervals[0][1], g1_lo, g1_hi, g2_lo, g2_hi,
                     residual, rho0, rho1, rho2])
        print(f"k={k:.3f}: gap1 width {g1_hi - g1_lo:.6e}, "
              f"gap2 width {g2_hi - g2_lo:.6e}, residual {residual:.2e}")

    write_csv(args.out, ["k", "edge0", "gap1_lo", "gap1_hi", "gap2_lo", "gap2_hi",
                         "max_higher_gap", "rho0", "rho1", "rho2"], rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare exact and approximate lower-bound coverage across sample sizes.

Prints one row per (procedure, n): minimum coverage over the grid and the
rate where it occurs. The exact procedure never dips below nominal; the
approximate one does, worst near the endpoints.
"""

import argparse

from guaranteesim import LowerBoundProcedure, coverage_report, probability_grid
from guaranteesim.cli import checked
from guaranteesim.config import GRID_DENOM, OPEN_UNIT, TRIALS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=checked(int, TRIALS), nargs="+",
                    default=[20, 40, 100, 300])
    ap.add_argument("--alpha-prime", type=checked(float, OPEN_UNIT),
                    default=0.05)
    ap.add_argument("--denom", type=checked(int, GRID_DENOM), default=1024)
    args = ap.parse_args()

    grid = probability_grid(args.denom)
    nominal = 1.0 - args.alpha_prime
    print(f"{'procedure':<16} {'n':>5} {'min_coverage':>13} {'at_p':>10} "
          f"{'below_nominal':>14}")
    for kind in ("clopper_pearson", "wald"):
        for n in args.sizes:
            rep = coverage_report(LowerBoundProcedure(kind, args.alpha_prime, n),
                                  grid)
            frac = float((rep.coverage < nominal).mean())
            print(f"{kind:<16} {n:>5} {rep.min_coverage:>13.6f} "
                  f"{rep.worst_p:>10.6f} {frac:>14.3f}")


if __name__ == "__main__":
    main()

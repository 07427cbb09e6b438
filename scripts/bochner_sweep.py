"""Margin statistics for the boundary-rot bound over random instances.

Samples nonnegatively curved cylinders (Euler characteristic 0, so the
bound is rot_dS <= 0) and flat pairs-of-pants data (|rot_dS| <= 1) and
prints how close the sweep sails to the bound.  Use --csv to dump the
raw margins for plotting.
"""

import argparse
import sys

import numpy as np

from sl2rotor.config import RunConfig
# the seeded instances are the milnor-wood suite's
from sl2rotor.suites import milnor_wood_cases


def summarize(label, margins):
    m = np.asarray(margins)
    at_bound = int((m < 1e-9).sum())
    print(f"{label}: n={len(m)} violations={int((m < 0).sum())} "
          f"min={m.min():+.3e} median={np.median(m):+.3e} "
          f"max={m.max():+.3e} at_bound={at_bound}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--grid", type=int, default=24,
                    help="path steps and t-resolution for the cylinders")
    ap.add_argument("--csv", type=argparse.FileType("w"), default=None)
    args = ap.parse_args()
    cfg = RunConfig() if args.seed is None else RunConfig(seed=args.seed)

    rows = [(kind, i, rep["value"], rep["bound"], rep["margin"])
            for kind, i, rep in milnor_wood_cases(cfg, args.count, args.count,
                                                  args.grid)]
    cyl_margins = [row[4] for row in rows if row[0] == "cylinder"]
    pants_margins = [row[4] for row in rows if row[0] == "pants"]
    summarize("cylinders", cyl_margins)
    summarize("pants", pants_margins)

    if args.csv is not None:
        args.csv.write("kind,seed,value,bound,margin\n")
        for kind, i, value, bound, margin in rows:
            args.csv.write(f"{kind},{i},{value!r},{bound!r},{margin!r}\n")
        args.csv.close()

    worst = min(min(cyl_margins), min(pants_margins))
    return 0 if worst >= 0.0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run every verification suite and print a one-line summary per suite.

Writes the full JSON reports into --out when given.  Exit status is the
number of failing suites, capped at 99 so it survives shells that
truncate codes.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from sl2rotor.config import RunConfig
from sl2rotor.suites import SUITES, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for the per-suite JSON reports")
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of suite names to run")
    args = ap.parse_args()

    cfg = RunConfig() if args.seed is None else RunConfig(seed=args.seed)
    names = args.only if args.only else sorted(SUITES)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    failed = 0
    width = max(len(n) for n in names)
    for name in names:
        t0 = time.perf_counter()
        rep = run_suite(name, cfg)
        dt = time.perf_counter() - t0
        status = "PASS" if rep["passed"] else "FAIL"
        worst = min(c["margin"] for c in rep["checks"].values())
        print(f"{name:<{width}}  {status}  cases={rep['cases']:<5d} "
              f"failures={rep['failures']:<3d} worst_margin={worst:+.3e}  "
              f"[{dt:.2f}s]")
        if not rep["passed"]:
            failed += 1
            for key, c in rep["checks"].items():
                if not c["satisfied"]:
                    print(f"    {key}: {c['quantity']} = {c['value']:.6g} "
                          f"vs bound {c['bound']:.6g}")
        if args.out is not None:
            with open(args.out / f"{name}.json", "w") as fh:
                json.dump(rep, fh, sort_keys=True, indent=1)
                fh.write("\n")
    return min(failed, 99)


if __name__ == "__main__":
    sys.exit(main())

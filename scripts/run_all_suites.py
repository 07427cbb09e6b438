"""Run every verification suite and print a one-line summary per suite.

A failing suite is followed by its failing case indexes (failing_seeds)
and by each unsatisfied check.  Writes the full JSON reports into --out
when given.  With --compare DIR, each report is compared byte for byte
with DIR/<suite>.json (as written by --out or by
`sl2rotor verify <suite> --out`); every suite that
differs is named, with each differing JSON field: its path, the old and
the new value, and |delta| for numbers.  A differing int, bool or str
field (or a changed type, or a missing one) is flagged with "!", since a
refactor may move float fields only.  Exit status is the number of
failing suites plus the number of differing ones, capped at 99 so it
survives shells that truncate codes.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from sl2rotor.config import RunConfig
from sl2rotor.serialize import dumps_json
from sl2rotor.suites import SUITES, run_suite


def field_diffs(old, new, path: str = ""):
    """Yield (path, old, new) for every leaf where two JSON values differ.

    A key present on one side only gives the value None on the other.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from field_diffs(old.get(key), new.get(key),
                                   f"{path}.{key}" if path else str(key))
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from field_diffs(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def describe_diffs(old, new) -> tuple[list[str], int]:
    """One line per differing field, and the number of flagged fields:
    those whose old or new value is not a float."""
    lines, flagged = [], 0
    for path, a, b in field_diffs(old, new):
        if type(a) is float and type(b) is float:
            lines.append(f"      {path}: {a!r} -> {b!r}  |d| = {abs(b - a):.3g}")
        else:
            flagged += 1
            lines.append(f"    ! {path}: {a!r} -> {b!r} "
                         f"({type(a).__name__} -> {type(b).__name__})")
    return lines, flagged


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for the per-suite JSON reports")
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of suite names to run")
    ap.add_argument("--compare", type=Path, default=None, metavar="DIR",
                    help="directory of reference reports to compare with")
    args = ap.parse_args()

    cfg = RunConfig() if args.seed is None else RunConfig(seed=args.seed)
    names = args.only if args.only else sorted(SUITES)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    failed = 0
    differ = []
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
            if rep["failing_seeds"]:
                print(f"    failing_seeds: {rep['failing_seeds']}"
                      + (" (first 10)" if rep["failures"] > 10 else ""))
            for key, c in rep["checks"].items():
                if not c["satisfied"]:
                    print(f"    {key}: {c['quantity']} = {c['value']:.6g} "
                          f"vs bound {c['bound']:.6g}")
        text = dumps_json(rep)
        if args.out is not None:
            (args.out / f"{name}.json").write_text(text)
        if args.compare is not None:
            ref = args.compare / f"{name}.json"
            if not ref.is_file():
                print(f"    differs: no reference report {ref}")
                differ.append(name)
            elif ref.read_text() != text:
                lines, flagged = describe_diffs(json.loads(ref.read_text()),
                                                json.loads(text))
                print(f"    differs from {ref}"
                      + (f" ({flagged} non-float fields)" if flagged else ""))
                print("\n".join(lines))
                differ.append(name)
    if args.compare is not None:
        print(f"{len(differ)} of {len(names)} reports differ from "
              f"{args.compare}" + (f": {' '.join(differ)}" if differ else ""))
    return min(failed + len(differ), 99)


if __name__ == "__main__":
    sys.exit(main())

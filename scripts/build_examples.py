"""Build one artifact of every kind, then re-verify the stored claims.

Artifacts land in --out (default ./artifacts) as hex-float JSON; the
cylinder is chained from the inverted hyperbolic path it stores next to.
With --compare DIR, each artifact and its .verify.json report is compared
byte for byte with the file of the same name in DIR, and every file that
differs (or is missing on either side) is named; a differing .verify.json
report is followed by its differing fields, as run_all_suites.py prints
them.  Exit status is 1 if a build or verification failed, plus the
number of differing files, capped at 99.
"""

import argparse
import json
import sys
from pathlib import Path

from run_all_suites import describe_diffs  # scripts/ leads sys.path
from sl2rotor.cli import entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("artifacts"))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--res", type=int, default=128,
                    help="path/grid resolution passed to the builders")
    ap.add_argument("--compare", type=Path, default=None, metavar="DIR",
                    help="directory of reference artifacts to compare with")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    common = ["--res", str(args.res)]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    hyp = args.out / "hyperbolic-path.json"
    jobs = [
        ("spiral-path", ["r=2"], args.out / "spiral-path.json"),
        ("elliptic-path", [], args.out / "elliptic-path.json"),
        ("hyperbolic-path", ["invert=true"], hyp),
        ("unit-path", ["lam_target=2.0", "lam=2.6"],
         args.out / "unit-path.json"),
        ("cylinder", [f"src={hyp}"], args.out / "cylinder.json"),
        ("cover", ["mu=3"], args.out / "cover.json"),
    ]

    bad = 0
    differ = []
    for kind, params, path in jobs:
        code = entry(["build", kind, *params, *common, "--out", str(path)])
        if code == 0:
            code = entry(["verify", "--artifact", str(path), "--out",
                          str(path.with_suffix(".verify.json"))])
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"{kind:<16} -> {path}  {status}")
        bad += code != 0
        if args.compare is not None:
            report = path.with_suffix(".verify.json")
            for new in (path, report):
                ref = args.compare / new.name
                both = new.is_file() and ref.is_file()
                if not (both and new.read_bytes() == ref.read_bytes()):
                    print(f"    differs: {new} vs {ref}")
                    differ.append(new.name)
                    if both and new == report:
                        lines, _ = describe_diffs(json.loads(ref.read_text()),
                                                  json.loads(new.read_text()))
                        print("\n".join(lines))
    if args.compare is not None:
        print(f"{len(differ)} of {2 * len(jobs)} files differ from "
              f"{args.compare}" + (f": {' '.join(differ)}" if differ else ""))
    return min((1 if bad else 0) + len(differ), 99)


if __name__ == "__main__":
    sys.exit(main())

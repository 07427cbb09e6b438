"""Benchmark of sl2rotor: closed-loop workloads, one process per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lift-algebra --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics of an untraced run; --trace 1 gives the per-layer metrics of a
traced pass, made after an untraced pass of the same rounds that serves
as the base for trace.overhead_s.  The line before it holds the run's
context (machine, versions, git revision, input make-up).  See README.md.
"""

import os
import sys

# single-threaded numerics: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SL2ROTOR_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

SETUP_REPS = 5
LAYERS = ("core", "cover", "paths", "connections", "disc", "suites",
          "serialize", "cli")


def find_sources(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sl2rotor", "__init__.py")):
        raise SystemExit(f"perfbench: no sl2rotor sources under {src}; "
                         "run from the root of a checkout")
    return src


def fresh_import(src: str):
    """Import sl2rotor and its layer modules anew from the checkout."""
    for name in [n for n in sys.modules
                 if n == "sl2rotor" or n.startswith("sl2rotor.")]:
        del sys.modules[name]
    pkg = importlib.import_module("sl2rotor")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported sl2rotor from {pkg.__file__}, "
                         f"not from {src}")
    for layer in LAYERS:
        try:
            importlib.import_module(f"sl2rotor.{layer}")
        except ModuleNotFoundError:
            pass   # a merged-away layer shows up as absent in the trace
    return pkg


def timed_setup(work, src: str) -> float:
    """Import sl2rotor, build the program-side inputs and warm up."""
    work.close()
    gc.collect()
    t0 = perf_counter()
    work.setup(fresh_import(src))
    return perf_counter() - t0


def run_rounds(work, seconds: float, src: str | None = None,
               rounds: int | None = None, tracer=None) -> tuple[Ops, int, list]:
    """Whole rounds until `seconds` have passed (at least min_rounds), or
    exactly `rounds` rounds when given.

    With `src`, the run starts with a set-up and sets up again between
    its first rounds until it has SETUP_REPS set-up times: spread over
    the run, they meet the host in more than one of its states.
    """
    setups = [timed_setup(work, src)] if src is not None else []
    ops = Ops(tracer)
    t0 = perf_counter()
    done = 0
    while True:
        gc.collect()
        work.round(ops)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= work.min_rounds and perf_counter() - t0 >= seconds:
            break
        if src is not None and len(setups) < SETUP_REPS:
            setups.append(timed_setup(work, src))
    while src is not None and len(setups) < SETUP_REPS:
        setups.append(timed_setup(work, src))
    return ops, done, setups


def op_times(ops: Ops, rounds: int) -> tuple[np.ndarray, list[str]]:
    """Each operation of the round: the lower quartile of its times over
    the run's rounds, and its label.

    A round repeats the same operations in the same order, so times
    reshape to (rounds, ops per round).  The host's speed changes in
    regimes (a fixed numpy loop runs up to 1.8 times slower in some, in
    CPU time as much as in wall time): at some times it is fast with rare
    slow seconds, at others slow with rare fast rounds, at others it
    alternates every few seconds.  The lower quartile reads each of these
    the same way from run to run.  The median flips with the share of fast
    time when the host alternates, and the minimum flips with whether a
    rare fast round happened.  Operations that failed in every round are
    dropped.
    """
    t = np.array(ops.times).reshape(rounds, -1)
    keep = ~np.all(np.isnan(t), axis=0)
    labels = [lab for lab, k in zip(ops.labels, keep) if k]
    return np.nanpercentile(t[:, keep], 25, axis=0), labels


def tail_percentile(n: int) -> float | None:
    """Highest percentile, in steps of 0.1, with ten of n samples beyond
    it; None below 40 samples, where there is no tail."""
    if n < 40:
        return None
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0


def end_to_end(ops: Ops, rounds: int, setup: list[float]) -> tuple[dict, dict]:
    times, _ = op_times(ops, rounds)
    q = tail_percentile(len(times))
    # a round of fewer than 40 operations has no tail percentile: its
    # slowest operation stands in, and the context line says so
    tail = np.percentile(times, q) if q is not None else times.max()
    return {
        "ops_per_s": (len(times) / float(times.sum()), "1/s"),
        "op_p50_ms": (float(np.median(times)) * 1e3, "ms"),
        "op_tail_ms": (float(tail) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }, {"tail_percentile": q if q is not None else "max",
        "ops_per_round": len(times)}


def per_layer(untraced: Ops, traced: Ops, tracer, rounds: int) -> dict:
    """Per-layer totals per round, from the traced pass; the lift split
    and the overhead base come from the untraced pass of the same rounds."""
    units = {name: unit for name, unit, _ in tracing.per_layer_names()}
    vals = {k: v / rounds for k, v in tracer.metrics().items()}
    times, labels = op_times(untraced, rounds)
    for tag in ("well", "wide"):
        sel = [t for t, lab in zip(times, labels) if lab.startswith(tag + ":")]
        vals[f"lift.{tag}.op_p50_ms"] = float(np.median(sel)) * 1e3 if sel else 0.0
    traced_s = float(np.nansum(traced.times))
    vals["trace.coverage_pct"] = 100.0 * tracer.top_s / traced_s
    # per round, each pass read at the lower quartile of its rounds, as
    # the end-to-end figures are
    vals["trace.overhead_s"] = float(op_times(traced, rounds)[0].sum()
                                     - times.sum())
    return {k: (vals[k], units[k]) for k in units}


def git_revision(root: str) -> str:
    """HEAD of the checkout's .git, read directly; 'unknown' without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def label_summary(ops: Ops) -> dict:
    """Median milliseconds and count per operation label."""
    groups: dict[str, list[float]] = {}
    for t, lab in zip(ops.times, ops.labels):
        if not math.isnan(t):
            groups.setdefault(lab, []).append(t)
    return {lab: {"n": len(ts), "p50_ms": float(np.median(ts)) * 1e3}
            for lab, ts in sorted(groups.items())}


def main() -> int:
    ap = argparse.ArgumentParser(description="sl2rotor benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must be a nonnegative 63-bit integer")

    root = os.getcwd()
    src = find_sources(root)
    sys.path.insert(0, src)

    work = WORKLOADS[args.workload](args.seed)
    try:
        ops, rounds, setup = run_rounds(work, args.seconds, src)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _, _ = run_rounds(work, args.seconds, rounds=rounds,
                                          tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(ops, traced, tracer, rounds)
            extra = {"absent": tracer.absent, "per_round": True}
            passes = (ops, traced)
        else:
            metrics, extra = end_to_end(ops, rounds, setup)
            passes = (ops,)
        context = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
            "setup_s_reps": setup, "inputs": work.make_up(),
            "ops": label_summary(ops),
            "machine": {"arch": platform.machine(), "cpus": os.cpu_count(),
                        "system": platform.system(),
                        "release": platform.release()},
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__},
            "git": git_revision(root), **extra,
        }
    finally:
        work.close()

    problems = [p for o in passes for p in o.problems]
    context["problems"] = problems[:10]
    context["errors"] = [e for o in passes for e in o.errors][:10]
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in passes),
        "failed": sum(o.failed for o in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: classify, verify, build.

Exit codes: 0 pass, 1 assertion failure, 2 usage or parse error.  Reports
are always emitted, even on failure; artifact files use hex-float JSON so
identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import connections as cx
from . import paths as pth
from .config import RunConfig
from .core import (
    DegenerateClassification,
    GroupElement,
    LieElement,
    NonUnimodular,
    classify,
    cone_test,
    sl2_log,
    t_function,
)
from .serialize import (
    ParseError,
    cylinder_to_obj,
    dump_json,
    dumps_json,
    load_obj,
    loop_to_obj,
    obj_to_artifact,
    parse_matrix_literal,
    path_to_obj,
    report_csv,
)
from .suites import SUITES, UnknownSuite, claims_of, run_suite, verify_artifact

# every recoverable misuse maps to exit code 2
USAGE_ERRORS = (ParseError, NonUnimodular, UnknownSuite,
                DegenerateClassification, ValueError, OSError)


def _config_from(args) -> RunConfig:
    kw = {}
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        # --tol sets the class band and the parity bound; the cone and
        # flatness slacks are core's fixed MARGIN
        kw["tau_class"] = args.tol
    if getattr(args, "res", None) is not None:
        kw["n"] = args.res
        kw["ns"] = args.res
        kw["mt"] = args.res
    if getattr(args, "format", None) is not None:
        kw["fmt"] = args.format
    return RunConfig(**kw)


def _emit(report: dict, fmt: str, out: str | None) -> None:
    text = report_csv(report) if fmt == "csv" else dumps_json(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    cfg = _config_from(args)
    m = parse_matrix_literal(args.matrix)
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    # the library normalizes away positive scales; the CLI is strict
    if abs(det - 1.0) > 1e-6:
        raise NonUnimodular(f"matrix determinant {det:.6g} is not 1")
    g = GroupElement(m)
    spec = classify(g, cfg.tau_class)
    rep_m = g.m if g.trace >= 0 else -g.m
    x = LieElement(sl2_log(rep_m))  # tr >= 0, so always in the log chart
    report = {
        "input": np.asarray(json.loads(args.matrix), dtype=float).tolist(),
        "class": str(spec),
        "kind": spec.kind,
        "value": spec.value,
        "trace": g.trace,
        "T": t_function(g),
        "log": {
            "matrix": x.x.tolist(),
            "alpha": x.alpha,
            "delta": x.delta,
            "eps": x.eps,
            "cone_class": cone_test(x, cfg.tau_class),
            "cone_margin": x.cone_margin(),
        },
    }
    _emit(report, cfg.fmt, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    if args.artifact is not None:
        report = verify_artifact(load_obj(args.artifact))
    elif args.suite is not None:
        report = run_suite(args.suite, cfg)
    else:
        raise ParseError("verify needs a suite name or --artifact FILE")
    _emit(report, cfg.fmt, args.out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# build


def _params_from(pairs: list[str]) -> dict:
    out = {}
    for raw in pairs:
        key, sep, val = raw.partition("=")
        if not sep or not key:
            raise ParseError(f"parameters are KEY=VALUE, got {raw!r}")
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val  # bare strings (file names) stay strings
    return out


def _take(params: dict, key: str, default=None):
    return params.pop(key) if key in params else default


def _gamma_from(value) -> np.ndarray:
    if value is None or (np.isscalar(value) and float(value) == 0.0):
        return np.zeros((2, 2))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2, 2):
        raise ParseError("gamma must be 0 or a 2x2 array")
    return arr


# each builder returns (artifact object, built artifact, promised claims)


def _build_spiral(params: dict, cfg: RunConfig):
    r = int(_take(params, "r", 2))
    gamma = _gamma_from(_take(params, "gamma"))
    n = _take(params, "n")
    p = pth.spiral_path(r, gamma, n=None if n is None else int(n))
    return path_to_obj(p), p, {"nonneg": True}


def _build_elliptic(params: dict, cfg: RunConfig):
    th0 = float(_take(params, "theta0", 0.3))
    th1 = float(_take(params, "theta1", 2.4))
    n = int(_take(params, "n", cfg.n))
    p = pth.elliptic_itinerary_path(np.linspace(th0, th1, n + 1), n=n)
    return path_to_obj(p), p, {"nonneg": True}


def _build_hyperbolic(params: dict, cfg: RunConfig):
    lam0 = float(_take(params, "lam0", 1.5))
    lam1 = float(_take(params, "lam1", 3.0))
    direction = int(_take(params, "direction", 1))
    invert = bool(_take(params, "invert", False))
    n = int(_take(params, "n", cfg.n))
    p = pth.hyperbolic_itinerary_path(np.linspace(lam0, lam1, n + 1),
                                      direction=direction, n=n)
    if invert:
        p = p.inverted()  # inversion flips the cone side
    return path_to_obj(p), p, {"nonpos" if invert else "nonneg": True}


def _build_unit(params: dict, cfg: RunConfig):
    lam_target = float(_take(params, "lam_target", 2.0))
    lam = float(_take(params, "lam", 2.0))
    n = int(_take(params, "n", 2 * cfg.n))
    g1, k_path, report = pth.unit_path(lam_target, lam, n=n)
    obj = {"kind": "unit-path", "g1": path_to_obj(g1),
           "k": path_to_obj(k_path), "lam": lam, "report": report}
    return obj, {"report": report}, {}


def _build_cylinder(params: dict, cfg: RunConfig):
    src = _take(params, "src")
    if src is None:
        raise ParseError("cylinder build needs src=FILE (a stored path)")
    art = obj_to_artifact(load_obj(str(src)))
    if not isinstance(art, pth.GroupPath):
        raise ParseError("cylinder src must be a group-path artifact")
    mt = int(_take(params, "mt", cfg.mt))
    ns = _take(params, "ns")
    rep0 = art.nodes[0] if np.trace(art.nodes[0]) >= 0 else -art.nodes[0]
    a0 = cx.constant_loop(sl2_log(rep0), mt)
    conn = cx.from_nonpositive_path(art, a0,
                                    ns=None if ns is None else int(ns))
    return cylinder_to_obj(conn), conn, {"nonneg_curved": True, "flat": None}


def _build_cover(params: dict, cfg: RunConfig):
    mu = int(_take(params, "mu", 3))
    src = _take(params, "src")
    if src is None:
        r = int(_take(params, "r", 1))
        m = int(_take(params, "m", cfg.mt))
        gamma = _gamma_from(_take(params, "gamma",
                                  [[0.1, 0.0], [0.0, -0.1]]))
        base = cx.winding_loop(r, gamma, m)
    else:
        base = obj_to_artifact(load_obj(str(src)))
        if not isinstance(base, cx.LoopConnection):
            raise ParseError("cover src must be a loop-connection artifact")
    out = cx.cover(base, mu)
    return loop_to_obj(out), out, {}


BUILDERS = {
    "spiral-path": _build_spiral,
    "elliptic-path": _build_elliptic,
    "hyperbolic-path": _build_hyperbolic,
    "unit-path": _build_unit,
    "cylinder": _build_cylinder,
    "cover": _build_cover,
}


def cmd_build(args) -> int:
    cfg = _config_from(args)
    params = _params_from(args.params)
    obj, art, promised = BUILDERS[args.kind](params, cfg)
    if params:
        raise ParseError(f"unknown parameters for {args.kind}: "
                         f"{sorted(params)}")
    obj["claims"] = claims_of(obj["kind"], art, **promised)
    dump_json(obj, args.out)
    summary = {"kind": obj["kind"], "out": args.out, "claims": obj["claims"]}
    _emit(summary, cfg.fmt, None)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--tol", type=float, default=None,
                     help="classification tolerance and parity bound")
    sub.add_argument("--res", type=int, default=None,
                     help="path and grid resolution")
    sub.add_argument("--format", choices=("json", "csv"), default=None)


@functools.cache  # one parser per process; parse_args keeps no state
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2rotor",
        description="PSL(2,R) classification, rotation numbers, "
                    "nonnegative paths and discrete connections")
    subs = parser.add_subparsers(dest="command", required=True)

    p_cls = subs.add_parser("classify",
                            help="conjugacy class of a 2x2 matrix literal")
    p_cls.add_argument("matrix", help='JSON literal, e.g. "[[2,0],[0,0.5]]"')
    p_cls.add_argument("--out", default=None)
    _add_common(p_cls)
    p_cls.set_defaults(fn=cmd_classify)

    p_ver = subs.add_parser("verify",
                            help="run a named sweep or re-check an artifact")
    p_ver.add_argument("suite", nargs="?", choices=sorted(SUITES),
                       default=None)
    p_ver.add_argument("--artifact", default=None,
                       help="re-check the claims of a built artifact file")
    p_ver.add_argument("--out", default=None)
    _add_common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_bld = subs.add_parser("build", help="construct and save an artifact")
    p_bld.add_argument("kind", choices=sorted(BUILDERS))
    p_bld.add_argument("params", nargs="*", metavar="KEY=VALUE")
    p_bld.add_argument("--out", required=True)
    _add_common(p_bld)
    p_bld.set_defaults(fn=cmd_build)
    return parser


def entry(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except USAGE_ERRORS as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}", "passed": False},
              getattr(args, "format", None) or "json", None)
        print(f"sl2rotor: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())

"""The workloads: seeded inputs, timed operations, correctness oracles.

Every workload is a closed loop: one operation starts when the previous
one returns.  A round is a fixed list of operations over inputs drawn
once from the seed; a run repeats whole rounds.  Operations call only
the public sl2rotor API, looked up on the module at call time so that a
traced run sees the patched bindings.  Oracles run after each round,
outside the timed calls, and compare against computations made here
with numpy/scipy or against properties the method must have.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from time import perf_counter

import numpy as np
from scipy.linalg import expm

PI = np.pi


class Ops:
    """Timed closed-loop calls: a label and seconds per attempted call.

    A failed call, or one whose input came from a failed call (which is
    not made), is recorded with time NaN, so every round attempts the same
    operations in the same order and times reshape to (rounds, ops).
    """

    def __init__(self, tracer=None) -> None:
        self.times: list[float] = []
        self.labels: list[str] = []
        self.failed = 0
        self.problems: list[str] = []   # oracle findings
        self.errors: list[str] = []     # exceptions of failed calls
        self.tracer = tracer

    @property
    def attempted(self) -> int:
        return len(self.times)

    def call(self, label: str, fn, *args):
        self.labels.append(label)
        if any(a is None for a in args):
            self.failed += 1
            self.times.append(float("nan"))
            return None
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:   # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            self.times.append(float("nan"))
            return None
        self.times.append(perf_counter() - t0)
        return out

    def check(self, fn, *args) -> None:
        """Run an oracle untimed and untraced; record what it finds."""
        if self.tracer is not None:
            self.tracer.active = False
        try:
            fn(*args)
        except CheckFailed as exc:
            self.problems.append(str(exc))
        finally:
            if self.tracer is not None:
                self.tracer.active = True


class CheckFailed(AssertionError):
    """An oracle disagreed with the program's output."""


def _require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# helpers shared by the input generators (benchmark-side numpy only)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_traceless(rng, scale: float) -> np.ndarray:
    a, b, c = rng.normal(0.0, scale, size=3)
    return np.array([[a, b], [c, -a]])


def stratified(rng, n: int) -> np.ndarray:
    """n uniforms on [0, 1), one in each of n equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def sigma_sq(m: np.ndarray) -> float:
    """Squared largest singular value."""
    return float(np.linalg.svd(m, compute_uv=False)[0] ** 2)


def smoothstep(s: np.ndarray) -> np.ndarray:
    u = np.clip((s - 0.25) * 2.0, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def psl_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return min(np.abs(a - b).max(), np.abs(a + b).max()) <= tol


# ---------------------------------------------------------------------------
# lift-algebra


class LiftAlgebra:
    """rot, compose, inverse, sl2_rep and classify on seeded lifts.

    Bases are elliptic, hyperbolic and parabolic (both orientations), each
    conjugated and lifted with a deck shift in -2..2.  The N_WELL
    conjugators are exp of a traceless matrix with entries of spread 0.5,
    as the suites draw them, and each well lift is composed with another
    well lift.  The N_WIDE conjugators are R(a) diag(s, 1/s) R(b):
    N_LADDER of them with log10 s stratified over [0.5, 0.9] and the kinds
    in turn, and N_PLATEAU elliptic ones at the cap s = 10 with theta
    within 0.35 of pi/2, where sigma^2 is 0.88e4 to 0.99e4.  A wide lift
    is composed with a lift of a rotation, which leaves sigma^2 unchanged,
    so the slowest operations of a round cost the same on every seed and
    the tail percentile falls on the plateau.
    """

    name = "lift-algebra"
    N_WELL, N_LADDER, N_PLATEAU = 224, 24, 8
    N_WIDE = N_LADDER + N_PLATEAU
    min_rounds = 3
    KINDS = ("elliptic", "hyperbolic", "parabolic_nonneg",
             "elliptic", "hyperbolic", "parabolic_nonpos")

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 101])
        well_kinds = rng.permutation(np.resize(self.KINDS, self.N_WELL))
        ladder_s = 10.0 ** (0.5 + 0.4 * stratified(rng, self.N_LADDER))
        ladder_u = stratified(rng, self.N_LADDER)
        plateau_u = stratified(rng, self.N_PLATEAU)
        self.specs = []
        for i in range(self.N_WELL):
            kind = str(well_kinds[i])
            self.specs.append(self._spec(
                rng, kind, _class_value(kind, rng.random()),
                expm(random_traceless(rng, 0.5)), False))
        for j in range(self.N_LADDER):
            kind = self.KINDS[j % len(self.KINDS)]
            s = ladder_s[j]
            h = (rotation(rng.uniform(0, PI)) @ np.diag([s, 1.0 / s])
                 @ rotation(rng.uniform(0, PI)))
            self.specs.append(self._spec(
                rng, kind, _class_value(kind, ladder_u[j]), h, True))
        for u in plateau_u:
            theta = PI / 2 + rng.choice([-1.0, 1.0]) * (0.1 + 0.25 * u)
            h = rotation(rng.uniform(0, PI)) @ np.diag([10.0, 0.1])
            self.specs.append(self._spec(rng, "elliptic", theta, h, True))
        n = len(self.specs)
        # partners: another well lift, or for a wide lift a rotation lift
        # appended after the operated-on lifts
        self.partner = [int(rng.integers(0, self.N_WELL))
                        for _ in range(self.N_WELL)]
        for _ in range(self.N_WIDE):
            self.partner.append(len(self.specs))
            psi = rng.uniform(0.05, PI / 2 - 0.05) + PI / 2 * rng.integers(0, 2)
            self.specs.append(self._spec(rng, "elliptic", psi, np.eye(2),
                                         False))
        self.n_ops_lifts = n

    @staticmethod
    def _spec(rng, kind: str, value, h: np.ndarray, wide: bool) -> dict:
        if kind == "elliptic":
            base = rotation(value)
        elif kind == "hyperbolic":
            base = np.diag([value, 1.0 / value])
        else:
            base = np.array([[1.0, 0.0],
                             [1.0 if kind == "parabolic_nonneg" else -1.0,
                              1.0]])
        hinv = np.array([[h[1, 1], -h[0, 1]], [-h[1, 0], h[0, 0]]])
        m = h @ base @ hinv / det2(h)
        k = int(rng.integers(-2, 3))
        return {"m": m, "kind": kind, "value": value, "k": k, "wide": wide,
                "sigma_sq": sigma_sq(m), "rot": _expected_rot(m, kind, value, k)}

    def make_up(self) -> dict:
        specs = self.specs[:self.n_ops_lifts]
        sig = np.array([s["sigma_sq"] for s in specs])
        wide = np.array([s["wide"] for s in specs])
        return {"lifts": len(specs), "wide_share": float(wide.mean()),
                "sigma_sq_quartiles_all": np.percentile(sig, [25, 50, 75]).tolist(),
                "sigma_sq_quartiles_wide": np.percentile(sig[wide], [25, 50, 75]).tolist(),
                "sigma_sq_max": float(sig.max()),
                "ops_per_round": 9 * len(specs)}

    def setup(self, sl) -> None:
        self.sl = sl
        self.lifts = []
        self.decked = []
        for spec in self.specs:
            g = sl.GroupElement(spec["m"])
            anchor = float(np.arctan2(g.m[1, 0], g.m[0, 0]) % PI)
            lift = sl.LiftedElement(g, anchor + spec["k"] * PI)
            self.lifts.append(lift)
            self.decked.append(sl.deck(lift, 1))
        for i in range(0, self.n_ops_lifts, 37):   # warm every op path
            self._ops_for(i, Ops())

    def _ops_for(self, i: int, ops: Ops) -> dict:
        cover, core = self.sl.cover, self.sl.core
        lift, partner = self.lifts[i], self.lifts[self.partner[i]]
        tag = "wide" if self.specs[i]["wide"] else "well"
        out = {"spec": ops.call(f"{tag}:classify", core.classify, lift.g),
               "rot": ops.call(f"{tag}:rot", cover.rot, lift)}
        inv = ops.call(f"{tag}:inverse", cover.inverse, lift)
        out["rot_inv"] = ops.call(f"{tag}:rot", cover.rot, inv)
        prod = ops.call(f"{tag}:compose", cover.compose, lift, partner)
        out["rot_prod"] = ops.call(f"{tag}:rot", cover.rot, prod)
        out["rep"] = ops.call(f"{tag}:sl2_rep", cover.sl2_rep, lift)
        out["rep_prod"] = ops.call(f"{tag}:sl2_rep", cover.sl2_rep, prod)
        out["rep_deck"] = ops.call(f"{tag}:sl2_rep", cover.sl2_rep,
                                   self.decked[i])
        return out

    def round(self, ops: Ops) -> None:
        results = [self._ops_for(i, ops) for i in range(self.n_ops_lifts)]
        for spec in self.specs[self.n_ops_lifts:]:
            # rotation partner: rot and sl2 image known in closed form
            results.append({"rot": spec["rot"],
                            "rep": rotation(spec["value"] + spec["k"] * PI)})
        for i in range(self.n_ops_lifts):
            ops.check(self._check, i, results[i], results[self.partner[i]])

    def _check(self, i: int, res: dict, pres: dict) -> None:
        spec = self.specs[i]
        kind, value, want = spec["kind"], spec["value"], spec["rot"]
        tol = 1e-9 * max(1.0, spec["sigma_sq"])
        got = res["spec"]
        if got is not None:
            _require(got.kind == kind, f"lift {i}: class {got.kind} != {kind}")
            if value is not None:
                _require(abs(got.value - value) <= tol,
                         f"lift {i}: class value {got.value} != {value}")
        r = res["rot"]
        if r is not None:
            if kind == "elliptic":
                _require(abs(r - want) <= tol,
                         f"lift {i}: rot {r} != k + theta/pi = {want}")
            else:
                _require(r == round(r), f"lift {i}: rot {r} not an integer")
                _require(want is None or r == want,
                         f"lift {i}: rot {r} != {want} (deck shift {spec['k']})")
            if res["rot_inv"] is not None:
                _require(abs(res["rot_inv"] + r) <= 1e-9,
                         f"lift {i}: rot(inverse) {res['rot_inv']} != -{r}")
            if res["rot_prod"] is not None and pres["rot"] is not None:
                defect = res["rot_prod"] - r - pres["rot"]
                _require(abs(defect) <= 1.0 + 1e-9,
                         f"lift {i}: quasimorphism defect {defect}")
        rep = res["rep"]
        if rep is not None:
            m = self.lifts[i].g.m
            _require(psl_close(rep, m, 0.0), f"lift {i}: sl2_rep is not +-g")
            if res["rep_deck"] is not None:
                _require(np.array_equal(res["rep_deck"], -rep),
                         f"lift {i}: sl2_rep(deck(l, 1)) != -sl2_rep(l)")
            if res["rep_prod"] is not None and pres["rep"] is not None:
                prod = rep @ pres["rep"]
                err = np.abs(res["rep_prod"] - prod).max()
                _require(err <= 1e-9 * max(1.0, np.abs(prod).max()),
                         f"lift {i}: sl2_rep not multiplicative ({err})")

    def close(self) -> None:
        pass


def _class_value(kind: str, u: float):
    """Elliptic angle in [0.05, pi - 0.05] or multiplier in [e^0.1, e]."""
    if kind == "elliptic":
        return 0.05 + (PI - 0.1) * u
    if kind == "hyperbolic":
        return float(np.exp(0.1 + 0.9 * u))
    return None


def _expected_rot(m: np.ndarray, kind: str, value, k: int):
    """rot of the lift with anchor (angle of m e1 mod pi) + k pi.

    Elliptic: k + theta / pi.  Otherwise a fixed direction x0 of m gives
    rot = (f(x0) - x0) / pi, with the closed form of an increasing
    pi-periodic lift on [0, pi): f(x) = a + ((x - a) mod pi) for a the
    anchor in [0, pi).  None when x0 sits on the anchor to rounding and
    the closed form cannot pick the branch.
    """
    if kind == "elliptic":
        return k + value / PI
    # fixed directions are the zeros of q(v) = det(v, m v) = v^T Q v
    a_, b_, c_, d_ = m.ravel()
    w, v = np.linalg.eigh(np.array([[c_, 0.5 * (d_ - a_)],
                                    [0.5 * (d_ - a_), -b_]]))
    if kind == "hyperbolic":
        vec = np.sqrt(max(w[1], 0.0)) * v[:, 0] + np.sqrt(max(-w[0], 0.0)) * v[:, 1]
    else:   # parabolic: q is semidefinite, its null direction is fixed
        vec = v[:, int(np.argmin(np.abs(w)))]
    x0 = float(np.arctan2(vec[1], vec[0]) % PI)
    a = float(np.arctan2(m[1, 0], m[0, 0]) % PI)
    gap = (x0 - a) % PI
    if min(gap, PI - gap) < 1e-7:
        return None
    return float(k + round((a + gap - x0) / PI))


# ---------------------------------------------------------------------------
# cylinder-pipeline


class CylinderPipeline:
    """One operation is one cylinder's life at one grid size.

    A nonpositive path exp(-s gamma) g0 goes through from_nonpositive_path,
    curvature margins, rot_boundary and milnor_wood_check; then a flat
    winding cylinder goes through dehn_twist, rot_c before and after,
    gauge by a grid of n half-turns, gauge_crossing_class and rot_c of the
    gauged cylinder.  A round visits each size in SIZES once.  Size 16,
    the smallest grid RunConfig allows, is left out: there rot_c of the
    gauged cylinder misses half-turns when |n| >= 3 (see CHANGES.md).
    """

    name = "cylinder-pipeline"
    SIZES = (24, 32, 48, 64, 96, 128, 192, 256)
    min_rounds = 7
    MARGIN = 1e-8

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 202])
        self.cases = []
        for i, size in enumerate(self.SIZES):
            alpha = rng.uniform(0.05, 0.25)
            rad = alpha * rng.uniform(0.0, 0.95)
            phase = rng.uniform(0.0, 2 * PI)
            d, e = rad * np.cos(phase), rad * np.sin(phase)
            gamma = np.array([[e, d - alpha], [d + alpha, -e]])
            while True:
                h = expm(random_traceless(rng, 0.4))
                if rng.random() < 0.5:
                    lam = float(np.exp(rng.uniform(0.2, 0.9)))
                    base = np.diag([lam, 1.0 / lam])
                else:
                    base = rotation(rng.uniform(0.3, PI - 0.3))
                g0 = h @ base @ np.linalg.inv(h)
                if np.linalg.norm(g0) <= 3.0:
                    break
            svals = np.linspace(0.0, 1.0, size)
            nodes = expm(-svals[:, None, None] * gamma) @ g0
            # the winding r sets how finely loops are subdivided, so it is
            # fixed per size: a seed changes values, not work
            r = 1 + i % 3
            n = int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
            ang = n * PI * smoothstep(np.linspace(0.0, 1.0, size))
            phi = np.zeros((size, size, 2, 2))
            phi[..., 0, 0] = phi[..., 1, 1] = np.cos(ang)[:, None]
            phi[..., 0, 1] = -np.sin(ang)[:, None]
            phi[..., 1, 0] = np.sin(ang)[:, None]
            tau = int(rng.integers(0, r + 1)) / r + float(rng.integers(-1, 2))
            self.cases.append({
                "size": size, "nodes": nodes,
                "rep": g0 if np.trace(g0) >= 0 else -g0,
                "r": r, "u": float(rng.uniform(0.05, 0.14)), "n": n,
                "phi": phi, "tau": tau})

    def make_up(self) -> dict:
        return {"sizes": list(self.SIZES),
                "windings_r": [c["r"] for c in self.cases],
                "half_turns_n": [c["n"] for c in self.cases],
                "ops_per_round": len(self.cases)}

    def setup(self, sl) -> None:
        self.sl = sl
        self._life(self.cases[0])   # warm every call on the smallest grid

    def _life(self, case: dict) -> dict:
        sl = self.sl
        cx = sl.connections
        size = case["size"]
        path = sl.GroupPath(case["nodes"])
        a0 = cx.constant_loop(sl.sl2_log(case["rep"]), size)
        conn = cx.from_nonpositive_path(path, a0)
        out = {"conn": conn,
               "margins": conn.curvature_margins(),
               "rot_boundary": conn.rot_boundary(),
               "mw": cx.milnor_wood_check(conn, flat=False,
                                          margin_tol=self.MARGIN)}
        r = case["r"]
        u = case["u"]
        base = cx.cover(cx.winding_loop(1, np.diag([u, -u]), size), r)
        flat = cx.pullback_flat(base, size)
        out["before"] = cx.rot_c(flat, 1.0 / r)
        twisted = cx.dehn_twist(flat)
        out["after"] = cx.rot_c(twisted, 1.0 / r)
        out["rb_flat"] = flat.rot_boundary()
        out["rb_twisted"] = twisted.rot_boundary()
        gauged = cx.gauge(flat, case["phi"])
        tau = case["tau"]
        out["crossing_class"] = cx.gauge_crossing_class(
            case["phi"], np.linspace(0.0, tau, size))
        out["shift"] = cx.rot_c(gauged, tau) - cx.rot_c(flat, tau)
        return out

    def round(self, ops: Ops) -> None:
        for case in self.cases:
            res = ops.call(f"size{case['size']}", self._life, case)
            if res is not None:
                ops.check(self._check, case, res)

    def _check(self, case: dict, res: dict) -> None:
        size, nodes, conn = case["size"], case["nodes"], res["conn"]
        where = f"size {size}"
        grid = np.asarray(conn.grid)
        # the grid is integrated in s and transported in t by midpoint
        # rules, so holonomies meet the path at second order: measured
        # error times size^2 stays below 1.1 on sizes 16..128, 12 seeds
        tol = 4.0 / size ** 2
        for i in (0, size // 2, size - 1):
            hol = conn.holonomy_loop(i).m
            _require(psl_close(hol / np.sqrt(det2(hol)), nodes[i], tol),
                     f"{where}: holonomy_loop({i}) != path node {i}")
            mid = 0.5 * (grid[i] + np.roll(grid[i], -1, axis=0)) / size
            prod = np.eye(2)
            for step in expm(mid):
                prod = step @ prod
            _require(psl_close(prod, nodes[i], tol),
                     f"{where}: expm midpoint product != path node {i}")
        curv = -np.gradient(grid, 1.0 / (size - 1), axis=0, edge_order=2)
        alpha = 0.5 * (curv[..., 1, 0] - curv[..., 0, 1])
        radius = np.hypot(0.5 * (curv[..., 1, 0] + curv[..., 0, 1]),
                          curv[..., 0, 0])
        _require((alpha - radius).min() >= -self.MARGIN,
                 f"{where}: curvature margin {(alpha - radius).min()}")
        _require(np.min(res["margins"]) >= -self.MARGIN,
                 f"{where}: reported curvature margin {np.min(res['margins'])}")
        _require(res["rot_boundary"] <= 0.0,
                 f"{where}: rot_boundary {res['rot_boundary']} > 0")
        mw = res["mw"]
        _require(mw["bound"] == 0.0 and mw["satisfied"]
                 and mw["hypothesis_ok"] and mw["value"] <= 0.0,
                 f"{where}: milnor_wood_check {mw}")
        _require(res["after"] - res["before"] == -case["r"],
                 f"{where}: twist shifted rot_c by "
                 f"{res['after'] - res['before']}, not -{case['r']}")
        _require(res["rb_twisted"] == res["rb_flat"],
                 f"{where}: twist moved rot_boundary")
        _require(res["crossing_class"] == case["n"]
                 and res["shift"] == case["n"],
                 f"{where}: gauge shift {res['shift']} / class "
                 f"{res['crossing_class']} != {case['n']} half-turns")

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# CLI workloads


class CliError(RuntimeError):
    """The CLI exited with the usage/parse error code 2."""


def run_cli(sl, argv: list[str]) -> tuple[int, str]:
    """cli.entry in this process; returns (exit code, captured stdout).

    Exit code 2 (usage or parse error) is a failed operation; exit code 1
    (a claim did not hold) is left to the oracles.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sl.cli.entry(argv)
    if code == 2:
        raise CliError(f"{' '.join(argv[:2])}: {err.getvalue().strip()}")
    return code, out.getvalue()


def _hex_array(data: list[str]) -> np.ndarray:
    return np.array([float.fromhex(v) for v in data], dtype=float)


class CliRoundtrip:
    """The command line in process: `build`, `verify --artifact` and
    `verify <suite>`, each one cli.entry call and one operation.

    A round builds all six kinds, each followed by `verify --artifact`, at
    the --res values in COARSE, where the cylinder is built from the
    inverted hyperbolic path of the same resolution.  At the default
    resolution it does the same for every kind but the cylinder: from the
    default 1000-step path that is a 26 MB artifact whose build takes
    2-3 s, and so few rounds of so long an operation fit in a run that its
    reading moves with the host (see README.md).  Then it verifies the
    QUICK_SUITES, the suites that take under a second each.  Artifacts are
    parsed here on first sight (hex floats, det = 1, traceless grids,
    claims) and compared byte for byte with the first build afterwards.
    """

    name = "cli-roundtrip"
    COARSE = (64, 96, 128, 192)
    QUICK_SUITES = ("cover", "cylinder-constructor", "hyperdisc",
                    "three-classes", "two-elliptic")
    KINDS = ("spiral-path", "elliptic-path", "hyperbolic-path", "unit-path",
             "cylinder", "cover")
    min_rounds = 3

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 303])
        self.seed = seed
        # windings are fixed: the cost of the spiral and cover builds
        # grows with them, and a seed should change values, not work
        self.r, self.mu, self.cover_r = 2, 3, 1
        # symmetric traceless gamma: exp(gamma) is hyperbolic, so the
        # spiral ends on an integer rot and its gain is exactly r
        u, ang = rng.uniform(0.02, 0.12), rng.uniform(0.0, PI)
        self.gamma = [[u * np.cos(ang), u * np.sin(ang)],
                      [u * np.sin(ang), -u * np.cos(ang)]]
        self.params = {
            "spiral-path": [f"r={self.r}",
                            f"gamma={json.dumps(self.gamma)}"],
            # ranges keep the coarsest grid (64 steps) inside the builders'
            # limits: angle drift 1e-6 and node step 0.5
            "elliptic-path": [f"theta0={rng.uniform(0.35, 0.5)!r}",
                              f"theta1={rng.uniform(2.2, 2.5)!r}"],
            "hyperbolic-path": [f"lam0={rng.uniform(1.3, 1.7)!r}",
                                f"lam1={rng.uniform(2.6, 3.4)!r}",
                                "invert=true"],
            "unit-path": [f"lam_target={rng.uniform(1.5, 3.0)!r}",
                          f"lam={rng.uniform(2.1, 2.8)!r}"],
            "cover": [f"mu={self.mu}", f"r={self.cover_r}"],
        }
        self.digests: dict[str, str] = {}
        self.sweep = VerifySuites(seed, self.QUICK_SUITES)

    def make_up(self) -> dict:
        return {"resolutions": ["default", *self.COARSE],
                "params": self.params, "suites": list(self.QUICK_SUITES),
                "ops_per_round": 2 * (len(self.KINDS) * (1 + len(self.COARSE)) - 1)
                + len(self.QUICK_SUITES)}

    def _jobs(self, res):
        tag = "default" if res is None else str(res)
        common = ["--seed", str(self.seed)]
        if res is not None:
            common += ["--res", str(res)]
        d = self.tmp
        hyp = os.path.join(d, f"hyperbolic-path-{tag}.json")
        for kind in self.KINDS:
            if kind == "cylinder" and res is None:
                continue
            out = hyp if kind == "hyperbolic-path" else os.path.join(
                d, f"{kind}-{tag}.json")
            params = [f"src={hyp}"] if kind == "cylinder" else self.params[kind]
            yield kind, tag, ["build", kind, *params, *common, "--out", out], out

    def setup(self, sl) -> None:
        self.sl = sl
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=_scratch_dir())
        for kind, tag, argv, out in self._jobs(self.COARSE[0]):
            run_cli(sl, argv)
            run_cli(sl, ["verify", "--artifact", out])
        self.sweep.setup(sl)

    def round(self, ops: Ops) -> None:
        for res in (None, *self.COARSE):
            for kind, tag, argv, out in self._jobs(res):
                built = ops.call(f"build:{kind}:{tag}", run_cli, self.sl, argv)
                checked = ops.call(f"verify:{kind}:{tag}", run_cli, self.sl,
                                   ["verify", "--artifact", out])
                if built is not None and checked is not None:
                    ops.check(self._check, kind, tag, out, built, checked)
        self.sweep.round(ops)

    def _check(self, kind, tag, path, built, checked) -> None:
        where = f"{kind} at res {tag}"
        _require(built[0] == 0, f"{where}: build exited {built[0]}")
        _require(checked[0] == 0, f"{where}: verify exited {checked[0]}")
        _require(json.loads(checked[1])["passed"] is True,
                 f"{where}: verify report did not pass")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        key = f"{kind}:{tag}"
        if key in self.digests:
            _require(self.digests[key] == digest,
                     f"{where}: rebuilding gave different bytes")
            return
        self.digests[key] = digest
        with open(path) as fh:
            obj = json.load(fh)
        claims = json.loads(built[1])["claims"]
        _require(claims == obj["claims"], f"{where}: printed claims differ")
        if kind == "unit-path":
            for part in ("g1", "k"):
                self._check_path(obj[part], f"{where} {part}")
            _require(claims["rot_gain"] == 1.0 and claims["k_rot"] == 0.0,
                     f"{where}: claims {claims}")
        elif kind == "cylinder":
            grid = _hex_array(obj["data"])
            _require(grid.size == obj["ns"] * obj["mt"] * 4,
                     f"{where}: grid size")
            grid = grid.reshape(obj["ns"], obj["mt"], 2, 2)
            tr = np.abs(grid[..., 0, 0] + grid[..., 1, 1]).max()
            _require(tr <= 1e-12 * (1.0 + np.abs(grid).max()),
                     f"{where}: grid trace {tr}")
            _require(claims["rot_boundary"] <= 0.0,
                     f"{where}: rot_boundary {claims['rot_boundary']} > 0")
        elif kind == "cover":
            samples = _hex_array(obj["data"]).reshape(obj["m"], 2, 2)
            tr = np.abs(samples[:, 0, 0] + samples[:, 1, 1]).max()
            _require(tr <= 1e-12 * (1.0 + np.abs(samples).max()),
                     f"{where}: samples trace {tr}")
            _require(abs(claims["rot"] - self.mu * self.cover_r) <= 1e-9,
                     f"{where}: rot {claims['rot']} != mu r")
        else:
            self._check_path(obj, where)
            if kind == "spiral-path":
                _require(claims["rot_gain"] == self.r,
                         f"{where}: rot_gain {claims['rot_gain']} != r")

    def _check_path(self, obj: dict, where: str) -> None:
        nodes = _hex_array(obj["data"])
        _require(nodes.size == (obj["n"] + 1) * 4, f"{where}: node count")
        det = det2(nodes.reshape(-1, 2, 2))
        _require(np.abs(det - 1.0).max() <= 1e-12,
                 f"{where}: node det off by {np.abs(det - 1.0).max()}")

    def close(self) -> None:
        shutil.rmtree(getattr(self, "tmp", ""), ignore_errors=True)
        self.sweep.close()


class VerifySuites:
    """Every registered suite once per round, through `cli.entry verify`.

    The suites draw their cases from RunConfig's default seed, not from
    the benchmark seed: cylinder-constructor fails at some seeds (see
    CHANGES.md), and a workload must not fail on some seeds only.  Each
    report must pass, and the bound of each theorem check must be the
    theorem's own: quasimorphism defect 1, cylinder rot_dS 0, pants 1.
    """

    name = "verify-suites"
    min_rounds = 1
    WARMUP = "two-elliptic"

    def __init__(self, seed: int, names: tuple[str, ...] = ()) -> None:
        self.names = list(names)   # empty: every registered suite

    def make_up(self) -> dict:
        return {"suites": self.names, "ops_per_round": len(self.names)}

    def setup(self, sl) -> None:
        self.sl = sl
        self.seed = sl.RunConfig().seed
        if not self.names:
            self.names = sorted(sl.SUITES)
        self.tmp = tempfile.mkdtemp(prefix="suites-", dir=_scratch_dir())
        self._verify(self.WARMUP)

    def _verify(self, name: str) -> dict:
        out = os.path.join(self.tmp, f"{name}.json")
        code, _ = run_cli(self.sl, ["verify", name, "--out", out])
        with open(out) as fh:
            return {"code": code, "report": json.load(fh)}

    def round(self, ops: Ops) -> None:
        for name in self.names:
            res = ops.call(f"suite:{name}", self._verify, name)
            if res is not None:
                ops.check(self._check, name, res)

    def _check(self, name: str, res: dict) -> None:
        rep = res["report"]
        _require(res["code"] == 0 and rep["passed"] is True
                 and rep["failures"] == 0, f"{name}: report did not pass")
        _require(rep["seed"] == self.seed, f"{name}: seed not echoed")
        checks = rep["checks"]
        for key, check in checks.items():
            _require(check["satisfied"], f"{name}.{key}: {check}")
        if name == "quasimorphism":
            b = checks["defect"]["bound"]
            _require(abs(b - 1.0) <= 1e-6, f"defect bound {b} is not 1")
        elif name == "milnor-wood":
            b = checks["cylinder_bound"]["bound"]
            _require(b == 0.0, f"cylinder rot_dS bound {b} is not 0")
            # the pants check is stored as |rot_dS| - 1 against ~0
            b = checks["pants_bound"]["bound"]
            _require(abs(b) <= 1e-9, f"pants |rot_dS| bound {1 + b} is not 1")

    def close(self) -> None:
        shutil.rmtree(getattr(self, "tmp", ""), ignore_errors=True)


def _scratch_dir() -> str:
    d = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(d, exist_ok=True)
    return d


WORKLOADS = {w.name: w for w in (LiftAlgebra, CylinderPipeline, CliRoundtrip,
                                 VerifySuites)}

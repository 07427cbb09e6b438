"""Seeded verification sweeps behind the CLI's verify command.

Every suite runs a deterministic batch of instances from a RunConfig seed
and returns a plain-dict report: case/failure counts, the worst value of
each checked quantity against its bound, and the orientation conventions
wherever a sign could be read two ways.  Reports contain no timestamps,
so identical configs give byte-identical JSON.
"""

from __future__ import annotations

import numpy as np

from . import connections as cx
from . import cover
from . import disc as dsc
from . import paths as pth
from .config import RunConfig
from .core import (
    GroupElement,
    LieElement,
    classify,
    cone_margins,
    mat_inv,
    psl_dist,
    random_lie,
    rotation,
    sl2_exp,
    sl2_log,
)

BOUNDARY_CONVENTION = ("rot_dS = rot(l1) - rot(l0); the s = 0 circle is "
                       "orientation-reversed; transport dPi/dt Pi^-1 = A")
TWIST_CONVENTION = ("positive twist pulls back by (s, t - beta(s)); crossing "
                    "paths run from s = 0 to s = 1")


class UnknownSuite(ValueError):
    """verify was asked for a suite that does not exist."""


def _check(quantity: str, value: float, bound: float, mode: str = "le",
           convention: str = "") -> dict:
    margin = (bound - value) if mode == "le" else (value - bound)
    return {"quantity": quantity, "value": float(value), "bound": float(bound),
            "margin": float(margin), "convention": convention,
            "satisfied": bool(margin >= 0.0)}


def _report(name: str, cfg: RunConfig, cases: int, fail_idx: list[int],
            checks: dict) -> dict:
    ok = not fail_idx and all(c["satisfied"] for c in checks.values())
    return {
        "suite": name,
        "seed": cfg.seed,
        "cases": cases,
        "failures": len(fail_idx),
        "failing_seeds": sorted(fail_idx)[:10],
        "checks": checks,
        "passed": ok,
        "config": {"n": cfg.n, "ns": cfg.ns, "mt": cfg.mt,
                   "tau_class": cfg.tau_class, "eps_eq": cfg.eps_eq,
                   "margin": cfg.margin},
    }


def _sweep(case_fn, cases: int):
    """Run case_fn(i) -> (ok, slack) over all indexes in order."""
    fails: list[int] = []
    worst = np.inf
    for i in range(cases):
        ok, slack = case_fn(i)
        if not ok:
            fails.append(i)
        worst = min(worst, slack)
    return fails, float(worst)


# ---------------------------------------------------------------------------
# samplers


def _conjugated(rng, rep: np.ndarray, spread: float = 0.5) -> GroupElement:
    h = sl2_exp(random_lie(rng, spread))
    return GroupElement(h @ rep @ mat_inv(h))


def _random_lift(rng) -> cover.LiftedElement:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        g = _conjugated(rng, rotation(float(rng.uniform(0.05, np.pi - 0.05))))
    elif kind == 1:
        lam = float(np.exp(rng.uniform(0.1, 1.0)))
        g = _conjugated(rng, np.diag([lam, 1.0 / lam]))
    else:
        g = GroupElement(sl2_exp(random_lie(rng, 0.6)))
    return cover.deck(cover.lift_of(g), int(rng.integers(-2, 3)))


def _random_cone_element(rng, lo: float = 0.05, hi: float = 0.25) -> np.ndarray:
    alpha = float(rng.uniform(lo, hi))
    rad = alpha * float(rng.uniform(0.0, 0.95))
    phi = float(rng.uniform(0.0, 2 * np.pi))
    delta, eps = rad * np.cos(phi), rad * np.sin(phi)
    return np.array([[eps, delta - alpha], [delta + alpha, -eps]])


# ---------------------------------------------------------------------------
# suites


def suite_quasimorphism(cfg: RunConfig) -> dict:
    bound = 1.0 + 1e-6

    def case(i):
        rng = np.random.default_rng([cfg.seed, 11, i])
        l1, l2 = _random_lift(rng), _random_lift(rng)
        d = cover.rot(cover.compose(l1, l2)) - cover.rot(l1) - cover.rot(l2)
        return abs(d) <= bound, bound - abs(d)

    fails, worst = _sweep(case, 10_000)
    checks = {"defect": _check("max |rot(l1 l2) - rot(l1) - rot(l2)|",
                               bound - worst, bound)}
    return _report("quasimorphism", cfg, 10_000, fails, checks)


def suite_parity(cfg: RunConfig) -> dict:
    tol = cfg.eps_eq

    def case(i):
        rng = np.random.default_rng([cfg.seed, 13, i])
        for _ in range(24):
            try:
                l1, l2 = _random_lift(rng), _random_lift(rng)
                s1, s2 = cover.sl2_rep(l1), cover.sl2_rep(l2)
                s12 = cover.sl2_rep(cover.compose(l1, l2))
                flip = cover.sl2_rep(cover.deck(l1, 1))
            except cover.ParityUndefined:
                continue
            res = max(
                np.abs(s12 - s1 @ s2).max(),       # homomorphism
                np.abs(flip + s1).max(),            # deck -> -1
                min(np.abs(s1 - l1.g.m).max(),      # projects onto +-g
                    np.abs(s1 + l1.g.m).max()))
            return res <= tol, tol - res
        return False, -1.0  # could not draw a resolvable sample

    fails, worst = _sweep(case, 10_000)
    checks = {"parity": _check("max sl2 rep residual", tol - worst, tol)}
    return _report("parity", cfg, 10_000, fails, checks)


def suite_krein(cfg: RunConfig) -> dict:
    track_tol, mono_tol = 1e-5, 1e-12
    worst_track = worst_margin = np.inf
    worst_mono = np.inf
    plateau_norm = 0.0
    fails = []
    for i in range(30):
        rng = np.random.default_rng([cfg.seed, 17, i])
        th0 = rng.uniform(0.1, 1.2)
        total = rng.uniform(0.0, np.pi - 0.2 - th0)
        incr = rng.random(cfg.n)
        if i % 3 == 0:
            incr[: cfg.n // 3] = 0.0  # exactly flat opening plateau
        theta = th0 + np.concatenate([[0.0], np.cumsum(incr)])
        if incr.sum() > 0:
            theta = th0 + (theta - th0) * (total / incr.sum())
        p = pth.elliptic_itinerary_path(theta, n=cfg.n)
        rec = np.array([classify(GroupElement(m), cfg.tau_class).value
                        for m in p.nodes])
        track = track_tol - np.abs(rec - theta).max()
        mono = float(np.diff(rec).min()) + mono_tol
        marg = float(p.margins().min()) + cfg.margin
        if i % 3 == 0:
            # where theta' = 0 the nodes repeat exactly, but the batched
            # matmul in the cocycle leaves one-ulp FMA residue that the
            # 1/h factor amplifies to eps * n
            plat = np.linalg.norm(p.right_cocycles()[: cfg.n // 3],
                                  axis=(1, 2))
            plateau_norm = max(plateau_norm, float(plat.max()))
        worst_track = min(worst_track, track)
        worst_mono = min(worst_mono, mono)
        worst_margin = min(worst_margin, marg)
        if min(track, mono, marg) < 0:
            fails.append(i)
    for i in range(20):
        rng = np.random.default_rng([cfg.seed, 19, i])
        lam0 = rng.uniform(1.15, 1.6)
        lam1 = lam0 * rng.uniform(1.1, 1.9)
        ramp = np.linspace(0.0, 1.0, cfg.n + 1)
        lam = (lam0 + (lam1 - lam0) * ramp if i % 2 == 0
               else lam1 - (lam1 - lam0) * ramp)
        p = pth.hyperbolic_itinerary_path(
            lam, direction=1 if i % 4 < 2 else -1, n=cfg.n)
        rec = np.array([classify(GroupElement(m), cfg.tau_class).value
                        for m in p.nodes])
        track = track_tol - np.abs(rec - lam).max()
        marg = float(p.margins().min()) + cfg.margin
        worst_track = min(worst_track, track)
        worst_margin = min(worst_margin, marg)
        if min(track, marg) < 0:
            fails.append(30 + i)
    checks = {
        "tracking": _check("max |recovered - prescribed|",
                           track_tol - worst_track, track_tol),
        "monotone": _check("min recovered theta increment",
                           worst_mono - mono_tol, -mono_tol, mode="ge"),
        "cone": _check("min cocycle margin", worst_margin - cfg.margin,
                       -cfg.margin, mode="ge"),
        "plateau": _check("max cocycle norm where theta' = 0",
                          plateau_norm, 32 * np.finfo(float).eps * cfg.n),
    }
    return _report("krein", cfg, 50, fails, checks)


def suite_three_classes(cfg: RunConfig) -> dict:
    lams = np.linspace(1.2, 4.0, 5)
    fails = []
    worst_class = np.inf
    idx = 0
    for l0 in lams:
        for l1 in lams:
            for l2 in lams:
                tr = pth.three_classes_triple(l0, l1, l2, branch=-1)
                spec = classify(tr.g1 @ tr.g2, cfg.tau_class)
                dev = (abs(spec.value - l0)
                       if spec.kind == "hyperbolic" else np.inf)
                worst_class = min(worst_class, 1e-9 - dev)
                if dev > 1e-9 or tr.defect != -1.0:
                    fails.append(idx)
                idx += 1
    # closed form at the all-2 corner, and the branch sign flip
    t_formula = (2.0 + 0.5 + 4.0 + 0.25) / (2.0 - 0.5)
    plus = pth.three_classes_triple(2.0, 2.0, 2.0, branch=1)
    checks = {
        "product_class": _check("max |lambda(g1 g2) - lambda0|",
                                1e-9 - worst_class, 1e-9),
        "t_closed_form": _check("|t(2,2,2) - 4.5|", abs(t_formula - 4.5), 0.0),
        "defect_plus_branch": _check("|defect(+1 branch) - 1|",
                                     abs(plus.defect - 1.0), 0.0),
    }
    return _report("three-classes", cfg, idx, fails, checks)


def suite_two_elliptic(cfg: RunConfig) -> dict:
    fails = []
    worst = sup_dev = -np.inf
    for i in range(1000):
        rng = np.random.default_rng([cfg.seed, 23, i])
        th1 = rng.uniform(0.05, np.pi - 0.05)
        th2 = rng.uniform(0.05, np.pi - 0.05)
        w = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        formula = pth.two_elliptic_trace(th1, th2, w)
        direct = (pth.elliptic_about(th1, w)
                  @ GroupElement.rotation(th2)).trace
        dev = abs(formula - direct)
        at0 = pth.two_elliptic_trace(th1, th2, 0.0)
        sdev = max(abs(at0 - 2.0 * np.cos(th1 + th2)),
                   formula - at0 - 1e-12)
        worst = max(worst, dev)
        sup_dev = max(sup_dev, sdev)
        if dev > 1e-10 or sdev > 1e-12:
            fails.append(i)
    checks = {
        "trace_formula": _check("max |formula - product trace|", worst, 1e-10),
        "supremum": _check("max w=0 supremum deviation", sup_dev, 1e-12),
    }
    return _report("two-elliptic", cfg, 1000, fails, checks)


def suite_unit_path(cfg: RunConfig) -> dict:
    fails = []
    worst_res = worst_tr = -np.inf
    min_ps = np.inf
    exact_ok = True
    idx = 0
    for lam_t in (1.5, 2.0, 3.0):
        for lam in (1.3, 2.0, 2.6):
            _, k_path, rep = pth.unit_path(lam_t, lam, n=2 * cfg.n)
            worst_res = max(worst_res, rep["conjugation_residual"])
            worst_tr = max(worst_tr, rep["trace_identity_residual"])
            min_ps = min(min_ps, rep["min_ps"])
            good = (rep["conjugation_residual"] <= 1e-6
                    and rep["trace_identity_residual"] <= 1e-6
                    and rep["min_ps"] > 0.0
                    and rep["k_end_class"].startswith("Hyperbolic")
                    and rep["k_rot"] == 0.0
                    and rep["rot_gain"] == 1.0)
            exact_ok = exact_ok and good
            if not good:
                fails.append(idx)
            idx += 1
    checks = {
        "conjugation": _check("max conjugation residual", worst_res, 1e-6),
        "trace_identity": _check("max trace identity residual", worst_tr, 1e-6),
        "ps_positive": _check("min p s along k", min_ps, 0.0, mode="ge"),
        "exact_rots": _check("k rot 0 and unit gain everywhere",
                             0.0 if exact_ok else 1.0, 0.0),
    }
    return _report("unit-path", cfg, idx, fails, checks)


def _exp_family_instance(rng, n_steps: int, mt: int, cap: float | None = None):
    """Nonpositive path g(s) = exp(-s gamma) g0 plus a matching start loop.

    cap bounds the Frobenius norm of g0: the path's left cocycles are
    conjugated by g0^-1, so coarse grids need |g0| small enough for the
    steps to stay inside the principal log chart.
    """
    gamma = _random_cone_element(rng)
    for _ in range(64):
        if rng.random() < 0.5:
            lam = float(np.exp(rng.uniform(0.2, 0.9)))
            g0 = _conjugated(rng, np.diag([lam, 1.0 / lam]), 0.4)
        else:
            th = float(rng.uniform(0.3, np.pi - 0.3))
            g0 = _conjugated(rng, rotation(th), 0.4)
        if cap is None or np.linalg.norm(g0.m) <= cap:
            break
    svals = np.linspace(0.0, 1.0, n_steps + 1)
    nodes = sl2_exp(-svals[:, None, None] * gamma) @ g0.m
    rep = g0.m if g0.trace >= 0 else -g0.m
    a0 = cx.constant_loop(sl2_log(rep), mt)
    return pth.GroupPath(nodes), a0


def suite_cylinder_constructor(cfg: RunConfig) -> dict:
    fails = []
    worst_rt = worst_margin = -np.inf
    cases = 5
    for i in range(cases):
        rng = np.random.default_rng([cfg.seed, 29, i])
        if i < 3:
            p, a0 = _exp_family_instance(rng, cfg.ns - 1, cfg.mt)
        else:
            # wiggly start loop, then descend the multiplier itinerary
            ang = 0.1 * np.sin(2 * np.pi * np.arange(cfg.mt) / cfg.mt)
            lam0 = float(np.exp(rng.uniform(0.4, 0.7)))
            xi = sl2_log(np.diag([lam0, 1.0 / lam0]))
            rots = np.stack([np.stack([np.cos(ang), -np.sin(ang)], -1),
                             np.stack([np.sin(ang), np.cos(ang)], -1)], -2)
            a0 = cx.LoopConnection(np.einsum("tab,bc,tdc->tad", rots, xi, rots))
            h = a0.holonomy()
            lam_h = classify(h, cfg.tau_class).value
            lams = np.linspace(lam_h, 1.0 + 0.6 * (lam_h - 1.0), cfg.ns)
            p = pth.hyperbolic_itinerary_path(
                lams, g0=h.inv(), n=cfg.ns - 1).inverted()
        conn = cx.from_nonpositive_path(p, a0)
        rt = max(psl_dist(conn.holonomy_loop(j).m, p.nodes[j])
                 for j in range(0, conn.ns, 15))
        cm = float(conn.curvature_margins().min())
        worst_rt = max(worst_rt, rt)
        worst_margin = max(worst_margin, -cm)
        if rt > 1e-5 or cm < -cfg.margin:
            fails.append(i)
    checks = {
        "round_trip": _check("max holonomy round-trip error", worst_rt, 1e-5),
        "curvature": _check("max curvature margin deficit", worst_margin,
                            cfg.margin),
    }
    return _report("cylinder-constructor", cfg, cases, fails, checks)


def suite_milnor_wood(cfg: RunConfig) -> dict:
    def curved_case(i):
        rng = np.random.default_rng([cfg.seed, 31, i])
        p, a0 = _exp_family_instance(rng, 24, 24, cap=3.0)
        conn = cx.from_nonpositive_path(p, a0)
        rep = cx.milnor_wood_check(conn, flat=False, margin_tol=cfg.margin,
                                   seed=i)
        ok = rep["satisfied"] and rep["hypothesis_ok"]
        return ok, rep["margin"]

    fails, worst_curved = _sweep(curved_case, 2000)

    def pants_case(i):
        rng = np.random.default_rng([cfg.seed, 37, i])
        data = cx.PantsHolonomyData(_random_lift(rng), _random_lift(rng))
        rep = cx.milnor_wood_check(data, seed=i)
        return rep["satisfied"], rep["margin"]

    pants_fails, worst_pants = _sweep(pants_case, 1000)
    fails += [2000 + i for i in pants_fails]
    checks = {
        "cylinder_bound": _check("min cylinder rot_dS slack", -worst_curved,
                                 0.0, convention=BOUNDARY_CONVENTION),
        "pants_bound": _check("min pants |rot_dS| slack vs 1", -worst_pants,
                              1e-9, convention=BOUNDARY_CONVENTION),
    }
    return _report("milnor-wood", cfg, 3000, fails, checks)


def _gauge_grid(n: int, ns: int, mt: int) -> np.ndarray:
    eta = cx.smoothstep(np.linspace(0.0, 1.0, ns))
    ang = n * np.pi * eta
    phi = np.zeros((ns, mt, 2, 2))
    phi[..., 0, 0] = np.cos(ang)[:, None]
    phi[..., 1, 1] = np.cos(ang)[:, None]
    phi[..., 0, 1] = -np.sin(ang)[:, None]
    phi[..., 1, 0] = np.sin(ang)[:, None]
    return phi


def suite_gauge(cfg: RunConfig) -> dict:
    fails = []
    cases = 100
    for i in range(cases):
        rng = np.random.default_rng([cfg.seed, 41, i])
        r = int(rng.integers(1, 4))
        # hyperbolic holonomy keeps the integer rot_c defined at every tau
        u = float(rng.uniform(0.05, 0.14))
        base = cx.cover(cx.winding_loop(1, np.diag([u, -u]), 192), r)
        conn = cx.pullback_flat(base, 64)
        n = int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        phi = _gauge_grid(n, conn.ns, conn.mt)
        gauged = cx.gauge(conn, phi)
        k = int(rng.integers(0, r + 1))
        tau = k / r + float(rng.integers(-1, 2))
        expected = cx.gauge_crossing_class(phi, np.linspace(0, tau, conn.ns))
        shift = (cx.rot_c(gauged, tau, tol=cfg.tau_class)
                 - cx.rot_c(conn, tau, tol=cfg.tau_class))
        if shift != float(expected) or expected != n:
            fails.append(i)
    checks = {"shift": _check("gauge rot_c shift mismatches", float(len(fails)),
                              0.0, convention=TWIST_CONVENTION)}
    return _report("gauge", cfg, cases, fails, checks)


def suite_dehn_twist(cfg: RunConfig) -> dict:
    fails = []
    idx = 0
    worst = -np.inf
    for r in (1, 2, 3):
        gam = np.diag([0.12, -0.12])
        base = cx.cover(cx.winding_loop(1, gam, 192), r)
        conn = cx.pullback_flat(base, 96)
        before = cx.rot_c(conn, 1.0 / r, tol=cfg.tau_class)  # one sheet
        tw = cx.dehn_twist(conn)
        after = cx.rot_c(tw, 1.0 / r, tol=cfg.tau_class)
        twice = cx.rot_c(cx.dehn_twist(tw), 1.0 / r, tol=cfg.tau_class)
        rb_dev = abs(tw.rot_boundary() - conn.rot_boundary())
        dev = max(abs(after - (before - r)), abs(twice - (before - 2 * r)),
                  rb_dev)
        worst = max(worst, dev)
        if dev != 0.0:
            fails.append(idx)
        idx += 1
    checks = {"twist": _check("max |rot_c shift + r| over twists", worst, 0.0,
                              convention=TWIST_CONVENTION)}
    return _report("dehn-twist", cfg, idx, fails, checks)


def suite_cover(cfg: RunConfig) -> dict:
    fails = []
    worst = -np.inf
    idx = 0
    for r in (1, 2, 3):
        base = cx.winding_loop(r, np.diag([0.1, -0.1]), 720)
        for mu in (-3, -2, -1, 1, 2, 3):
            dev = abs(cx.cover(base, mu).rot() - mu * base.rot())
            worst = max(worst, dev)
            if dev != 0.0:
                fails.append(idx)
            idx += 1
    for i in range(10):
        rng = np.random.default_rng([cfg.seed, 43, i])
        coef = rng.normal(0.0, 0.01, size=(2, 3))
        t = np.arange(1024) / 1024.0
        f = (coef[0, 0] * np.cos(2 * np.pi * t) + coef[0, 1]
             * np.sin(2 * np.pi * t) + coef[0, 2])
        g = (coef[1, 0] * np.cos(4 * np.pi * t) + coef[1, 1]
             * np.sin(2 * np.pi * t) + coef[1, 2])
        samples = np.zeros((1024, 2, 2))
        samples[:, 0, 0] = f
        samples[:, 1, 1] = -f
        samples[:, 0, 1] = g
        samples[:, 1, 0] = g + 0.05
        base = cx.LoopConnection(samples)
        for mu in (-2, 2, 3):
            dev = abs(cx.cover(base, mu).rot() - mu * base.rot())
            worst = max(worst, dev)
            if dev > 1e-6:
                fails.append(idx)
            idx += 1
    checks = {"homogeneity": _check("max |rot(a^mu) - mu rot(a)|", worst, 1e-6)}
    return _report("cover", cfg, idx, fails, checks)


def suite_hyperdisc(cfg: RunConfig) -> dict:
    fails = []
    rng = np.random.default_rng([cfg.seed, 47])
    worst_cone = worst_fun = worst_iso = -np.inf
    for i in range(1000):
        x = LieElement(random_lie(rng))
        dev_cone = abs(dsc.cayley_lie(x).cone_margin() - x.cone_margin())
        g1 = GroupElement(sl2_exp(random_lie(rng, 0.6)))
        g2 = GroupElement(sl2_exp(random_lie(rng, 0.6)))
        lhs = dsc.cayley(g1 @ g2)
        rhs = dsc.cayley(g1) @ dsc.cayley(g2)
        dev_fun = min(  # su(1,1) reps agree up to the shared center
            max(abs(lhs.a - rhs.a), abs(lhs.b - rhs.b)),
            max(abs(lhs.a + rhs.a), abs(lhs.b + rhs.b)))
        dev_iso = 0.0
        if i < 500:
            iso = dsc.cayley(g1)
            w1 = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            w2 = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            dev_iso = abs(
                dsc.dist_hyp(iso(w1), iso(w2)) - dsc.dist_hyp(w1, w2))
        worst_cone = max(worst_cone, dev_cone)
        worst_fun = max(worst_fun, dev_fun)
        worst_iso = max(worst_iso, dev_iso)
        if max(dev_cone, dev_iso) > 1e-9 or dev_fun > 1e-10:
            fails.append(i)
    min_h = np.inf
    min_boundary = np.inf
    for i in range(100):
        g = dsc.cayley_lie(LieElement(_random_cone_element(rng, 0.1, 1.0)))
        for _ in range(20):
            w = 0.97 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            min_h = min(min_h, dsc.hamiltonian(g, w))
        for k in range(64):
            w = np.exp(2j * np.pi * k / 64)
            min_boundary = min(min_boundary,
                               (np.conj(w) * dsc.vector_field(g, w)).imag)
    worst_defect = -np.inf
    worst_slope = 0.0
    for i in range(30):
        # the defect is pure truncation, quadratic in the element size and
        # steep in |w|; moderate samples keep the h = 1e-3 reading clean
        g1 = dsc.cayley_lie(LieElement(random_lie(rng, 0.5)))
        g2 = dsc.cayley_lie(LieElement(random_lie(rng, 0.5)))
        w = 0.4 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        worst_defect = max(worst_defect,
                           abs(dsc.poisson_defect(g1, g2, w, 1e-3)))
        d1 = abs(dsc.poisson_defect(g1, g2, w, 1e-2))
        d2 = abs(dsc.poisson_defect(g1, g2, w, 5e-3))
        if d1 > 1e-10:
            worst_slope = max(worst_slope, abs(np.log2(d1 / d2) - 2.0))
    worst_drift = -np.inf
    for i in range(20):
        g = dsc.cayley_lie(LieElement(random_lie(rng, 0.7)))
        w0 = 0.6 * np.exp(2j * np.pi * rng.random())
        w1 = dsc.flow(g, w0, 1.0, 512)
        worst_drift = max(worst_drift,
                          abs(dsc.hamiltonian(g, w1) - dsc.hamiltonian(g, w0)))
    bound_dev = max(abs(dsc.hyp_cylinder_max_length(np.e) - np.pi / 2.0),
                    abs(dsc.elliptic_cylinder_radius_bound(
                        np.pi / 2.0, np.pi / 2.0) - 0.5))
    checks = {
        "cone": _check("max cone margin transfer deviation", worst_cone, 1e-9),
        "functorial": _check("max composition deviation", worst_fun, 1e-10),
        "isometry": _check("max distance deviation", worst_iso, 1e-9),
        "hamiltonian_sign": _check("min H over cone samples", min_h, 0.0,
                                   mode="ge"),
        "boundary_field": _check("min angular component on |w|=1",
                                 min_boundary, -1e-12, mode="ge"),
        "poisson": _check("max defect at h=1e-3", worst_defect, 1e-5),
        "richardson": _check("max |slope - 2|", worst_slope, 0.2),
        "flow_drift": _check("max H drift per unit time", worst_drift, 1e-6),
        "closed_bounds": _check("max spot-value deviation", bound_dev, 1e-12),
    }
    return _report("hyperdisc", cfg, 1150, fails, checks)


SUITES = {
    "quasimorphism": suite_quasimorphism,
    "parity": suite_parity,
    "krein": suite_krein,
    "three-classes": suite_three_classes,
    "two-elliptic": suite_two_elliptic,
    "unit-path": suite_unit_path,
    "cylinder-constructor": suite_cylinder_constructor,
    "milnor-wood": suite_milnor_wood,
    "gauge": suite_gauge,
    "dehn-twist": suite_dehn_twist,
    "cover": suite_cover,
    "hyperdisc": suite_hyperdisc,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    if name not in SUITES:
        raise UnknownSuite(f"no suite named {name!r}; choose from "
                           f"{sorted(SUITES)}")
    return SUITES[name](cfg)


# ---------------------------------------------------------------------------
# artifact re-verification (the verify --artifact path)


def verify_artifact(obj: dict) -> dict:
    """Re-check the claims stored alongside a built artifact."""
    from .serialize import obj_to_artifact

    art = obj_to_artifact(obj)
    claims = obj.get("claims", {})
    checks = {}
    if isinstance(art, pth.GroupPath):
        margins = art.margins()
        if claims.get("nonneg"):
            checks["nonneg"] = _check("min cocycle margin",
                                      float(margins.min()), -1e-8, mode="ge")
        if claims.get("nonpos"):
            checks["nonpos"] = _check(
                "min negated cocycle margin",
                float(cone_margins(-art.right_cocycles()).min()), -1e-8,
                mode="ge")
        if "rot_gain" in claims:
            _, gain = pth.rot_along(art)
            checks["rot_gain"] = _check("|rot gain - claim|",
                                        abs(gain - claims["rot_gain"]), 1e-9)
    elif isinstance(art, cx.LoopConnection):
        if "rot" in claims:
            checks["rot"] = _check("|rot - claim|",
                                   abs(art.rot() - claims["rot"]), 1e-9)
        if "holonomy_trace" in claims:
            checks["holonomy_trace"] = _check(
                "|holonomy trace - claim|",
                abs(abs(art.holonomy().trace) - abs(claims["holonomy_trace"])),
                1e-9)
    elif isinstance(art, cx.CylinderConnection):
        if claims.get("nonneg_curved"):
            checks["curvature"] = _check(
                "min curvature margin", float(art.curvature_margins().min()),
                -1e-8, mode="ge")
        if claims.get("flat"):
            checks["flat"] = _check(
                "max |curvature|",
                float(np.linalg.norm(art.curvature_grid, axis=(2, 3)).max()),
                1e-8)
        if "rot_boundary" in claims:
            checks["rot_boundary"] = _check(
                "|rot_boundary - claim|",
                abs(art.rot_boundary() - claims["rot_boundary"]), 1e-9,
                convention=BOUNDARY_CONVENTION)
    elif isinstance(art, dict) and "report" in art:  # unit-path bundle
        rep = art["report"]
        checks["residuals"] = _check(
            "max stored residual", max(rep["conjugation_residual"],
                                       rep["trace_identity_residual"]), 1e-6)
        _, k_gain = pth.rot_along(art["k"])
        _, gain = pth.rot_along(art["g1"])
        checks["rots"] = _check(
            "recomputed rot deviations",
            max(abs(gain - rep["rot_gain"]), abs(k_gain - rep["k_rot"])), 0.0)
        checks["ps"] = _check("min p s", float(
            (art["k"].nodes[:, 0, 0] * art["k"].nodes[:, 1, 1]).min()),
            0.0, mode="ge")
    ok = all(c["satisfied"] for c in checks.values())
    return {"artifact": obj.get("kind"), "checks": checks, "passed": ok,
            "claims": claims}

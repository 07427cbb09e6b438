"""Seeded verification sweeps behind the CLI's verify command.

Every suite runs a deterministic batch of instances from a RunConfig seed,
keeps one value per case of each checked quantity and one failure flag per
case, and returns a plain-dict report: case/failure counts, the first
failing case indexes, the worst value of each quantity against its bound,
and the orientation conventions wherever a sign could be read two ways.
Reports contain no timestamps, so identical configs give byte-identical
JSON.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import connections as cx
from . import cover
from . import disc as dsc
from . import paths as pth
from .config import RunConfig
from .core import (
    CLAIM_MATCH,
    GroupElement,
    MARGIN,
    PATH_CONE_SLACK,
    classify,
    cone_margins,
    psl_dist,
    random_conjugate,
    random_lie,
    rotation,
    sl2_exp,
    sl2_log,
)
from .serialize import ParseError, obj_to_artifact

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


def _report(name: str, cfg: RunConfig, checks: dict, bad) -> dict:
    """The report of a sweep from its checks and one failure flag per case."""
    fails = np.flatnonzero(bad)
    return {
        "suite": name,
        "seed": cfg.seed,
        "cases": len(bad),
        "failures": len(fails),
        "failing_seeds": fails[:10].tolist(),
        "checks": checks,
        "passed": fails.size == 0 and all(c["satisfied"]
                                          for c in checks.values()),
        "config": {"n": cfg.n, "ns": cfg.ns, "mt": cfg.mt,
                   "tau_class": cfg.tau_class, "eps_eq": cfg.tau_class,
                   "margin": MARGIN},
    }


# ---------------------------------------------------------------------------
# samplers


def _random_lift(rng) -> cover.LiftedElement:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        g = random_conjugate(
            rng, rotation(float(rng.uniform(0.05, np.pi - 0.05))), 0.5)
    elif kind == 1:
        lam = float(np.exp(rng.uniform(0.1, 1.0)))
        g = random_conjugate(rng, np.diag([lam, 1.0 / lam]), 0.5)
    else:
        g = GroupElement(sl2_exp(random_lie(rng, 0.6)))
    return cover.deck(cover.lift_of(g), int(rng.integers(-2, 3)))


def _draws(rng, cases: int, normals: int, units: int):
    """Per case, standard normals then unit draws, in a loop's order;
    random_lie(rng, scale) is scale * _lie of three standard normals."""
    z, u = zip(*[(rng.standard_normal(normals), rng.random(units))
                 for _ in range(cases)])
    return np.array(z), np.array(u)


def _lie(abc: np.ndarray) -> np.ndarray:
    """[[a, b], [c, -a]] from the last axis (a, b, c): random_lie in batch."""
    a, b, c = np.moveaxis(abc, -1, 0)
    return np.stack([np.stack([a, b], -1), np.stack([c, -a], -1)], -2)


def _cone_element(u: np.ndarray, lo: float = 0.05,
                  hi: float = 0.25) -> np.ndarray:
    """Traceless matrices inside the nonnegative cone from three unit draws
    u[..., :3], each mapped to the value rng.uniform gives for it."""
    alpha = lo + (hi - lo) * u[..., 0]
    rad = alpha * (0.95 * u[..., 1])
    phi = 2 * np.pi * u[..., 2]
    delta, eps = rad * np.cos(phi), rad * np.sin(phi)
    return _lie(np.stack([eps, delta - alpha, delta + alpha], -1))


def _disc_point(radius: float, u: np.ndarray) -> np.ndarray:
    """Points radius sqrt(u0) e^{2 pi i u1} from unit draws u[..., :2]."""
    return radius * np.sqrt(u[..., 0]) * np.exp(2j * np.pi * u[..., 1])


# ---------------------------------------------------------------------------
# suites


def suite_quasimorphism(cfg: RunConfig) -> dict:
    bound = 1.0 + 1e-6

    def defect(i):
        rng = np.random.default_rng([cfg.seed, 11, i])
        l1, l2 = _random_lift(rng), _random_lift(rng)
        return abs(cover.rot(cover.compose(l1, l2)) - cover.rot(l1)
                   - cover.rot(l2))

    d = np.array([defect(i) for i in range(10_000)])
    checks = {"defect": _check("max |rot(l1 l2) - rot(l1) - rot(l2)|",
                               d.max(), bound)}
    return _report("quasimorphism", cfg, checks, d > bound)


def suite_parity(cfg: RunConfig) -> dict:
    tol = cfg.tau_class

    def residual(i):
        rng = np.random.default_rng([cfg.seed, 13, i])
        for _ in range(24):
            try:
                l1, l2 = _random_lift(rng), _random_lift(rng)
                s1, s2 = cover.sl2_rep(l1), cover.sl2_rep(l2)
                s12 = cover.sl2_rep(cover.compose(l1, l2))
                flip = cover.sl2_rep(cover.deck(l1, 1))
            except cover.ParityUndefined:
                continue
            return max(
                np.abs(s12 - s1 @ s2).max(),       # homomorphism
                np.abs(flip + s1).max(),            # deck -> -1
                min(np.abs(s1 - l1.g.m).max(),      # projects onto +-g
                    np.abs(s1 + l1.g.m).max()))
        return tol + 1.0  # could not draw a resolvable sample

    res = np.array([residual(i) for i in range(10_000)])
    checks = {"parity": _check("max sl2 rep residual", res.max(), tol)}
    return _report("parity", cfg, checks, res > tol)


def suite_krein(cfg: RunConfig) -> dict:
    track_tol, mono_tol = 1e-5, 1e-12
    # per case: tracking error, smallest theta step (elliptic only) and
    # smallest cocycle margin; 30 elliptic cases, then 20 hyperbolic
    err, step, marg = np.zeros(50), np.full(50, np.inf), np.zeros(50)
    plateau_norm = 0.0
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
        err[i] = np.abs(rec - theta).max()
        step[i] = np.diff(rec).min()
        marg[i] = p.margins().min()
        if i % 3 == 0:
            # where theta' = 0 the nodes repeat exactly, but the batched
            # matmul in the cocycle leaves one-ulp FMA residue that the
            # 1/h factor amplifies to eps * n
            plat = np.linalg.norm(p.right_cocycles()[: cfg.n // 3],
                                  axis=(1, 2))
            plateau_norm = max(plateau_norm, float(plat.max()))
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
        err[30 + i] = np.abs(rec - lam).max()
        marg[30 + i] = p.margins().min()
    checks = {
        "tracking": _check("max |recovered - prescribed|", err.max(),
                           track_tol),
        "monotone": _check("min recovered theta increment", step.min(),
                           -mono_tol, mode="ge"),
        "cone": _check("min cocycle margin", marg.min(), -MARGIN, mode="ge"),
        "plateau": _check("max cocycle norm where theta' = 0",
                          plateau_norm, 32 * np.finfo(float).eps * cfg.n),
    }
    bad = (err > track_tol) | (step < -mono_tol) | (marg < -MARGIN)
    return _report("krein", cfg, checks, bad)


def suite_three_classes(cfg: RunConfig) -> dict:
    def case(l0, l1, l2):
        tr = pth.three_classes_triple(l0, l1, l2, branch=-1)
        spec = classify(tr.g1 @ tr.g2, cfg.tau_class)
        dev = abs(spec.value - l0) if spec.kind == "hyperbolic" else np.inf
        return dev, tr.defect

    lams = np.linspace(1.2, 4.0, 5)
    dev, defect = np.array([case(l0, l1, l2) for l0 in lams for l1 in lams
                            for l2 in lams]).T
    # closed form at the all-2 corner, and the branch sign flip
    t_formula = (2.0 + 0.5 + 4.0 + 0.25) / (2.0 - 0.5)
    plus = pth.three_classes_triple(2.0, 2.0, 2.0, branch=1)
    checks = {
        "product_class": _check("max |lambda(g1 g2) - lambda0|", dev.max(),
                                1e-9),
        "t_closed_form": _check("|t(2,2,2) - 4.5|", abs(t_formula - 4.5), 0.0),
        "defect_plus_branch": _check("|defect(+1 branch) - 1|",
                                     abs(plus.defect - 1.0), 0.0),
    }
    return _report("three-classes", cfg, checks,
                   (dev > 1e-9) | (defect != -1.0))


def suite_two_elliptic(cfg: RunConfig) -> dict:
    u = np.array([np.random.default_rng([cfg.seed, 23, i]).random(4)
                  for i in range(1000)])
    lo, hi = 0.05, np.pi - 0.05  # rng.uniform(lo, hi) is lo + (hi - lo) u
    th1, th2 = lo + (hi - lo) * u[:, 0], lo + (hi - lo) * u[:, 1]
    w = _disc_point(0.9, u[:, 2:])
    formula = pth.two_elliptic_trace(th1, th2, w)
    prod = pth.elliptic_about(th1, w) @ rotation(th2)
    dev = np.abs(formula - (prod[:, 0, 0] + prod[:, 1, 1]))
    at0 = pth.two_elliptic_trace(th1, th2, 0.0)
    sdev = np.maximum(np.abs(at0 - 2.0 * np.cos(th1 + th2)),
                      formula - at0 - 1e-12)
    checks = {
        "trace_formula": _check("max |formula - product trace|", dev.max(),
                                1e-10),
        "supremum": _check("max w=0 supremum deviation", sdev.max(), 1e-12),
    }
    return _report("two-elliptic", cfg, checks,
                   (dev > 1e-10) | (sdev > 1e-12))


def suite_unit_path(cfg: RunConfig) -> dict:
    reps = [pth.unit_path(lam_t, lam, n=2 * cfg.n)[2]
            for lam_t in (1.5, 2.0, 3.0) for lam in (1.3, 2.0, 2.6)]
    res, tr, ps = (np.array([rep[key] for rep in reps]) for key in (
        "conjugation_residual", "trace_identity_residual", "min_ps"))
    exact = np.array([rep["k_end_class"].startswith("Hyperbolic")
                      and rep["k_rot"] == 0.0 and rep["rot_gain"] == 1.0
                      for rep in reps])
    bad = (res > 1e-6) | (tr > 1e-6) | (ps <= 0.0) | ~exact
    checks = {
        "conjugation": _check("max conjugation residual", res.max(), 1e-6),
        "trace_identity": _check("max trace identity residual", tr.max(), 1e-6),
        "ps_positive": _check("min p s along k", ps.min(), 0.0, mode="ge"),
        "exact_rots": _check("k rot 0 and unit gain everywhere",
                             float(bad.any()), 0.0),
    }
    return _report("unit-path", cfg, checks, bad)


def _exp_family_instance(rng, n_steps: int, mt: int, cap: float | None = None):
    """Nonpositive path g(s) = exp(-s gamma) g0 plus a matching start loop.

    cap bounds the Frobenius norm of g0: the path's left cocycles are
    conjugated by g0^-1, so coarse grids need |g0| small enough for the
    steps to stay inside the principal log chart.
    """
    gamma = _cone_element(rng.random(3))
    for _ in range(64):
        if rng.random() < 0.5:
            lam = float(np.exp(rng.uniform(0.2, 0.9)))
            g0 = random_conjugate(rng, np.diag([lam, 1.0 / lam]), 0.4)
        else:
            th = float(rng.uniform(0.3, np.pi - 0.3))
            g0 = random_conjugate(rng, rotation(th), 0.4)
        if cap is None or np.linalg.norm(g0.m) <= cap:
            break
    svals = np.linspace(0.0, 1.0, n_steps + 1)
    nodes = sl2_exp(-svals[:, None, None] * gamma) @ g0.m
    rep = g0.m if g0.trace >= 0 else -g0.m
    a0 = cx.constant_loop(sl2_log(rep), mt)
    return pth.GroupPath(nodes), a0


def suite_cylinder_constructor(cfg: RunConfig) -> dict:
    rt, cm = np.zeros(5), np.zeros(5)  # round-trip error, curvature margin
    for i in range(5):
        rng = np.random.default_rng([cfg.seed, 29, i])
        if i < 3:
            p, a0 = _exp_family_instance(rng, cfg.ns - 1, cfg.mt)
        else:
            # wiggly start loop, then descend the multiplier itinerary
            ang = 0.1 * np.sin(2 * np.pi * np.arange(cfg.mt) / cfg.mt)
            lam0 = float(np.exp(rng.uniform(0.4, 0.7)))
            xi = sl2_log(np.diag([lam0, 1.0 / lam0]))
            rots = rotation(ang)
            a0 = cx.LoopConnection(np.einsum("tab,bc,tdc->tad", rots, xi, rots))
            h = a0.holonomy()
            lam_h = classify(h, cfg.tau_class).value
            lams = np.linspace(lam_h, 1.0 + 0.6 * (lam_h - 1.0), cfg.ns)
            p = pth.hyperbolic_itinerary_path(
                lams, g0=h.inv(), n=cfg.ns - 1).inverted()
        conn = cx.from_nonpositive_path(p, a0)
        rt[i] = max(psl_dist(conn.holonomy_loop(j).m, p.nodes[j])
                    for j in range(0, conn.ns, 15))
        cm[i] = conn.curvature_margins().min()
    checks = {
        "round_trip": _check("max holonomy round-trip error", rt.max(), 1e-5),
        "curvature": _check("max curvature margin deficit", -cm.min(),
                            MARGIN),
    }
    return _report("cylinder-constructor", cfg, checks,
                   (rt > 1e-5) | (cm < -MARGIN))


def milnor_wood_cases(cfg: RunConfig, cylinders: int = 2000,
                      pants: int = 1000, grid: int = 24):
    """Yield (kind, i, milnor_wood_check report): first the curved
    "cylinder" cases (grid path steps and t-samples, |g0| <= 3), then the
    flat "pants" data, each case i from its own [seed, tag, i] stream."""
    for i in range(cylinders):
        rng = np.random.default_rng([cfg.seed, 31, i])
        p, a0 = _exp_family_instance(rng, grid, grid, cap=3.0)
        conn = cx.from_nonpositive_path(p, a0)
        yield "cylinder", i, cx.milnor_wood_check(
            conn, flat=False, seed=i)
    for i in range(pants):
        rng = np.random.default_rng([cfg.seed, 37, i])
        data = cx.PantsHolonomyData(_random_lift(rng), _random_lift(rng))
        yield "pants", i, cx.milnor_wood_check(data, seed=i)


def suite_milnor_wood(cfg: RunConfig) -> dict:
    # 2000 cylinder cases, then 1000 pants; a pants datum without a
    # supplied l0 always meets its hypothesis
    margin, bad = np.array([
        (rep["margin"], not (rep["satisfied"] and rep["hypothesis_ok"]))
        for _, _, rep in milnor_wood_cases(cfg)]).T
    checks = {
        "cylinder_bound": _check("min cylinder rot_dS slack",
                                 -margin[:2000].min(), 0.0,
                                 convention=BOUNDARY_CONVENTION),
        "pants_bound": _check("min pants |rot_dS| slack vs 1",
                              -margin[2000:].min(), 1e-9,
                              convention=BOUNDARY_CONVENTION),
    }
    return _report("milnor-wood", cfg, checks, bad)


def _gauge_grid(n: int, ns: int, mt: int) -> np.ndarray:
    eta = cx.smoothstep(np.linspace(0.0, 1.0, ns))
    return np.repeat(rotation(n * np.pi * eta)[:, None], mt, axis=1)


def suite_gauge(cfg: RunConfig) -> dict:
    bad = np.zeros(100, dtype=bool)
    for i in range(100):
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
        bad[i] = shift != float(expected) or expected != n
    checks = {"shift": _check("gauge rot_c shift mismatches", bad.sum(),
                              0.0, convention=TWIST_CONVENTION)}
    return _report("gauge", cfg, checks, bad)


def suite_dehn_twist(cfg: RunConfig) -> dict:
    dev = np.zeros(3)
    for i, r in enumerate((1, 2, 3)):
        gam = np.diag([0.12, -0.12])
        base = cx.cover(cx.winding_loop(1, gam, 192), r)
        conn = cx.pullback_flat(base, 96)
        before = cx.rot_c(conn, 1.0 / r, tol=cfg.tau_class)  # one sheet
        tw = cx.dehn_twist(conn)
        after = cx.rot_c(tw, 1.0 / r, tol=cfg.tau_class)
        twice = cx.rot_c(cx.dehn_twist(tw), 1.0 / r, tol=cfg.tau_class)
        rb_dev = abs(tw.rot_boundary() - conn.rot_boundary())
        dev[i] = max(abs(after - (before - r)),
                     abs(twice - (before - 2 * r)), rb_dev)
    checks = {"twist": _check("max |rot_c shift + r| over twists", dev.max(),
                              0.0, convention=TWIST_CONVENTION)}
    return _report("dehn-twist", cfg, checks, dev != 0.0)


def suite_cover(cfg: RunConfig) -> dict:
    # the 18 winding cases must hold exactly, the 30 sampled ones to 1e-6
    dev = []
    for r in (1, 2, 3):
        base = cx.winding_loop(r, np.diag([0.1, -0.1]), 720)
        dev += [abs(cx.cover(base, mu).rot() - mu * base.rot())
                for mu in (-3, -2, -1, 1, 2, 3)]
    for i in range(10):
        rng = np.random.default_rng([cfg.seed, 43, i])
        coef = rng.normal(0.0, 0.01, size=(2, 3))
        t = np.arange(1024) / 1024.0
        f = (coef[0, 0] * np.cos(2 * np.pi * t) + coef[0, 1]
             * np.sin(2 * np.pi * t) + coef[0, 2])
        g = (coef[1, 0] * np.cos(4 * np.pi * t) + coef[1, 1]
             * np.sin(2 * np.pi * t) + coef[1, 2])
        base = cx.LoopConnection(_lie(np.stack([f, g, g + 0.05], -1)))
        dev += [abs(cx.cover(base, mu).rot() - mu * base.rot())
                for mu in (-2, 2, 3)]
    dev = np.array(dev)
    checks = {"homogeneity": _check("max |rot(a^mu) - mu rot(a)|", dev.max(),
                                    1e-6)}
    return _report("cover", cfg, checks, dev > np.repeat([0.0, 1e-6], [18, 30]))


def suite_hyperdisc(cfg: RunConfig) -> dict:
    # every case draws from the one stream in the order the cases are
    # counted; each section then runs as one array pass
    rng = np.random.default_rng([cfg.seed, 47])
    z, u = _draws(rng, 500, 9, 4)
    z = np.concatenate([z, rng.standard_normal((500, 9))])
    z *= np.repeat([0.7, 0.6, 0.6], 3)
    cone_u = rng.random((100, 3 + 2 * 20))
    zp, up = _draws(rng, 30, 6, 2)
    zf, uf = _draws(rng, 20, 3, 1)

    x, g1, g2 = _lie(z[:, :3]), sl2_exp(_lie(z[:, 3:6])), sl2_exp(_lie(z[:, 6:]))
    dev_cone = np.abs(dsc.cayley_lie(x).cone_margin() - cone_margins(x))
    lhs = dsc.cayley(g1 @ g2)
    rhs = dsc.cayley(g1) @ dsc.cayley(g2)
    dev_fun = np.minimum(  # su(1,1) reps agree up to the shared center
        np.maximum(np.abs(lhs.a - rhs.a), np.abs(lhs.b - rhs.b)),
        np.maximum(np.abs(lhs.a + rhs.a), np.abs(lhs.b + rhs.b)))
    iso = dsc.cayley(g1[:500])
    w1, w2 = _disc_point(0.9, u[:, :2]), _disc_point(0.9, u[:, 2:])
    dev_iso = np.zeros(1000)
    dev_iso[:500] = np.abs(dsc.dist_hyp(iso(w1), iso(w2)) - dsc.dist_hyp(w1, w2))
    bad = (np.maximum(dev_cone, dev_iso) > 1e-9) | (dev_fun > 1e-10)

    g = dsc.cayley_lie(_cone_element(cone_u[:, None, :3], 0.1, 1.0))
    h = dsc.hamiltonian(g, _disc_point(0.97, cone_u[:, 3:].reshape(100, 20, 2)))
    w = np.exp(2j * np.pi * np.arange(64) / 64)
    along = (np.conj(w) * dsc.vector_field(g, w)).imag
    bad_cone = (h.min(1) < 0.0) | (along.min(1) < -1e-12)

    # the defect is pure truncation, quadratic in the element size and
    # steep in |w|; moderate samples keep the h = 1e-3 reading clean
    p1 = dsc.cayley_lie(_lie(0.5 * zp[:, :3]))
    p2 = dsc.cayley_lie(_lie(0.5 * zp[:, 3:]))
    wp = _disc_point(0.4, up)
    defect = np.abs(dsc.poisson_defect(p1, p2, wp, 1e-3))
    d1 = np.abs(dsc.poisson_defect(p1, p2, wp, 1e-2))
    d2 = np.abs(dsc.poisson_defect(p1, p2, wp, 5e-3))
    seen = d1 > 1e-10
    slope = np.zeros(30)
    slope[seen] = np.abs(np.log2(d1[seen] / d2[seen]) - 2.0)
    bad_pair = (defect > 1e-5) | (slope > 0.2)

    gf = dsc.cayley_lie(_lie(0.7 * zf))
    w0 = 0.6 * np.exp(2j * np.pi * uf[:, 0])
    w1 = dsc.flow(gf, w0, 1.0)
    drift = np.abs(dsc.hamiltonian(gf, w1) - dsc.hamiltonian(gf, w0))

    bound_dev = max(abs(dsc.hyp_cylinder_max_length(np.e) - np.pi / 2.0),
                    abs(dsc.elliptic_cylinder_radius_bound(
                        np.pi / 2.0, np.pi / 2.0) - 0.5))
    checks = {
        "cone": _check("max cone margin transfer deviation", dev_cone.max(),
                       1e-9),
        "functorial": _check("max composition deviation", dev_fun.max(), 1e-10),
        "isometry": _check("max distance deviation", dev_iso.max(), 1e-9),
        "hamiltonian_sign": _check("min H over cone samples", h.min(), 0.0,
                                   mode="ge"),
        "boundary_field": _check("min angular component on |w|=1",
                                 along.min(), -1e-12, mode="ge"),
        "poisson": _check("max defect at h=1e-3", defect.max(), 1e-5),
        "richardson": _check("max |slope - 2|", slope.max(), 0.2),
        "flow_drift": _check("max H drift per unit time", drift.max(), 1e-6),
        "closed_bounds": _check("max spot-value deviation", bound_dev, 1e-12),
    }
    return _report("hyperdisc", cfg, checks, np.concatenate(
        [bad, bad_cone, bad_pair, drift > 1e-6]))


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


def _field(fields: dict, key: str, boolean: bool = False):
    """fields[key], a JSON number, or true/false if boolean: a ParseError
    names a missing or mistyped one."""
    val = fields.get(key)
    if type(val) not in ((bool,) if boolean else (int, float)):
        raise ParseError(f"{key!r} must be "
                         f"{'true or false' if boolean else 'a number'}, "
                         f"got {val!r}")
    return val


# Each artifact kind's claims: `build` writes them (claims_of) and `verify
# --artifact` re-derives them from this table.  A row with no bound is a
# number that must match its recomputed value to CLAIM_MATCH (up to sign if
# mod_sign, as for a PSL(2,R) trace); a row with a bound is a boolean that
# must equal "the recomputed value is within the bound".
Claim = namedtuple("Claim", "quantity recompute bound convention mod_sign",
                   defaults=(None, "", False))
CLAIMS = {
    "group-path": {
        **{side: Claim(f"max {side} cone defect of the left cocycles "
                       "(slack PATH_CONE_SLACK)", lambda p, neg=neg: float(
                           p.defects(nonpos=neg).max()), PATH_CONE_SLACK)
           for side, neg in (("nonneg", False), ("nonpos", True))},
        "rot_gain": Claim("|rot gain - claim|",
                          lambda p: cover.rot_along(p.nodes)[1]),
    },
    "loop-connection": {
        "rot": Claim("|rot - claim|", lambda a: a.rot()),
        "holonomy_trace": Claim("|holonomy trace - claim|",
                                lambda a: a.holonomy().trace, mod_sign=True),
    },
    "cylinder-connection": {
        # the constructor's curvature is w Ad(Pi) gamma, det w^2 det gamma;
        # the linear -alpha term is held to the same bound
        "nonneg_curved": Claim(
            "max curvature cone defect (slack PATH_CONE_SLACK * bump peak^2)",
            lambda c: c.max_curvature_defect(),
            PATH_CONE_SLACK * float(cx.bump_weight(0.5)) ** 2),
        "flat": Claim("max |curvature|", lambda c: c.max_curvature_norm(),
                      MARGIN),
        "rot_boundary": Claim("|rot_boundary - claim|",
                              lambda c: c.rot_boundary(),
                              convention=BOUNDARY_CONVENTION),
    },
    # read from the report, which verify re-derives first
    "unit-path": {key: Claim(f"|{key} - claim|",
                             lambda u, key=key: u["report"][key])
                  for key in ("rot_gain", "k_rot")},
}


def claims_of(kind: str, art, **promised) -> dict:
    """What `build` claims: each number of the kind's table, and each
    boolean the builder promises (None: the recomputed decision)."""
    out = {}
    for name, (_, recompute, bound, _, _) in CLAIMS[kind].items():
        if bound is None:
            out[name] = recompute(art)
        elif name in promised:
            out[name] = (bool(recompute(art) <= bound)
                         if promised[name] is None else promised[name])
    return out


def verify_artifact(obj: dict) -> dict:
    """Re-derive every claim stored alongside a built artifact."""
    art, kind = obj_to_artifact(obj), obj["kind"]
    claims = obj.get("claims")
    if not isinstance(claims, dict) or not claims:
        # an artifact that claims nothing would pass with nothing checked
        raise ParseError(f"'claims' must be a non-empty JSON object, got "
                         f"{claims!r}")
    checks = {}
    if kind == "unit-path":
        # the claims read the report re-derived from the nodes; GroupPath
        # renormalises the loaded k again (not idempotent): hence CLAIM_MATCH
        stored = art["report"]
        rep = art["report"] = pth.unit_path_report(art["g1"], art["k"].nodes,
                                                   art["lam"])
        devs = [float(stored.get(key) != val) if isinstance(val, str)
                else abs(val - _field(stored, key)) for key, val in rep.items()]
        checks = {
            "residuals": _check("max recomputed residual", max(
                rep["conjugation_residual"], rep["trace_identity_residual"]),
                1e-6),
            "report": _check("max |stored - recomputed| report field (text: "
                             "1 if it differs)", max(devs), CLAIM_MATCH),
            "ps": _check("min p s", rep["min_ps"], 0.0, mode="ge"),
        }
    for name in claims:
        if name not in CLAIMS[kind]:
            raise ParseError(f"unknown {kind} claim {name!r}")
        quantity, recompute, bound, convention, mod_sign = CLAIMS[kind][name]
        claim = _field(claims, name, boolean=bound is not None)
        value = recompute(art)
        if bound is None:
            dev = (abs(abs(value) - abs(claim)) if mod_sign
                   else abs(value - claim))
            checks[name] = _check(quantity, dev, CLAIM_MATCH,
                                  convention=convention)
        else:
            checks[name] = {**_check(quantity, value, bound,
                                     "le" if claim else "ge", convention),
                            "satisfied": bool(value <= bound) == claim}
    return {"artifact": kind, "checks": checks, "claims": claims,
            "passed": all(c["satisfied"] for c in checks.values())}

"""Sampled paths in PSL(2,R) and the nonnegative-path constructors.

A path is stored as det-1 node matrices on the uniform grid t_i = i/N.
Nonnegativity means every discrete derivative cocycle lies in the
nonnegative cone of traceless matrices, decided by the cone defects of the
left cocycles g^-1 g'; margins() reports the right ones g' g^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cover
from .core import (
    ELLIPTIC,
    GroupElement,
    HYPERBOLIC,
    IDENTITY,
    LieElement,
    NonUnimodular,
    PATH_CONE_SLACK,
    classify,
    cone_defects,
    cone_margins,
    from_entries,
    kernel_vector,
    mat_inv,
    rotation,
    sl2_exp,
    sl2_log,
    sub_identity,
)
from .disc import _finite, _in_disc, _out

MAX_STEP = 0.5
# the hyperbolic itinerary's push into the cone, relative to sqrt(r)
_ETA_SCALE = 1e-3
# unit-path segments are refined to at most this many steps: the default
# n = 2000 gives 1000, so a coarse n builds exactly what the default builds
_MAX_SEGMENT_STEPS = 1024


class StepTooLarge(ValueError):
    """Consecutive path nodes too far apart to resolve the motion."""


class ItineraryViolation(ValueError):
    """Requested conjugacy-class itinerary not followed within tolerance."""


class ConjugatorBranchLoss(RuntimeError):
    """Continuous eigenvector/conjugator branch could not be maintained."""


def _branch_signs(x: np.ndarray) -> np.ndarray:
    # signs s_i with s_0 = 1 and s_i x_i . s_{i-1} x_{i-1} >= 0: the
    # cumulative product of the relative signs of consecutive entries
    x = x.reshape(len(x), -1)
    dots = np.vecdot(x[1:], x[:-1])
    return np.cumprod(np.concatenate([[1.0], np.where(dots < 0, -1.0, 1.0)]))


def align_signs(nodes: np.ndarray) -> np.ndarray:
    """Flip representative signs so consecutive nodes are Frobenius-nearest."""
    nodes = np.asarray(nodes, dtype=float)
    return nodes * _branch_signs(nodes)[:, None, None]


@dataclass(frozen=True)
class GroupPath:
    """Nodes of a path [0,1] -> PSL(2,R) on the uniform grid."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 3 or nodes.shape[1:] != (2, 2) or len(nodes) < 2:
            raise ValueError(f"need an (N+1, 2, 2) array, got {nodes.shape}")
        det = nodes[:, 0, 0] * nodes[:, 1, 1] - nodes[:, 0, 1] * nodes[:, 1, 0]
        if not np.all(np.isfinite(det)) or np.any(det <= 0):
            raise NonUnimodular(f"node determinants must be positive, min {det.min()}")
        nodes = align_signs(nodes / np.sqrt(det)[:, None, None])
        steps = np.linalg.norm(np.diff(nodes, axis=0), axis=(1, 2))
        if steps.max() > MAX_STEP:
            raise StepTooLarge(
                f"largest node step {steps.max():.3g} exceeds {MAX_STEP}")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def h(self) -> float:
        return 1.0 / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, len(self.nodes))

    def node(self, i: int) -> GroupElement:
        return GroupElement(self.nodes[i])

    def _steps(self, left: bool) -> np.ndarray:
        dm = (mat_inv(self.nodes[:-1]) @ self.nodes[1:] if left
              else self.nodes[1:] @ mat_inv(self.nodes[:-1]))
        if np.linalg.norm(dm - IDENTITY, axis=(1, 2)).max() >= 1.0:
            raise StepTooLarge("a step leaves the principal log chart")
        return dm

    def _log_steps(self, left: bool) -> np.ndarray:
        return sl2_log(self._steps(left))

    def left_cocycles(self) -> np.ndarray:
        """log(g_i^-1 g_{i+1}) / h: midpoint values of g^-1 g'."""
        return self._log_steps(left=True) / self.h

    def right_cocycles(self) -> np.ndarray:
        """log(g_{i+1} g_i^-1) / h: midpoint values of g' g^-1."""
        return self._log_steps(left=False) / self.h

    def margins(self) -> np.ndarray:
        return cone_margins(self.right_cocycles())

    def defects(self, nonpos: bool = False) -> np.ndarray:
        """cone_defects of the left cocycles, negated if nonpos."""
        x = self.left_cocycles()
        return cone_defects(-x if nonpos else x)

    def is_nonneg(self) -> bool:
        return bool(self.defects().max() <= PATH_CONE_SLACK)

    def is_nonpos(self) -> bool:
        return bool(self.defects(nonpos=True).max() <= PATH_CONE_SLACK)

    def inverted(self) -> "GroupPath":
        return GroupPath(mat_inv(self.nodes))

    def refine(self, substeps: int) -> "GroupPath":
        """Geodesic subdivision: substeps - 1 extra nodes inside each step."""
        if substeps <= 1:
            return self
        self._steps(left=True)  # every step inside the principal log chart
        return GroupPath(geodesic_refine(self.nodes, substeps))


def geodesic_refine(nodes: np.ndarray, k: int) -> np.ndarray:
    """k - 1 extra nodes inside each step, on the one-parameter subgroup
    through the principal log of nodes_i^-1 nodes_{i+1}."""
    if k <= 1:
        return nodes
    logs = sl2_log(mat_inv(nodes[:-1]) @ nodes[1:])
    taus = np.arange(k) / k
    fill = np.einsum("nab,ntbc->ntac", nodes[:-1],
                     sl2_exp(taus[None, :, None, None] * logs[:, None]))
    return np.concatenate([fill.reshape(-1, 2, 2), nodes[-1:]])


def pointwise_product(p1: GroupPath, p2: GroupPath) -> GroupPath:
    if p1.n_steps != p2.n_steps:
        raise ValueError("paths must share the grid")
    return GroupPath(p1.nodes @ p2.nodes)


def make_positive(path: GroupPath, eta: float = 1e-3) -> GroupPath:
    """Compose with the slow rotation R(eta pi t).

    Rotations act on cone coordinates by turning (delta, eps) and fixing
    alpha, so every right-cocycle margin goes up by exactly eta pi.
    """
    return GroupPath(rotation(eta * np.pi * path.times) @ path.nodes)


def _as_traceless(gamma) -> np.ndarray:
    if isinstance(gamma, LieElement):
        return gamma.x
    return LieElement(np.asarray(gamma, dtype=float)).x


def spiral_path(r: int, gamma, n: int | None = None) -> GroupPath:
    """R(r pi t) exp(t gamma): winds r half-turns while drifting by gamma.

    Small gamma keeps the derivative inside the cone: the right cocycle is
    r pi J + Ad_{R(r pi t)} gamma, with margin at least r pi - 2 |gamma|.
    """
    gamma = _as_traceless(gamma)
    if np.linalg.norm(gamma) > 0.2:
        raise ValueError("|gamma| must stay below 0.2 to remain in the cone")
    if r != int(r) or r < 1:
        raise ValueError("winding r must be a positive integer")
    if n is None:
        n = max(64, int(np.ceil(48 * (r + 1))))
    t = np.linspace(0.0, 1.0, n + 1)
    return GroupPath(rotation(r * np.pi * t) @ sl2_exp(t[:, None, None] * gamma))


# ---------------------------------------------------------------------------
# class itineraries


def _node_values(data, n: int) -> np.ndarray:
    vals = np.asarray(data, dtype=float)
    if vals.shape != (n + 1,):
        raise ValueError(f"need {n + 1} node values, got shape {vals.shape}")
    return vals


def elliptic_itinerary_path(theta, g0: GroupElement | None = None,
                            n: int = 1000) -> GroupPath:
    """Nonnegative path through the elliptic classes of angle theta(t).

    The flow g' = g gamma, gamma = theta' (g - cos(theta) 1) / sin(theta),
    keeps tr g = 2 cos(theta(t)), and its generator lies in span{1, g}, so
    g never leaves span{1, g0}: the nodes are exactly
    g_i = cos(theta_i) 1 + sin(theta_i) J0, J0 = (g0 - cos(theta_0) 1) /
    sin(theta_0), with J0^2 = -1.  The cone margin of the cocycle is
    positive exactly where theta' > 0.  A decreasing theta is refused: no
    nonnegative path can lower the elliptic angle (reverse the result to
    realize the nonpositive itinerary).
    """
    theta = _node_values(theta, n)
    if theta.min() < 1e-6 or theta.max() > np.pi - 1e-6:
        raise ItineraryViolation("theta must stay inside (0, pi)")
    if np.diff(theta).min() < -1e-12:
        raise ItineraryViolation("theta must be nondecreasing on a nonnegative path")
    if g0 is None:
        start = rotation(theta[0])
    else:
        spec = classify(g0)
        if spec.kind != ELLIPTIC or abs(spec.value - theta[0]) > 1e-9:
            raise ItineraryViolation(
                f"g0 must be elliptic of angle {theta[0]}, got {spec}")
        # counterclockwise representative has trace 2 cos(theta)
        start = g0.m if g0.m[1, 0] > 0 else -g0.m
    j0 = sub_identity(start, np.cos(theta[0])) / np.sin(theta[0])
    nodes = np.sin(theta)[:, None, None] * j0
    path = GroupPath(sub_identity(nodes, -np.cos(theta), out=nodes))
    drift = np.abs(np.abs(path.nodes[:, 0, 0] + path.nodes[:, 1, 1])
                   - 2.0 * np.abs(np.cos(theta)))
    if drift.max() > 1e-6:
        raise ItineraryViolation(f"angle itinerary drifted by {drift.max():.3g}")
    return path


def hyperbolic_itinerary_path(lam, direction: int = 1,
                              g0: GroupElement | None = None,
                              n: int = 1000) -> GroupPath:
    """Nonnegative path through hyperbolic classes of multiplier lam(t).

    Flows along a perturbed cone-boundary generator rescaled so the trace
    of the representative follows tau(t) = direction (lam + 1/lam) exactly;
    the boundary branch tracks the sign of tau'.  Classical RK4 on the
    piecewise linear lam, every stage of step i on the piece i.
    """
    lam_nodes = _node_values(lam, n)
    if lam_nodes.min() <= 1.0 + 1e-9:
        raise ItineraryViolation("multiplier must stay above 1")
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if g0 is None:
        start = direction * np.diag([lam_nodes[0], 1.0 / lam_nodes[0]])
    else:
        spec = classify(g0)
        if spec.kind != HYPERBOLIC or abs(spec.value - lam_nodes[0]) > 1e-9:
            raise ItineraryViolation(
                f"g0 must be hyperbolic of multiplier {lam_nodes[0]}, "
                f"got {spec}")
        tr = g0.trace
        start = g0.m if tr * direction > 0 else -g0.m

    h = 1.0 / n
    steps = np.arange(n)[:, None]
    rise = np.diff(lam_nodes)[:, None]
    # lam and tau' = direction (1 - 1/lam^2) lam' at the stage times
    # t, t + h/2 and t + h of every step
    x = (steps * h + np.array([0.0, h / 2, h])) * n
    stage_lam = lam_nodes[:-1, None] + (x - steps) * rise
    dtaus = (direction * (1.0 - 1.0 / stage_lam ** 2) * (rise * n)).tolist()

    def deriv(dtau, a, b, c, d):
        # (dtau / tr(g gamma)) gamma g for the cone-boundary generator
        # gamma = sqrt(r) J + sign m + eta J, m = [[a - d, b + c],
        # [b + c, d - a]], r = (a - d)^2 + (b + c)^2 = tr^2 - 4 + (c - b)^2.
        # The + branch has tr(g gamma) = sqrt(r)(sqrt(r) - T) > 0, so it
        # always raises the trace; eta J pushes strictly inside the cone.
        # eta is capped so the eta J term never overturns the sign of
        # tr(g gamma), whose unperturbed size is at least
        # (tr^2 - 4) sqrt(r) / (sqrt(r) + |T|).
        if dtau == 0.0:
            return 0.0, 0.0, 0.0, 0.0
        sign = 1.0 if dtau > 0 else -1.0
        root_r = math.hypot(a - d, b + c)
        tee = abs(c - b)
        eta = _ETA_SCALE * root_r
        if tee > 0.0:
            eta = min(eta, 0.25 * ((a + d) ** 2 - 4.0) * root_r
                      / ((root_r + tee) * tee))
        g00 = sign * (a - d)
        g01 = sign * (b + c) - root_r - eta
        g10 = sign * (b + c) + root_r + eta
        g11 = -g00
        f = dtau / (a * g00 + b * g10 + c * g01 + d * g11)
        return (f * (g00 * a + g01 * c), f * (g00 * b + g01 * d),
                f * (g10 * a + g11 * c), f * (g10 * b + g11 * d))

    # the state steps as four Python floats: at 2x2 a numpy call costs
    # more than the arithmetic it does
    g = start.ravel().tolist()
    rows = [g]
    h2, h6 = h / 2, h / 6
    for d0, d1, d2 in dtaus:
        k1 = deriv(d0, *g)
        k2 = deriv(d1, *[v + h2 * k for v, k in zip(g, k1)])
        k3 = deriv(d1, *[v + h2 * k for v, k in zip(g, k2)])
        k4 = deriv(d2, *[v + h * k for v, k in zip(g, k3)])
        g = [v + h6 * (p + 2 * q + 2 * r + s)
             for v, p, q, r, s in zip(g, k1, k2, k3, k4)]
        rows.append(g)
    path = GroupPath(np.reshape(rows, (n + 1, 2, 2)))
    target = lam_nodes + 1.0 / lam_nodes
    drift = np.abs(np.abs(path.nodes[:, 0, 0] + path.nodes[:, 1, 1]) - target)
    if drift.max() > 1e-5:
        raise ItineraryViolation(f"multiplier itinerary drifted by {drift.max():.3g}")
    return path


# ---------------------------------------------------------------------------
# the unit path and its conjugator frame


def conjugator_path(nodes: np.ndarray, lam: float) -> np.ndarray:
    """Continuous det-1 frames k_i with nodes_i = k_i diag(lam,1/lam) k_i^-1.

    Every node must be hyperbolic of multiplier lam.  The expanding
    eigenvector branch is carried along the path, which keeps consecutive
    frames on one side; the second column, sign(du) c u2, does not depend
    on the sign of u2.  A jump above the resolvability threshold raises
    ConjugatorBranchLoss.
    """
    nodes = np.asarray(nodes, dtype=float)
    tr = nodes[:, 0, 0] + nodes[:, 1, 1]
    mp = np.where((tr >= 0)[:, None, None], nodes, -nodes)
    # unit eigenvectors, the first branch carried continuously along the path
    u1, u2 = (kernel_vector(sub_identity(mp, np.full(len(mp), ev)))
              for ev in (lam, 1.0 / lam))
    u1 /= np.sqrt(np.vecdot(u1, u1))[:, None]
    u2 /= np.sqrt(np.vecdot(u2, u2))[:, None]
    u1 *= _branch_signs(u1)[:, None]
    du = u1[:, 0] * u2[:, 1] - u1[:, 1] * u2[:, 0]
    collapse = np.abs(du) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = 1.0 / np.sqrt(np.abs(du))
        ks = np.stack([c1[:, None] * u1,
                       np.where(du > 0, c1, -c1)[:, None] * u2], axis=2)
        step = np.minimum(np.linalg.norm(ks[1:] - ks[:-1], axis=(1, 2)),
                          np.linalg.norm(ks[1:] + ks[:-1], axis=(1, 2)))
    # the first failing node; a collapse there is reported before a jump
    bad = collapse | np.concatenate([[False], step > MAX_STEP])
    if bad.any():
        i = int(bad.argmax())
        if collapse[i]:
            raise ConjugatorBranchLoss(f"eigenvectors collapse at node {i}")
        raise ConjugatorBranchLoss(f"conjugator jump at node {i}")
    return ks


def _resolved(segment, count: int) -> np.ndarray:
    # segment(u) at count uniform steps of [0, 1], the count doubled while
    # a node step exceeds MAX_STEP and it stays within _MAX_SEGMENT_STEPS
    nodes = segment(np.linspace(0.0, 1.0, count + 1))
    while (2 * count <= _MAX_SEGMENT_STEPS and np.linalg.norm(
            np.diff(nodes, axis=0), axis=(1, 2)).max() > MAX_STEP):
        count *= 2
        nodes = segment(np.linspace(0.0, 1.0, count + 1))
    return nodes


def conjugation_residual(nodes: np.ndarray, ks: np.ndarray, lam: float) -> float:
    rebuilt = ks @ np.diag([lam, 1.0 / lam]) @ mat_inv(ks)
    signs = np.where((nodes * rebuilt).sum(axis=(1, 2)) < 0, -1.0, 1.0)
    return float(np.linalg.norm(nodes - signs[:, None, None] * rebuilt,
                                axis=(1, 2)).max())


def unit_path(lam_target: float, lam: float,
              n: int = 2000) -> tuple[GroupPath, GroupPath, dict]:
    """Path from 1 losing a "unit" of trace: endpoint trace -(lam_t + 1/lam_t).

    Both segments stay inside the level set {tr(g diag(lam, 1/lam)) =
    lam + 1/lam}: first the lower-triangular shear raising the corner
    entry to 1, then the slide with that corner pinned driving the trace
    monotonically from 2 down through -2.  The path is conjugate to a
    nonnegative path; here the verifiable consequences are produced: the
    conjugator frame k(t) of g1(t) g2, its trace identity, the positivity
    of its diagonal, and the exact unit of rot gained by g1.

    n is a lower bound: each segment gets half of the n steps, doubled
    while its node steps exceed MAX_STEP, up to _MAX_SEGMENT_STEPS.
    """
    if lam <= 1.0 or lam_target <= 1.0:
        raise ValueError("multipliers must exceed 1")
    a_end = (lam ** 2 + 1.0 + lam_target + 1.0 / lam_target) / (lam ** 2 - 1.0)

    def shear(u):
        return from_entries(1.0, 0.0, u, 1.0)

    def slide(u):
        av = 1.0 + (a_end - 1.0) * u
        d = lam ** 2 + 1.0 - av * lam ** 2
        return from_entries(av, av * d - 1.0, 1.0, d)

    half = n // 2
    seg_a, seg_b = _resolved(shear, half), _resolved(slide, n - half)
    g1 = GroupPath(np.concatenate([seg_a, seg_b[1:]]))

    ks = conjugator_path(g1.nodes @ np.diag([lam, 1.0 / lam]), lam)
    return g1, GroupPath(ks), unit_path_report(g1, ks, lam)


def unit_path_report(g1: GroupPath, k_frames: np.ndarray, lam: float) -> dict:
    """The report of unit_path from g1 and the frames k_i of its nodes:
    g1_i diag(lam, 1/lam) = k_i diag(lam, 1/lam) k_i^-1."""
    ms = g1.nodes @ np.diag([lam, 1.0 / lam])
    ps = k_frames[:, 0, 0] * k_frames[:, 1, 1]
    # eq: tr(g1) = (1 - p s)(lam - 1/lam)^2 + 2 with p, s the k diagonal
    identity_residual = float(np.abs(
        (1.0 - ps) * (lam - 1.0 / lam) ** 2 + 2.0
        - (g1.nodes[:, 0, 0] + g1.nodes[:, 1, 1])).max())
    k_end_lift, _ = cover.rot_along(k_frames)
    _, gain = cover.rot_along(g1.nodes)
    return {
        "conjugation_residual": conjugation_residual(ms, k_frames, lam),
        "trace_identity_residual": identity_residual,
        "min_ps": float(ps.min()),
        "k_end_class": str(classify(GroupElement(k_frames[-1]))),
        "k_rot": cover.rot(k_end_lift),
        "rot_gain": gain,
        "endpoint_trace": float(g1.nodes[-1, 0, 0] + g1.nodes[-1, 1, 1]),
    }


# ---------------------------------------------------------------------------
# the hyperbolic triple with a rot defect


@dataclass(frozen=True)
class TripleWithLifts:
    g0: GroupElement
    g1: GroupElement
    g2: GroupElement
    l0: cover.LiftedElement
    l1: cover.LiftedElement
    l2: cover.LiftedElement

    @property
    def defect(self) -> float:
        return cover.rot(self.l0) - cover.rot(self.l1) - cover.rot(self.l2)


def three_classes_triple(lam0: float, lam1: float, lam2: float,
                         branch: int = -1) -> TripleWithLifts:
    """Hyperbolic g1, g2 of multipliers lam1, lam2 with g1 g2 of multiplier
    lam0 and negative trace.

    The lifts connect each factor to the identity through its one-parameter
    subgroup; l0 is their cover product.  branch -1 makes the triple lose
    one unit of rot (rot l0 = -1), branch +1 gain one.
    """
    if min(lam0, lam1, lam2) <= 1.0:
        raise ValueError("multipliers must exceed 1")
    if branch not in (-1, 1):
        raise ValueError("branch must be -1 or +1")
    t = (lam0 + 1.0 / lam0 + lam1 * lam2 + 1.0 / (lam1 * lam2)) / (lam1 - 1.0 / lam1)
    s = float(branch)
    g1 = GroupElement.diagonal(lam1)
    g2 = GroupElement(np.array([
        [lam2 - t, s * (lam2 - 1.0 / lam2 - t)],
        [s * t, 1.0 / lam2 + t],
    ]))
    # positive-trace representatives are exp of their principal log, so the
    # one-parameter lifts land on the zero-rot branch
    l1 = cover.one_param_lift(sl2_log(g1.m if g1.trace > 0 else -g1.m))
    l2 = cover.one_param_lift(sl2_log(g2.m if g2.trace > 0 else -g2.m))
    l0 = cover.compose(l1, l2)
    return TripleWithLifts(g1 @ g2, g1, g2, l0, l1, l2)


# ---------------------------------------------------------------------------
# two elliptic factors


def elliptic_about(theta, w):
    """Rotation by theta about the disc point w, |w| < 1, as a real matrix.

    Arrays of angles and points give a (..., 2, 2) array of matrices; the
    0-d case is a GroupElement.
    """
    _finite(theta)
    w = _in_disc(w)
    c, s = np.cos(theta), np.sin(theta)
    den = 1.0 - np.abs(w) ** 2
    m = from_entries(c - s * 2.0 * w.imag / den, -s * np.abs(1 + w) ** 2 / den,
                     s * np.abs(1 - w) ** 2 / den, c + s * 2.0 * w.imag / den)
    return GroupElement(m) if m.ndim == 2 else m


def two_elliptic_trace(theta1, theta2, w):
    """Trace of (rotation theta1 about w) (rotation theta2 about 0).

    Equals 2 cos t1 cos t2 - 2 sin t1 sin t2 (1+|w|^2)/(1-|w|^2); decreasing
    in |w|, with supremum 2 cos(t1 + t2) on the diagonal w = 0.  Broadcasts
    over arrays of angles and points.
    """
    _finite(theta1, theta2)
    r2 = np.abs(_in_disc(w)) ** 2
    return _out(2.0 * np.cos(theta1) * np.cos(theta2)
                - 2.0 * np.sin(theta1) * np.sin(theta2) * (1.0 + r2) / (1.0 - r2))

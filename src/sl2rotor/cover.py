"""Lifts of the projective circle action and rotation numbers.

A group element g acts on the circle of directions RP^1 = R/(pi Z) by
x -> angle of g (cos x, sin x).  An element of the universal cover is a
pair (g, anchor) where anchor is a real lift of the image angle of
direction 0; it pins down the continuous lift f: R -> R of the action,
with f(x + pi) = f(x) + pi and f(0) = anchor.

Rotation numbers are normalized so the deck translation x -> x + pi has
rot = 1 (a lift of the counterclockwise rotation by theta moving every
direction forward has rot = theta / pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateClassification,
    ELLIPTIC,
    GroupElement,
    IDENTITY,
    IDENTITY_CLASS,
    classify,
    kernel_vector,
    sl2_exp,
)

PI = np.pi
# factors per block of the blocked scan in left_products
_SCAN_BLOCK = 64
# how far a walked or tracked angle that belongs on the deck lattice pi Z
# may sit from it before the lift counts as degenerate
_DECK_SNAP = 1e-6


class ParityUndefined(ArithmeticError):
    """No sign choice in SL(2,R): the lift sits on a half-integer rot band."""


def act_angle(g: GroupElement, x: float) -> float:
    """Principal image angle of direction x under g, in (-pi, pi]."""
    v = np.array([np.cos(x), np.sin(x)])
    w = g.m @ v
    return float(np.arctan2(w[1], w[0]))


def _angles_along(ms: np.ndarray, x: np.ndarray) -> np.ndarray:
    # image angles of directions x[i] under matrices ms[i] (or one matrix)
    c, s = np.cos(x), np.sin(x)
    wx = ms[..., 0, 0] * c + ms[..., 0, 1] * s
    wy = ms[..., 1, 0] * c + ms[..., 1, 1] * s
    return np.arctan2(wy, wx)


def _deck_index(x: float, what: str) -> int:
    """The k with x = k pi up to _DECK_SNAP; DegenerateClassification if none."""
    k = round(x / PI)
    if abs(x - k * PI) > _DECK_SNAP:
        raise DegenerateClassification(
            f"{what} {x} is {x - k * PI} from a multiple of pi")
    return k


def _wrap_increments(d: np.ndarray) -> np.ndarray:
    # nearest representative mod pi; valid while true increments stay
    # well inside (-pi/2, pi/2), which every walk below guarantees
    return (d + PI / 2.0) % PI - PI / 2.0


def _sigma_sq(m: np.ndarray) -> float:
    # squared largest singular value of a det-1 matrix; it bounds the
    # derivative of the lifted action, f'(x) = 1 / |g v(x)|^2 <= sigma^2
    f2 = float(np.sum(m * m))
    return (f2 + np.sqrt(max(f2 * f2 - 4.0, 0.0))) / 2.0


@dataclass(frozen=True)
class LiftedElement:
    """Universal cover element: base g plus the lift value at direction 0."""

    g: GroupElement
    anchor: float

    def __post_init__(self):
        a0 = act_angle(self.g, 0.0)
        res = self.anchor - a0
        if abs(res / PI - round(res / PI)) > 1e-6:
            raise ValueError(
                f"anchor {self.anchor} is not a lift of the image angle {a0}")


def lift_of(g: GroupElement) -> LiftedElement:
    """The standard lift, anchor in [0, pi)."""
    return LiftedElement(g, act_angle(g, 0.0) % PI)


def deck(lift: LiftedElement, n: int) -> LiftedElement:
    return LiftedElement(lift.g, lift.anchor + n * PI)


def eval_lift(lift: LiftedElement, x: float) -> float:
    """f(x) for the continuous lift pinned by the anchor.

    Walks from 0 to x in steps so short that each true angle increment is
    below pi/8 (the lift is sigma^2-Lipschitz), then accumulates
    nearest-mod-pi wrapped increments.  One vectorized pass.
    """
    x = float(x)
    if x == 0.0:
        return lift.anchor
    n = int(np.ceil(8.0 * abs(x) * _sigma_sq(lift.g.m) / PI)) + 1
    xs = np.linspace(0.0, x, n + 1)
    a = _angles_along(lift.g.m, xs)
    return lift.anchor + float(np.sum(_wrap_increments(np.diff(a))))


def compose(l1: LiftedElement, l2: LiftedElement) -> LiftedElement:
    """Product of cover elements: base g1 g2, anchor f1(f2(0))."""
    g = l1.g @ l2.g
    raw = eval_lift(l1, l2.anchor)
    # snap to an exact lift of the product's principal angle; the walk
    # only contributes rounding noise here
    a0 = act_angle(g, 0.0)
    k = _deck_index(raw - a0, "composed anchor offset")
    return LiftedElement(g, a0 + k * PI)


def inverse(lift: LiftedElement) -> LiftedElement:
    """The cover inverse: anchor solves f(anchor_inv) = 0."""
    ginv = lift.g.inv()
    a = act_angle(ginv, 0.0)
    # g maps direction a to direction 0, hence f(a) is an exact multiple of pi
    k = _deck_index(eval_lift(lift, a), "inverse anchor image")
    return LiftedElement(ginv, a - k * PI)


def _displacement_band(lift: LiftedElement) -> int:
    # integer m with f(x) - x in (m pi, (m+1) pi) for all x; well defined
    # for elliptic g because the displacement never crosses pi Z
    sig2 = _sigma_sq(lift.g.m)
    n = max(64, int(np.ceil(8.0 * sig2)))
    xs = np.linspace(0.0, PI, n + 1)
    a = _angles_along(lift.g.m, xs)
    f = lift.anchor + np.concatenate(
        [[0.0], np.cumsum(_wrap_increments(np.diff(a)))])
    d = f - xs
    lo, hi = float(d.min()), float(d.max())
    m = int(np.floor(0.5 * (lo + hi) / PI))
    edge = 1e-12 * (1.0 + abs(lo) + abs(hi))
    if not (m * PI + edge < lo and hi < (m + 1) * PI - edge):
        raise DegenerateClassification(
            f"elliptic displacement range [{lo}, {hi}] touches a pi multiple")
    return m


def rot(lift: LiftedElement) -> float:
    """Translation number of the lift, exact integers off the elliptic set.

    Elliptic: band index of the displacement plus the class angle / pi.
    Otherwise some direction x0 is projectively fixed, so f(x0) - x0 is an
    exact multiple of pi and rot is that integer.
    """
    spec = classify(lift.g)
    if spec.kind == ELLIPTIC:
        return _displacement_band(lift) + spec.value / PI
    if spec.kind == IDENTITY_CLASS:
        x0 = 0.0
    else:
        # a fixed direction: the kernel of m - lam 1, with m the positive
        # trace representative and lam its larger eigenvalue
        m = lift.g.m if lift.g.trace >= 0 else -lift.g.m
        tr = m[0, 0] + m[1, 1]
        lam = (tr + np.sqrt(max(tr * tr - 4.0, 0.0))) / 2.0
        v = kernel_vector(m - lam * np.eye(2))
        x0 = float(np.arctan2(v[1], v[0]))
    return float(_deck_index(eval_lift(lift, x0) - x0,
                             "fixed-direction displacement"))


def rot_iterative(lift: LiftedElement, k: int = 64) -> float:
    """Birkhoff estimate f^k(0) / (k pi); slow, error below 1/k.

    Kept as an independent cross-check for rot; do not use in hot loops.
    """
    y = 0.0
    for _ in range(k):
        y = eval_lift(lift, y)
    return y / (k * PI)


def sl2_rep(lift: LiftedElement) -> np.ndarray:
    """Image in SL(2,R) = cover mod squared deck; sign from the rot band.

    The trace of the image is positive on even bands (rot rounding to an
    even integer) and negative on odd bands; it vanishes exactly on the
    half-integer elliptic locus, where no continuous sign exists.
    """
    m = lift.g.m
    tr = m[0, 0] + m[1, 1]
    if abs(tr) <= 1e-12:
        raise ParityUndefined("trace vanishes: lift sits between parity bands")
    r = rot(lift)
    if abs(r - np.floor(r) - 0.5) <= 1e-9:
        raise ParityUndefined(f"rot {r} is a half integer")
    band = round(r)
    want_positive = band % 2 == 0
    return m if (tr > 0) == want_positive else -m


def left_products(factors: np.ndarray) -> np.ndarray:
    """Ordered partial products P_0 = 1, P_{j+1} = factors_j P_j.

    A blocked scan: the products within blocks of _SCAN_BLOCK factors
    advance one position per batched matmul across all blocks, the block
    products are chained by the same scan, and one batched matmul applies
    each block's prefix.  The first block is formed exactly as the
    sequential recursion forms it.
    """
    factors = np.asarray(factors, dtype=float)
    n = len(factors)
    out = np.empty((n + 1, 2, 2))
    out[0] = IDENTITY
    if n == 0:
        return out
    b = min(n, _SCAN_BLOCK)
    nb = -(-n // b)
    if nb * b > n:  # the last block is padded with 1
        factors = np.concatenate(
            [factors, np.broadcast_to(IDENTITY, (nb * b - n, 2, 2))])
    if nb == 1:  # one block is already in the order of out: scan in place
        f, local = factors, out[1:]
    else:  # position-major, so every step reads and writes contiguous slices
        f = np.ascontiguousarray(factors.reshape(nb, b, 2, 2).swapaxes(0, 1))
        local = np.empty_like(f)
    np.matmul(f[0], IDENTITY, out=local[0])
    for k in range(1, b):
        np.matmul(f[k], local[k - 1], out=local[k])
    if nb > 1:
        out[1:b + 1] = local[:, 0]
        # pre[j] is the product of all factors before block j
        pre = left_products(local[-1, :-1])
        rest = np.matmul(local[:, 1:], pre[1:]).swapaxes(0, 1)
        out[b + 1:] = rest.reshape(-1, 2, 2)[:n - b]
    return out


def step_traces(nodes: np.ndarray) -> np.ndarray:
    """tr(nodes_{j+1} nodes_j^-1) of det-1 nodes, by the adjugate inverse."""
    n0, n1 = nodes[:-1], nodes[1:]
    return (n1[:, 0, 0] * n0[:, 1, 1] + n1[:, 1, 1] * n0[:, 0, 0]
            - n1[:, 0, 1] * n0[:, 1, 0] - n1[:, 1, 0] * n0[:, 0, 1])


def track_lift_along(nodes: np.ndarray,
                     logs: np.ndarray | None = None) -> LiftedElement:
    """Continuous lift of the endpoint of a matrix path.

    nodes is an (N+1, 2, 2) array of det-1 matrices.  Step j runs along
    s -> exp(s L_j) nodes_j, where L_j is logs_j when logs is given and
    otherwise the principal log of nodes_{j+1} nodes_j^-1, whose trace
    must exceed -2 (ValueError otherwise).  The lift follows the first
    column nodes_j e0 as a vector: a principal-log step turns it by less
    than pi, so its wrapped angle increment is exact.  An elliptic step
    log (det L_j = theta^2 > 0) turns it monotonically, in the direction
    of sign(L_j[1, 0]) since v x L_j v is a definite form, by an angle in
    [k pi, (k + 1) pi] with k = floor(theta / pi); one round per step adds
    the full turns.  Starts at the lift of nodes[0] with anchor in
    [0, pi), the standard lift, and returns the endpoint's lift.
    """
    nodes = np.asarray(nodes, dtype=float)
    # the angles of the first columns, as vectors
    a = np.arctan2(nodes[:, 1, 0], nodes[:, 0, 0])
    d = (np.diff(a) + PI) % (2.0 * PI) - PI
    if logs is None:
        tr = step_traces(nodes)
        if not (tr > -2.0).all():
            j = int(np.argmax(~(tr > -2.0)))
            raise ValueError(f"path step {j} has trace {tr[j]} <= -2: no "
                             "principal log to follow")
    else:
        logs = np.asarray(logs, dtype=float)
        if logs.shape != (len(d), 2, 2):
            raise ValueError(f"need {len(d)} step logs, got {logs.shape}")
        det = -logs[:, 0, 0] ** 2 - logs[:, 0, 1] * logs[:, 1, 0]
        theta = np.sqrt(np.maximum(det, 0.0))
        turn = np.sign(logs[:, 1, 0]) * (np.floor(theta / PI) + 0.5) * PI
        d += np.where(det > 0.0, 2.0 * PI * np.round((turn - d) / (2.0 * PI)),
                      0.0)
    val = a[0] % PI + float(d.sum())
    g = GroupElement(nodes[-1])
    e = act_angle(g, 0.0) % PI  # anchor of the standard lift of the end
    n = _deck_index(val - e, "tracked endpoint offset")
    return LiftedElement(g, e + n * PI)


def lift_of_products(logs: np.ndarray) -> LiftedElement:
    """Lift of the ordered product exp(logs_{n-1}) ... exp(logs_0),
    tracked from the identity along s -> exp(s logs_j) P_j."""
    return track_lift_along(left_products(sl2_exp(logs)), logs)


def rot_along(nodes: np.ndarray) -> tuple[LiftedElement, float]:
    """Endpoint lift tracked from the standard start lift, and its rot gain.

    Returns (endpoint lift, rot(end) - rot(start)).
    """
    nodes = np.asarray(nodes, dtype=float)
    end = track_lift_along(nodes)
    # the one-node path gives the start lift exactly as the tracker took it
    return end, rot(end) - rot(track_lift_along(nodes[:1]))


def one_param_lift(gamma: np.ndarray, t: float = 1.0) -> LiftedElement:
    """Lift of exp(t gamma) reached continuously from the identity.

    The one-factor case of lift_of_products: tracks s -> exp(s gamma),
    s from 0 to t, which pins the anchor without any classification step.
    """
    return lift_of_products(t * np.asarray(gamma, dtype=float)[None])

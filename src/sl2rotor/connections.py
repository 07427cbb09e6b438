"""Discrete Lie-algebra-valued connections on the cylinder.

Storage is the canonical gauge A = A(s,t) dt on the grid s_i = i/(Ns-1)
and the circle t_j = j/Mt.  In this gauge the curvature
2-form reduces to -dA/ds, parallel transport in the t-direction is an
ordered exponential of the stored samples, and transport along s-lines is
trivial.  Connections that acquire a ds-component (gauge images, Dehn-twist
pullbacks) are re-trivialized on ingest; the trivializing frame is recorded
so that transports across the cylinder remain those of the original
geometric connection.

Orientation conventions, recorded in every report:
* transport solves dPi/dt Pi^-1 = A with increasing t;
* the s = 0 boundary circle is taken orientation-reversed, so
  rot_boundary = rot(lift at s=1) - rot(lift at s=0);
* crossing paths c run straight from (0, 0) to (1, tau), and the positive
  Dehn twist shifts t by -beta(s), which subtracts rot(boundary) from
  rot_c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cover as cover_mod
from .core import (
    EPS_EQ,
    GroupElement,
    HOLONOMY_SNAP,
    LieElement,
    MARGIN,
    PATH_CONE_SLACK,
    TAU_CLASS,
    classify,
    cone_margins,
    mat_inv,
    mul2,
    planes,
    psl_dist,
    rotation,
    sl2_exp,
    sub_identity,
)
from .paths import GroupPath, geodesic_refine

DEFAULT_RES = 256
# s-rows per step of the cylinder constructor's batched recursion
_ROW_BLOCK = 32


class NotNonpositive(ValueError):
    """Input path cocycles leave the nonpositive cone."""


class HolonomyMismatch(ValueError):
    """Boundary loop holonomy disagrees with the path start."""


class NonHyperbolicBoundary(RuntimeError):
    """Integer rot_c demanded but the transport is not hyperbolic/trivial."""


# ---------------------------------------------------------------------------
# the bump profile on the t-circle

_BUMP_LO, _BUMP_HI = 0.1, 0.9
# integral of ((t-lo)(hi-t))^3 over the support, in u = (t-1/2)/0.4 units
_BUMP_NORM = 0.4 * 0.16 ** 3 * (32.0 / 35.0)


def bump_weight(t) -> np.ndarray:
    """Nonnegative bump supported in (0.1, 0.9) with unit integral."""
    t = np.asarray(t, dtype=float)
    inside = (t > _BUMP_LO) & (t < _BUMP_HI)
    out = np.zeros_like(t)
    tt = t[inside]
    out[inside] = ((tt - _BUMP_LO) * (_BUMP_HI - tt)) ** 3 / _BUMP_NORM
    return out


def bump_cumulative(t) -> np.ndarray:
    """W(t) = integral of the bump from 0 to t; exactly 0/1 off support."""
    t = np.asarray(t, dtype=float)
    u = np.clip((t - 0.5) / 0.4, -1.0, 1.0)

    def prim(x):
        return x - x ** 3 + 0.6 * x ** 5 - x ** 7 / 7.0

    return (prim(u) - prim(-1.0)) / (prim(1.0) - prim(-1.0))


def smoothstep(s) -> np.ndarray:
    """0 -> 1 transition supported in (1/4, 3/4), C^2 at the ends."""
    s = np.asarray(s, dtype=float)
    u = np.clip((s - 0.25) * 2.0, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


# ---------------------------------------------------------------------------
# sampling and differentiating grids


def _interp_rows(rows: np.ndarray, t: np.ndarray,
                 group: bool = False) -> np.ndarray:
    """Sample row i of an (Ns, M, 2, 2) grid at the times t[i, k].

    Linear interpolation between the circle nodes j/M, wrapping around;
    returns (Ns, K, 2, 2), plane-major.  group marks rows of SL(2) matrices
    (frames, gauge maps): a neighbour pointing away from its partner is
    negated before the blend, since both signs are one element of PSL(2,R).
    """
    if not np.isfinite(t).all():
        raise ValueError("sample times must be finite")
    m = rows.shape[1]
    # connection rows divide by the node spacing, group rows multiply by
    # the node count; the two round apart when m is not a power of two,
    # and each keeps the rounding its samplers have always used
    x = t * m if group else t / (1.0 / m)
    j = np.floor(x)
    frac = x - j
    # gather both neighbours by flat (row, node) index from the entry planes,
    # views for a whole grid; j % m is wrapped while still float, so no index
    # overflows, as the cheaper fmod shifted up where negative
    base = np.arange(0.0, len(rows) * m, m)[:, None]
    ent = np.moveaxis(rows, (-2, -1), (0, 1)).reshape(2, 2, -1)
    a, b = (ent[:, :, (r + np.where(r < 0, base + m, base)).astype(np.intp)]
            for r in (np.fmod(j, m), np.fmod(j + 1, m)))
    if group:
        dot = a[0, 0] * b[0, 0] + a[0, 1] * b[0, 1] + a[1, 0] * b[1, 0] \
            + a[1, 1] * b[1, 1]
        np.negative(b, out=b, where=dot < 0)
    a *= 1.0 - frac
    b *= frac
    a += b
    return np.moveaxis(a, (0, 1), (-2, -1))


def _dt_of_grid(vals: np.ndarray, dt: float, periodic: bool) -> np.ndarray:
    # central derivative along axis 0 at node spacing dt, 2nd-order
    # one-sided at the ends of a non-periodic axis
    out = np.empty_like(vals)
    if periodic:  # the neighbours wrap around
        np.subtract(vals[2:], vals[:-2], out=out[1:-1])
        np.subtract(vals[1], vals[-1], out=out[0])
        np.subtract(vals[0], vals[-2], out=out[-1])
        out /= 2 * dt
        return out
    out[1:-1] = (vals[2:] - vals[:-2]) / (2 * dt)
    out[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * dt)
    out[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * dt)
    return out


def _step_logs(a: np.ndarray) -> np.ndarray:
    # the midpoint rule of every t-transport: step log (a_j + a_{j+1}) / 2M
    # per cell, the M cells wrapping around the circle
    mid = 0.5 * (a + np.roll(a, -1, axis=0))
    mid /= len(mid)
    return mid


def _traceless(a: np.ndarray, what: str) -> np.ndarray:
    # finite and traceless to 1e-9, returned projected and read-only
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    tr = a[..., 0, 0] + a[..., 1, 1]
    if np.abs(tr).max() > 1e-9:
        raise ValueError(f"{what} must be traceless")
    a = sub_identity(a, 0.5 * tr)
    a.setflags(write=False)
    return a


def _regauge(x: np.ndarray, xa: np.ndarray, dt: float) -> np.ndarray:
    # (x a + dx/dt) x^-1 projected to traceless, from xa = x a, which is
    # overwritten; t is the node axis of the frames x, the third from the end
    xa += np.moveaxis(_dt_of_grid(np.moveaxis(x, -3, 0), dt, True), 0, -3)
    out = mul2(xa, mat_inv(x))
    tr = out[..., 0, 0] + out[..., 1, 1]
    return sub_identity(out, 0.5 * tr, out=out)


# ---------------------------------------------------------------------------
# loops


@dataclass(frozen=True)
class LoopConnection:
    """1-form a = a(t) dt on the circle, sampled at t_j = j/M."""

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=float)
        if a.ndim != 3 or a.shape[1:] != (2, 2) or len(a) < 4:
            raise ValueError(f"need an (M, 2, 2) sample array, got {a.shape}")
        object.__setattr__(self, "samples", _traceless(a, "samples"))

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.m) / self.m

    @cached_property
    def _transports_and_lift(self):
        # one set of step exponentials serves the products and the lift
        return cover_mod.products_and_lift(_step_logs(self.samples))

    @property
    def transports(self) -> np.ndarray:
        """Partial transports Pi(t_j), j = 0..M, with Pi(0) = 1."""
        return self._transports_and_lift[0]

    def holonomy(self) -> GroupElement:
        return self.lifted_holonomy.g

    @property
    def lifted_holonomy(self) -> cover_mod.LiftedElement:
        return self._transports_and_lift[1]

    def rot(self) -> float:
        return cover_mod.rot(self.lifted_holonomy)


def loop_from_function(fn, m: int = DEFAULT_RES) -> LoopConnection:
    t = np.arange(m) / m
    return LoopConnection(np.stack([np.asarray(fn(tj), dtype=float) for tj in t]))


def constant_loop(xi: np.ndarray, m: int = DEFAULT_RES) -> LoopConnection:
    xi = np.asarray(xi, dtype=float)
    return LoopConnection(np.broadcast_to(xi, (m, 2, 2)).copy())


def winding_loop(r: int, gamma, m: int = DEFAULT_RES) -> LoopConnection:
    """Loop r pi J + Ad_{R(r pi t)} gamma: holonomy exp(gamma), rot = r.

    This is the derivative cocycle of the spiral path, so its transport
    winds r half-turns while drifting towards the (small, non-elliptic)
    exp(gamma).
    """
    gamma = gamma.x if isinstance(gamma, LieElement) else np.asarray(gamma, float)
    if np.linalg.norm(gamma) > 0.2:
        raise ValueError("|gamma| must stay below 0.2")
    t = np.arange(m) / m
    rots = rotation(r * np.pi * t)
    base = np.einsum("tab,bc,tdc->tad", rots, gamma, rots)  # R gamma R^T
    base[:, 0, 1] -= r * np.pi
    base[:, 1, 0] += r * np.pi
    return LoopConnection(base)


def cover(a: LoopConnection, mu: int) -> LoopConnection:
    """mu-fold cover: a^mu(t) = mu a(mu t); exact on the sample grid."""
    if mu == 0 or mu != int(mu):
        raise ValueError("cover degree must be a nonzero integer")
    mu = int(mu)
    idx = (mu * np.arange(a.m)) % a.m
    return LoopConnection(mu * a.samples[idx])


# ---------------------------------------------------------------------------
# cylinders


@dataclass(frozen=True)
class CylinderConnection:
    """Canonical-gauge connection grid A[i, j] = A(s_i, t_j), t_j = j/Mt.

    s_frame, when present, is the recorded grid of the trivialization that
    carried the original connection into this gauge; it re-enters only in
    transports across the cylinder (rot_c).
    """

    grid: np.ndarray
    s_frame: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 4 or g.shape[2:] != (2, 2) or g.shape[0] < 3 or g.shape[1] < 4:
            raise ValueError(f"need an (Ns, Mt, 2, 2) grid with Ns >= 3 and "
                             f"Mt >= 4, got {g.shape}")
        g = _traceless(g, "grid values")
        object.__setattr__(self, "grid", g)
        if self.s_frame is not None:
            f = np.asarray(self.s_frame, dtype=float)
            if f.shape != g.shape:
                raise ValueError("frame grid must match the connection grid")
            if not np.isfinite(f).all():
                raise ValueError("frame grid must be finite")
            f.setflags(write=False)
            object.__setattr__(self, "s_frame", f)

    @property
    def ns(self) -> int:
        return self.grid.shape[0]

    @property
    def mt(self) -> int:
        return self.grid.shape[1]

    @property
    def ds(self) -> float:
        return 1.0 / (self.ns - 1)

    @property
    def dt(self) -> float:
        return 1.0 / self.mt

    @property
    def t_nodes(self) -> np.ndarray:
        return np.arange(self.mt) * self.dt

    # -- curvature ----------------------------------------------------

    @cached_property
    def curvature_grid(self) -> np.ndarray:
        """-dA/ds: central differences inside, 2nd-order one-sided at ends."""
        return -_dt_of_grid(self.grid, self.ds, False)

    def curvature_margins(self) -> np.ndarray:
        return cone_margins(self.curvature_grid)

    def is_flat(self) -> bool:
        return bool(np.linalg.norm(self.curvature_grid, axis=(2, 3)).max()
                    <= MARGIN)

    # -- t-transport ---------------------------------------------------

    def holonomy_loop(self, i: int) -> GroupElement:
        return self.lifted_holonomy_loop(i).g

    def lifted_holonomy_loop(self, i: int) -> cover_mod.LiftedElement:
        return cover_mod.lift_of_products(_step_logs(self.grid[i]))

    def boundary_loop(self, end: int) -> LoopConnection:
        """The loop at s = 0 (end 0) or s = 1 (end 1)."""
        if end not in (0, 1):
            raise ValueError(f"boundary end must be 0 or 1, got {end!r}")
        return LoopConnection(self.grid[0 if end == 0 else -1])

    # -- boundary rotation ----------------------------------------------

    def rot_boundary(self) -> float:
        """rot(lift at s=1) - rot(lift at s=0); the s=0 circle is reversed."""
        l0 = self.lifted_holonomy_loop(0)
        l1 = self.lifted_holonomy_loop(self.ns - 1)
        return cover_mod.rot(l1) - cover_mod.rot(l0)


def cylinder_from_function(fn, ns: int = DEFAULT_RES,
                           mt: int = DEFAULT_RES) -> CylinderConnection:
    dt = 1.0 / mt
    grid = np.stack([
        np.stack([np.asarray(fn(i / (ns - 1), j * dt), dtype=float)
                  for j in range(mt)])
        for i in range(ns)])
    return CylinderConnection(grid)


def pullback_flat(a: LoopConnection, ns: int = DEFAULT_RES) -> CylinderConnection:
    """Radial-projection pullback: A(s, t) = a(t), flat by construction."""
    grid = planes((ns,) + a.samples.shape)
    grid[...] = a.samples
    return CylinderConnection(grid)


# ---------------------------------------------------------------------------
# the cylinder constructor from a nonpositive path


def from_nonpositive_path(path: GroupPath, a0: LoopConnection,
                          ns: int | None = None) -> CylinderConnection:
    """Nonnegatively curved connection whose s-loops have holonomy g(s).

    The input path must be nonpositive (left cocycles in the nonpositive
    cone); a0 fixes the boundary value at s = 0 and must have holonomy
    g(0).  The interior interpolates through Gamma(s,t) = w(t) gamma(s),
    w the unit bump: transports Pi(s,t) solve dPi/ds = Pi W(t) gamma(s)
    starting from the a0-transport, and the connection integrates
    dA/ds = Pi w gamma Pi^-1 from the a0 samples.  At t = 1 the transport
    recursion is the path recursion, so holonomies match exactly.
    """
    if not isinstance(a0, LoopConnection):
        raise TypeError(f"a0 must be a LoopConnection, not {type(a0).__name__}")
    if ns is not None and ns != path.n_steps + 1:
        if (ns - 1) % path.n_steps:
            raise ValueError("ns - 1 must be a multiple of the path step count")
        path = path.refine((ns - 1) // path.n_steps)
    gammas = path.left_cocycles()
    worst = cone_margins(-gammas).min()
    if worst < -PATH_CONE_SLACK:
        raise NotNonpositive(
            f"path cocycles leave the nonpositive cone by {-worst:.3g}")

    # the start transports at the m t nodes, and the a0 holonomy at t = 1
    trans = cover_mod.left_products(sl2_exp(_step_logs(a0.samples)))
    p_start, hol0 = trans[:-1], trans[-1]
    if psl_dist(hol0, path.nodes[0]) > HOLONOMY_SNAP:
        raise HolonomyMismatch(
            f"a0 holonomy is {psl_dist(hol0, path.nodes[0]):.3g} from g(0)")

    hw = path.h * bump_weight(a0.times)[:, None, None]
    big_w = bump_cumulative(a0.times)[:, None, None]
    n = path.n_steps
    # row i + 1 holds the increment h w Pi_i gamma_i Pi_i^-1 until the
    # final running sum: the midpoint transport Pi_i exp(h/2 W gamma_i)
    # conjugates gamma_i as Pi_i does, since exp(c gamma_i) commutes with
    # gamma_i.  The s-rows go through in blocks, so every block takes its
    # step exponentials in one call and the temporaries stay a block deep
    grid = planes((n + 1, a0.m, 2, 2))
    grid[0] = a0.samples
    pis = planes((_ROW_BLOCK + 1,) + grid.shape[1:])
    pis[0] = p_start
    for lo in range(0, n, _ROW_BLOCK):
        blk = gammas[lo:lo + _ROW_BLOCK, None]
        k = len(blk)
        steps = sl2_exp(path.h * (big_w * blk))
        for i in range(k):
            np.matmul(pis[i], steps[i], out=pis[i + 1])
        rows = grid[lo + 1:lo + 1 + k]
        mul2(mul2(pis[:k], blk), mat_inv(pis[:k]), out=rows)
        rows *= hw
        pis[0] = pis[k]
    np.add.accumulate(grid, axis=0, out=grid)
    return CylinderConnection(grid)


# ---------------------------------------------------------------------------
# gauge action


def gauge(conn: CylinderConnection, phi: np.ndarray) -> CylinderConnection:
    """Gauge transform by the grid Phi, re-trivialized into canonical form.

    A canonical connection stays canonical under a gauge map exactly when
    the map is s-independent, so the stored grid transforms by Phi(0, .)
    alone while the s-variation of Phi goes into the recorded frame:
    frame_new = Phi(0,t) frame_old Phi(s,t)^-1.  Holonomies conjugate by
    Phi at the s = 0 basepoint; curvature cone classes are unchanged.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != conn.grid.shape:
        raise ValueError("phi grid must match the connection grid")
    phi0 = phi[0]
    new_grid = _regauge(phi0, mul2(phi0, conn.grid), conn.dt)
    # without a recorded frame (the identity) this is phi0 phi^-1
    lead = phi0 if conn.s_frame is None else mul2(phi0, conn.s_frame)
    new_frame = mul2(lead, mat_inv(phi))
    return CylinderConnection(new_grid, s_frame=new_frame)


def gauge_crossing_class(phi: np.ndarray, tau: np.ndarray | None = None) -> int:
    """Winding class of u -> Phi(c(u)) along the crossing path.

    Requires Phi to agree at the two ends of c up to sign (the stabilizing
    case); the class is the rot of the tracked lift of the Phi-path, an
    exact integer.
    """
    phi = np.asarray(phi, dtype=float)
    if tau is None:
        nodes = phi[:, 0]
    else:
        nodes = _interp_rows(phi, np.asarray(tau, dtype=float)[:, None],
                             group=True)[:, 0]
    lift = _lift_of_frames(nodes)
    if psl_dist(lift.g.m, np.eye(2)) > HOLONOMY_SNAP:
        raise ValueError("gauge map does not stabilize the crossing endpoints")
    return int(round(cover_mod.rot(lift)))


def _lift_of_frames(nodes: np.ndarray) -> cover_mod.LiftedElement:
    # tracked lift of u -> F(u) F(0)^-1 for group samples F (frames or
    # gauge maps) along a crossing; blended samples lose unit determinant,
    # so it is divided out, and each step is refined geodesically into 4
    det = nodes[:, 0, 0] * nodes[:, 1, 1] - nodes[:, 0, 1] * nodes[:, 1, 0]
    nodes = nodes / np.sqrt(det)[:, None, None]
    return cover_mod.track_lift_along(
        geodesic_refine(nodes @ mat_inv(nodes[0])[None], 4))


# ---------------------------------------------------------------------------
# transports across the cylinder


def rot_c(conn: CylinderConnection, tau: float,
          tol: float = TAU_CLASS) -> float:
    """Integer rotation number of the transport along the crossing path c.

    c is the straight ramp u -> (u, u tau) from (0, 0) to (1, tau), taken
    at the s-nodes.  Transport picks up A dt along c; the recorded frame,
    if any, corrects the nodes back to the underlying geometric
    connection.  The transported element must be hyperbolic or the
    identity, classified with the band half-width tol.
    """
    tau = np.linspace(0.0, float(tau), conn.ns)
    t = (tau % 1.0)[:, None]
    samples = _interp_rows(conn.grid, t)[:, 0]
    # the midpoint rule along c, whose t-steps are diff(tau)
    lift = cover_mod.lift_of_products(
        0.5 * (samples[:-1] + samples[1:]) * np.diff(tau)[:, None, None])
    if conn.s_frame is not None:
        # the geometric transport is G(u)^-1 P(u) with G = F F(0)^-1 up to
        # conjugation by the constant F(0), and the lift of a pointwise
        # product of paths is the product of their lifts
        frames = _interp_rows(conn.s_frame, t, group=True)[:, 0]
        lift = cover_mod.compose(cover_mod.inverse(_lift_of_frames(frames)),
                                 lift)

    value = cover_mod.rot(lift)
    end_class = classify(lift.g, tol)
    if end_class.kind not in ("hyperbolic", "identity"):
        raise NonHyperbolicBoundary(
            f"crossing transport classifies as {end_class}")
    n = round(value)
    if abs(value - n) > 1e-9:
        raise NonHyperbolicBoundary(f"rot_c = {value} is not an integer")
    return float(n)


def dehn_twist(conn: CylinderConnection) -> CylinderConnection:
    """Pullback under the positive twist (s, t) -> (s, t - beta(s)).

    beta is the 0 -> 1 smoothstep supported in (1/4, 3/4).  The pullback
    acquires a ds-component -beta' A(s, t - beta); re-trivializing it and
    composing the recorded frames keeps rot_c honest, which then drops by
    the boundary rot.
    """
    ns = conn.ns
    svals = np.linspace(0.0, 1.0, ns)
    beta = smoothstep(svals)
    u = np.clip((svals - 0.25) * 2.0, 0.0, 1.0)
    dbeta = 60.0 * u ** 2 * (1.0 - u) ** 2  # exact beta'
    t_tw = conn.t_nodes[None, :] - beta[:, None]
    t_tw -= np.floor(t_tw)  # % 1.0 to the bit, without the float remainder
    a_tw = _interp_rows(conn.grid, t_tw)

    # re-trivialize: dPsi/ds = -Psi A_s with A_s = -beta' A(s, t - beta),
    # Psi(0, .) = 1, midpoint rule, every step exponential in one call
    steps = a_tw[:-1] * -dbeta[:-1, None, None, None]
    steps += a_tw[1:] * -dbeta[1:, None, None, None]
    steps *= -0.5 * conn.ds
    steps = sl2_exp(steps)
    psi = planes(conn.grid.shape)
    psi[0] = np.eye(2)
    for i in range(ns - 1):
        np.matmul(psi[i], steps[i], out=psi[i + 1])
    del steps

    # the twisted grid is freed before the re-gauge allocates
    new_grid = mul2(psi, a_tw)
    del a_tw
    new_grid = _regauge(psi, new_grid, conn.dt)

    # the old frame at the twisted times, composed after psi; without a
    # recorded frame (the identity) the new frame is psi itself
    if conn.s_frame is None:
        new_frame = psi
    else:
        new_frame = mul2(psi, _interp_rows(conn.s_frame, t_tw, group=True))
    return CylinderConnection(new_grid, s_frame=new_frame)


# ---------------------------------------------------------------------------
# Milnor-Wood / Bochner bookkeeping


@dataclass(frozen=True)
class PantsHolonomyData:
    """Boundary lifts for the pair of pants, with dO = the product circle.

    l0 is the lift of the product boundary g1 g2; if not supplied it is the
    cover product of l1 and l2.  The deck offset between the supplied l0
    and the cover product is recorded as correction.
    """

    l1: cover_mod.LiftedElement
    l2: cover_mod.LiftedElement
    l0: cover_mod.LiftedElement = None

    def __post_init__(self):
        prod = cover_mod.compose(self.l1, self.l2)
        if self.l0 is None:
            object.__setattr__(self, "l0", prod)
        else:
            if psl_dist(self.l0.g.m, prod.g.m) > EPS_EQ:
                raise ValueError("l0 does not project to the product g1 g2")

    @property
    def correction(self) -> int:
        prod = cover_mod.compose(self.l1, self.l2)
        return int(round((self.l0.anchor - prod.anchor) / np.pi))

    def rot_sum(self) -> float:
        """-rot(l0) + rot(l1) + rot(l2): dO S with the 0th circle reversed."""
        return (-cover_mod.rot(self.l0) + cover_mod.rot(self.l1)
                + cover_mod.rot(self.l2))


def milnor_wood_check(obj, flat: bool | None = None,
                      margin_tol: float = MARGIN, seed=None) -> dict:
    """Boundary-rotation bound report for a cylinder or pants datum.

    Nonnegatively curved surfaces obey rot_dS <= -chi; flat ones also obey
    the absolute-value version, checked when flat is set (default: False
    for a cylinder, True for pants data).  A failed curvature hypothesis
    is reported (hypothesis_ok = False), never raised.
    """
    if isinstance(obj, CylinderConnection):
        chi = 0
        value = obj.rot_boundary()
        hypothesis_ok = bool(obj.curvature_margins().min() >= -margin_tol)
        flat = bool(flat)
        convention = ("cylinder; rot_dS = rot(l1) - rot(l0), s=0 "
                      "orientation-reversed; transport dPi/dt Pi^-1 = A")
    elif isinstance(obj, PantsHolonomyData):
        chi = -1
        value = obj.rot_sum()
        hypothesis_ok = obj.correction == 0
        flat = True if flat is None else flat
        convention = ("pants; rot_dS = -rot(l0) + rot(l1) + rot(l2), "
                      "l0 lifts the product boundary, orientation-reversed")
    else:
        raise TypeError(f"cannot check {type(obj).__name__}")
    bound = float(-chi)
    satisfied = (abs(value) <= bound + 1e-9) if flat else (value <= bound + 1e-9)
    return {
        "quantity": "rot_boundary",
        "value": float(value),
        "bound": bound,
        "margin": float(bound - (abs(value) if flat else value)),
        "convention": convention,
        "seed": seed,
        "flat": bool(flat),
        "hypothesis_ok": bool(hypothesis_ok),
        "satisfied": bool(satisfied),
    }

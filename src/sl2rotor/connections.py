"""Discrete Lie-algebra-valued connections on the cylinder and square.

Storage is the canonical gauge A = A(s,t) dt on the grid s_i = i/(Ns-1),
t_j = j/Mt (periodic) or j/(Mt-1) (square).  In this gauge the curvature
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
* crossing paths c run from (0, tau(0)) to (1, tau(1)), and the positive
  Dehn twist shifts t by -beta(s), which subtracts rot(boundary) from
  rot_c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cover as cover_mod
from .core import (
    GroupElement,
    LieElement,
    TAU_CLASS,
    classify,
    cone_margins,
    mat_inv,
    psl_dist,
    sl2_exp,
    sl2_log,
)
from .paths import GroupPath

DEFAULT_RES = 256


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
# lift tracking along ordered-exponential products


def _left_products(logs: np.ndarray) -> np.ndarray:
    # partial products P_{j+1} = exp(logs_j) P_j, P_0 = 1
    n = len(logs)
    out = np.empty((n + 1, 2, 2))
    out[0] = np.eye(2)
    factors = sl2_exp(logs)
    for j in range(n):
        out[j + 1] = factors[j] @ out[j]
    return out


def _lift_of_products(logs: np.ndarray) -> cover_mod.LiftedElement:
    # lift of the full ordered product, tracked continuously from identity;
    # each factor is subdivided so direction angles never jump by pi/2
    prods = _left_products(logs)
    norms = np.linalg.norm(logs, axis=(1, 2))
    sub = max(1, int(np.ceil(norms.max() / 0.1))) if len(norms) else 1
    if sub == 1:
        return cover_mod.track_lift_along(prods)
    taus = np.arange(sub) / sub
    fine = np.einsum("ntab,nbc->ntac",
                     sl2_exp(taus[None, :, None, None] * logs[:, None]),
                     prods[:-1])
    fine = np.concatenate([fine.reshape(-1, 2, 2), prods[-1:]])
    return cover_mod.track_lift_along(fine)


def _geodesic_refine(nodes: np.ndarray, k: int) -> np.ndarray:
    if k <= 1:
        return nodes
    steps = mat_inv(nodes[:-1]) @ nodes[1:]
    logs = sl2_log(steps)
    taus = np.arange(k) / k
    fill = np.einsum("nab,ntbc->ntac", nodes[:-1],
                     sl2_exp(taus[None, :, None, None] * logs[:, None]))
    return np.concatenate([fill.reshape(-1, 2, 2), nodes[-1:]])


def _interp_rows(rows: np.ndarray, t: np.ndarray, periodic: bool,
                 group: bool = False) -> np.ndarray:
    """Sample row i of an (Ns, M, 2, 2) grid at the times t[i, k].

    Linear interpolation between the nodes j/M with wrap-around (periodic)
    or j/(M-1) with the index clamped to the row (square); returns
    (Ns, K, 2, 2).  group marks rows of SL(2) matrices (frames, gauge
    maps): a neighbour pointing away from its partner is negated before
    the blend, since both signs are one element of PSL(2,R).
    """
    if not np.isfinite(t).all():
        raise ValueError("sample times must be finite")
    m = rows.shape[1]
    n = m if periodic else m - 1
    # connection rows divide by the node spacing, group rows multiply by
    # the node count; the two round apart when n is not a power of two,
    # and each keeps the rounding its samplers have always used
    x = t * n if group else t / (1.0 / n)
    j = np.floor(x)
    frac = x - j
    if periodic:  # wrapped while still float, so no index overflows
        j0, j1 = j % m, (j + 1) % m
    else:
        j0 = np.clip(j, 0, m - 1)
        j1 = np.minimum(j0 + 1, m - 1)
    i = np.arange(len(rows))[:, None]
    a, b = rows[i, j0.astype(np.intp)], rows[i, j1.astype(np.intp)]
    if group:
        dot = (a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 0, 1]
               + a[..., 1, 0] * b[..., 1, 0] + a[..., 1, 1] * b[..., 1, 1])
        b[dot < 0] *= -1.0
    a *= (1.0 - frac)[..., None, None]
    b *= frac[..., None, None]
    a += b
    return a


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
        tr = a[:, 0, 0] + a[:, 1, 1]
        if np.abs(tr).max() > 1e-9:
            raise ValueError("samples must be traceless")
        a = a - 0.5 * tr[:, None, None] * np.eye(2)
        a.setflags(write=False)
        object.__setattr__(self, "samples", a)

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.m) / self.m

    def _step_logs(self) -> np.ndarray:
        # midpoint rule: exp(dt (a_j + a_{j+1})/2) per cell, wrapping
        mid = 0.5 * (self.samples + np.roll(self.samples, -1, axis=0))
        return mid / self.m

    @cached_property
    def transports(self) -> np.ndarray:
        """Partial transports Pi(t_j), j = 0..M, with Pi(0) = 1."""
        return _left_products(self._step_logs())

    def holonomy(self) -> GroupElement:
        return GroupElement(self.transports[-1])

    @cached_property
    def lifted_holonomy(self) -> cover_mod.LiftedElement:
        return _lift_of_products(self._step_logs())

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
    ang = r * np.pi * t
    c, s = np.cos(ang), np.sin(ang)
    rots = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
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
# cylinders and squares


@dataclass(frozen=True)
class CylinderConnection:
    """Canonical-gauge connection grid A[i, j] = A(s_i, t_j).

    periodic selects the cylinder (t_j = j/Mt) versus the square
    (t_j = j/(Mt-1)).  s_frame, when present, is the recorded grid of the
    trivialization that carried the original connection into this gauge;
    it re-enters only in transports across the cylinder (rot_c).
    """

    grid: np.ndarray
    periodic: bool = True
    s_frame: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 4 or g.shape[2:] != (2, 2) or g.shape[0] < 2 or g.shape[1] < 4:
            raise ValueError(f"need an (Ns, Mt, 2, 2) grid, got {g.shape}")
        tr = g[..., 0, 0] + g[..., 1, 1]
        if np.abs(tr).max() > 1e-9:
            raise ValueError("grid values must be traceless")
        g = g - 0.5 * tr[..., None, None] * np.eye(2)
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)
        if self.s_frame is not None:
            f = np.asarray(self.s_frame, dtype=float)
            if f.shape != g.shape:
                raise ValueError("frame grid must match the connection grid")
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
        return 1.0 / (self.mt if self.periodic else self.mt - 1)

    @property
    def t_nodes(self) -> np.ndarray:
        return np.arange(self.mt) * self.dt

    # -- curvature ----------------------------------------------------

    @cached_property
    def curvature_grid(self) -> np.ndarray:
        """-dA/ds: central differences inside, 2nd-order one-sided at ends."""
        a = self.grid
        ds = self.ds
        out = np.empty_like(a)
        out[1:-1] = -(a[2:] - a[:-2]) / (2.0 * ds)
        out[0] = -(-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * ds)
        out[-1] = -(3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * ds)
        return out

    def curvature(self, i: int, j: int) -> LieElement:
        return LieElement(self.curvature_grid[i, j])

    def curvature_margins(self) -> np.ndarray:
        return cone_margins(self.curvature_grid)

    def is_nonneg_curved(self, margin: float = 1e-8) -> bool:
        return bool(self.curvature_margins().min() >= -margin)

    def is_flat(self, tol: float = 1e-8) -> bool:
        return bool(np.linalg.norm(self.curvature_grid, axis=(2, 3)).max() <= tol)

    # -- t-transport ---------------------------------------------------

    def _row_step_logs(self, i: int) -> np.ndarray:
        a = self.grid[i]
        if self.periodic:
            mid = 0.5 * (a + np.roll(a, -1, axis=0))
        else:
            mid = 0.5 * (a[:-1] + a[1:])
        return mid * self.dt

    def transport_t(self, i: int, t: float) -> GroupElement:
        """Ordered exponential of row i from 0 to t, midpoint rule."""
        if not 0.0 <= t <= 1.0 + 1e-12:
            raise ValueError("t must lie in [0, 1]")
        x = t / self.dt
        full = int(np.floor(x + 1e-12))
        logs = self._row_step_logs(i)[:full]
        pi = _left_products(logs)[-1] if full else np.eye(2)
        rem = t - full * self.dt
        if rem > 1e-15:
            ends = _interp_rows(self.grid[i][None],
                                np.array([[full * self.dt, t]]),
                                self.periodic)[0]
            pi = sl2_exp(rem * (0.5 * (ends[0] + ends[1]))) @ pi
        return GroupElement(pi)

    def holonomy_loop(self, i: int) -> GroupElement:
        return GroupElement(_left_products(self._row_step_logs(i))[-1])

    def lifted_holonomy_loop(self, i: int) -> cover_mod.LiftedElement:
        return _lift_of_products(self._row_step_logs(i))

    def boundary_loop(self, end: int) -> LoopConnection:
        if not self.periodic:
            raise ValueError("square connections have no boundary loops")
        return LoopConnection(self.grid[0 if end == 0 else -1])

    # -- boundary rotation ----------------------------------------------

    def rot_boundary(self) -> float:
        """rot(lift at s=1) - rot(lift at s=0); the s=0 circle is reversed."""
        l0 = self.lifted_holonomy_loop(0)
        l1 = self.lifted_holonomy_loop(self.ns - 1)
        return cover_mod.rot(l1) - cover_mod.rot(l0)


def cylinder_from_function(fn, ns: int = DEFAULT_RES, mt: int = DEFAULT_RES,
                           periodic: bool = True) -> CylinderConnection:
    dt = 1.0 / (mt if periodic else mt - 1)
    grid = np.stack([
        np.stack([np.asarray(fn(i / (ns - 1), j * dt), dtype=float)
                  for j in range(mt)])
        for i in range(ns)])
    return CylinderConnection(grid, periodic=periodic)


def pullback_flat(a: LoopConnection, ns: int = DEFAULT_RES) -> CylinderConnection:
    """Radial-projection pullback: A(s, t) = a(t), flat by construction."""
    return CylinderConnection(np.broadcast_to(
        a.samples, (ns,) + a.samples.shape).copy())


# ---------------------------------------------------------------------------
# the cylinder constructor from a nonpositive path


def from_nonpositive_path(path: GroupPath, a0, ns: int | None = None,
                          mt: int | None = None, periodic: bool = True,
                          tol: float = 1e-9) -> CylinderConnection:
    """Nonnegatively curved connection whose s-loops have holonomy g(s).

    The input path must be nonpositive (left cocycles in the nonpositive
    cone); a0 fixes the boundary value at s = 0 and must have holonomy
    g(0).  The interior interpolates through Gamma(s,t) = w(t) gamma(s),
    w the unit bump: transports Pi(s,t) solve dPi/ds = Pi W(t) gamma(s)
    starting from the a0-transport, and the connection integrates
    dA/ds = Pi w gamma Pi^-1 from the a0 samples.  At t = 1 the transport
    recursion is the path recursion, so holonomies match exactly.
    """
    if ns is not None and ns != path.n_steps + 1:
        if (ns - 1) % path.n_steps:
            raise ValueError("ns - 1 must be a multiple of the path step count")
        path = path.refine((ns - 1) // path.n_steps)
    gammas = path.left_cocycles()
    worst = cone_margins(-gammas).min()
    if worst < -tol:
        raise NotNonpositive(
            f"path cocycles leave the nonpositive cone by {-worst:.3g}")

    if periodic:
        if not isinstance(a0, LoopConnection):
            a0 = LoopConnection(np.asarray(a0, dtype=float))
        if mt is not None and mt != a0.m:
            raise ValueError(f"mt = {mt} but a0 has {a0.m} samples")
        a_start = a0.samples
        p_start = a0.transports[:-1]
        hol0 = a0.holonomy().m
        t_nodes = a0.times
    else:
        a_start = np.asarray(a0, dtype=float)
        if mt is not None and mt != len(a_start):
            raise ValueError(f"mt = {mt} but a0 has {len(a_start)} samples")
        mid = 0.5 * (a_start[:-1] + a_start[1:]) / (len(a_start) - 1)
        trans = _left_products(mid)  # one entry per t node, last is t = 1
        p_start, hol0 = trans, trans[-1]
        t_nodes = np.arange(len(a_start)) / (len(a_start) - 1)
    if psl_dist(hol0, path.nodes[0]) > 1e-6:
        raise HolonomyMismatch(
            f"a0 holonomy is {psl_dist(hol0, path.nodes[0]):.3g} from g(0)")

    w = bump_weight(t_nodes)
    big_w = bump_cumulative(t_nodes)
    n = path.n_steps
    h = path.h
    grid = np.empty((n + 1, len(t_nodes), 2, 2))
    grid[0] = a_start
    pi = np.array(p_start, dtype=float)
    for i in range(n):
        xi = big_w[:, None, None] * gammas[i]
        half = pi @ sl2_exp(0.5 * h * xi)
        grid[i + 1] = grid[i] + h * (
            half @ (w[:, None, None] * gammas[i]) @ mat_inv(half))
        pi = pi @ sl2_exp(h * xi)
    return CylinderConnection(grid, periodic=periodic)


# ---------------------------------------------------------------------------
# gauge action


def _dt_of_grid(vals: np.ndarray, dt: float, periodic: bool) -> np.ndarray:
    # central t-derivative along axis 0
    if periodic:
        out = np.roll(vals, -1, axis=0)
        out -= np.roll(vals, 1, axis=0)
        out /= 2 * dt
        return out
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2 * dt)
    out[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * dt)
    out[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * dt)
    return out


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
    dphi0 = _dt_of_grid(phi0, conn.dt, conn.periodic)
    inv0 = mat_inv(phi0)
    new_grid = phi0 @ conn.grid @ inv0 + (dphi0 @ inv0)[None]
    tr = new_grid[..., 0, 0] + new_grid[..., 1, 1]
    new_grid = new_grid - 0.5 * tr[..., None, None] * np.eye(2)
    old_frame = conn.s_frame if conn.s_frame is not None else np.broadcast_to(
        np.eye(2), conn.grid.shape)
    new_frame = phi0[None] @ old_frame @ mat_inv(phi)
    return CylinderConnection(new_grid, periodic=conn.periodic,
                              s_frame=new_frame)


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
                             True, group=True)[:, 0]
        det = nodes[:, 0, 0] * nodes[:, 1, 1] - nodes[:, 0, 1] * nodes[:, 1, 0]
        nodes = nodes / np.sqrt(det)[:, None, None]
    loop = nodes @ mat_inv(nodes[0])[None]
    if psl_dist(loop[-1], np.eye(2)) > 1e-6:
        raise ValueError("gauge map does not stabilize the crossing endpoints")
    return int(round(cover_mod.rot_along(_geodesic_refine(loop, 4))))


# ---------------------------------------------------------------------------
# transports across the cylinder


def rot_c(conn: CylinderConnection, tau: np.ndarray | float | None = None,
          integer: bool = True, tol: float = TAU_CLASS) -> float:
    """Rotation number of the transport along the crossing path c.

    c(u) = (u, tau(u)) with tau given at the s-nodes (scalar input means
    the straight ramp 0 -> tau, None the straight line t = 0).  Transport
    picks up A dt along c; the recorded frame, if any, corrects the nodes
    back to the underlying geometric connection.  In integer mode the
    transported element must be hyperbolic or the identity, classified
    with the band half-width tol.
    """
    ns = conn.ns
    if tau is None:
        tau = np.zeros(ns)
    elif np.isscalar(tau):
        tau = np.linspace(0.0, float(tau), ns)
    else:
        tau = np.asarray(tau, dtype=float)
        if tau.shape != (ns,):
            raise ValueError(f"tau must have one value per s node ({ns})")

    t = (tau % 1.0 if conn.periodic else tau)[:, None]
    samples = _interp_rows(conn.grid, t, conn.periodic)[:, 0]
    dtau = np.diff(tau)
    logs = 0.5 * (samples[:-1] + samples[1:]) * dtau[:, None, None]
    prods = _left_products(logs)

    if conn.s_frame is not None:
        frames = _interp_rows(conn.s_frame, t, conn.periodic, group=True)[:, 0]
        det = (frames[:, 0, 0] * frames[:, 1, 1]
               - frames[:, 0, 1] * frames[:, 1, 0])
        frames = frames / np.sqrt(det)[:, None, None]
        prods = mat_inv(frames) @ prods @ frames[0][None]

    value = cover_mod.rot_along(_geodesic_refine(prods, 4))
    if not integer:
        return value
    end_class = classify(GroupElement(prods[-1]), tol)
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
    if not conn.periodic:
        raise ValueError("the twist lives on the cylinder")
    ns = conn.ns
    svals = np.linspace(0.0, 1.0, ns)
    beta = smoothstep(svals)
    u = np.clip((svals - 0.25) * 2.0, 0.0, 1.0)
    dbeta = 60.0 * u ** 2 * (1.0 - u) ** 2  # exact beta'
    t_tw = (conn.t_nodes[None, :] - beta[:, None]) % 1.0
    a_tw = _interp_rows(conn.grid, t_tw, True)

    # re-trivialize: dPsi/ds = -Psi A_s with A_s = -beta' A(s, t - beta),
    # Psi(0, .) = 1, midpoint rule, every step exponential in one call
    steps = a_tw[:-1] * -dbeta[:-1, None, None, None]
    steps += a_tw[1:] * -dbeta[1:, None, None, None]
    steps *= -0.5 * conn.ds
    steps = sl2_exp(steps)
    psi = np.empty_like(conn.grid)
    psi[0] = np.eye(2)
    for i in range(ns - 1):
        np.matmul(psi[i], steps[i], out=psi[i + 1])
    del steps

    # psi A psi^-1 + (dpsi/dt) psi^-1, each full-grid temporary freed early
    inv_psi = mat_inv(psi)
    new_grid = psi @ a_tw
    del a_tw
    new_grid = new_grid @ inv_psi
    dpsi = _dt_of_grid(psi.swapaxes(0, 1), conn.dt, True).swapaxes(0, 1)
    new_grid += dpsi @ inv_psi
    del dpsi, inv_psi
    tr = new_grid[..., 0, 0] + new_grid[..., 1, 1]
    new_grid -= 0.5 * tr[..., None, None] * np.eye(2)

    # the old frame at the twisted times, composed after psi; without a
    # recorded frame (the identity) the new frame is psi itself
    if conn.s_frame is None:
        new_frame = psi
    else:
        new_frame = psi @ _interp_rows(conn.s_frame, t_tw, True, group=True)
    return CylinderConnection(new_grid, periodic=True, s_frame=new_frame)


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
            if not self.l0.g.close_to(prod.g, 1e-9):
                raise ValueError("l0 does not project to the product g1 g2")

    @property
    def correction(self) -> int:
        prod = cover_mod.compose(self.l1, self.l2)
        return int(round((self.l0.anchor - prod.anchor) / np.pi))

    def rot_sum(self) -> float:
        """-rot(l0) + rot(l1) + rot(l2): dO S with the 0th circle reversed."""
        return (-cover_mod.rot(self.l0) + cover_mod.rot(self.l1)
                + cover_mod.rot(self.l2))


def milnor_wood_check(obj, flat: bool | None = None, margin_tol: float = 1e-8,
                      seed=None) -> dict:
    """Boundary-rotation bound report for a cylinder or pants datum.

    Nonnegatively curved surfaces obey rot_dS <= -chi; flat ones also obey
    the absolute-value version.  A failed curvature hypothesis is reported
    (hypothesis_ok = False), never raised.
    """
    if isinstance(obj, CylinderConnection):
        chi = 0
        value = obj.rot_boundary()
        hypothesis_ok = obj.is_nonneg_curved(margin_tol)
        if flat is None:
            flat = obj.is_flat(1e-6)
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

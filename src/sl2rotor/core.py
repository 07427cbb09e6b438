"""Scalar linear algebra over SL(2,R) and PSL(2,R).

Conventions used throughout the package:

* matrices are indexed row major, m = [[a, b], [c, d]];
* group elements carry a unit-determinant representative, equality and
  distance are always modulo an overall sign;
* a traceless matrix gamma is described by the coordinates

      alpha = (c - b) / 2,  delta = (c + b) / 2,  eps = a,

  i.e. gamma = [[eps, delta - alpha], [delta + alpha, -eps]].  On unit
  vectors v = (cos phi, sin phi) the quadratic form

      q(v) = det(v, gamma v) = alpha + delta sin(2 phi) ... (see cone_margin)

  has minimum alpha - sqrt(delta^2 + eps^2) and maximum
  alpha + sqrt(delta^2 + eps^2), so the nonnegative cone {q >= 0
  everywhere} is exactly {alpha >= sqrt(delta^2 + eps^2)};
* T(g) = c - b, so rotation by theta has T = 2 sin(theta), and
  T(g^2) = T(g) tr(g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances used in more than one place; README's "Tolerances" names the
# decisions that read each.
TAU_CLASS = 1e-9    # half width of the |trace| = 2 band
EPS_EQ = 1e-9       # matrix equality threshold, Frobenius, modulo sign
MARGIN = 1e-8       # curvature and flatness slack, artifact cone bounds
PATH_CONE_SLACK = 1e-9  # slack of a path's cocycles on the cone boundary
HOLONOMY_SNAP = 1e-6    # holonomies that must agree, Frobenius mod sign
CLAIM_MATCH = 1e-9      # a recomputed artifact claim against its stored value

IDENTITY = np.eye(2)
J = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation generator, cone interior

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
PARABOLIC_NONNEG = "parabolic_nonneg"
PARABOLIC_NONPOS = "parabolic_nonpos"
IDENTITY_CLASS = "identity"

POSITIVE = "positive"
NONNEG_BOUNDARY = "nonneg_boundary"
NEGATIVE = "negative"
NONPOS_BOUNDARY = "nonpos_boundary"
ZERO = "zero"
INDEFINITE = "indefinite"


class NonUnimodular(ValueError):
    """Input matrix has nonpositive or non-finite determinant."""


class DegenerateClassification(ArithmeticError):
    """Conjugacy-type test was numerically inconclusive."""


def from_entries(a, b, c, d) -> np.ndarray:
    """The matrices [[a, b], [c, d]], broadcast to a (..., 2, 2) array."""
    m = np.empty(np.broadcast(a, b, c, d).shape + (2, 2))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def rotation(theta) -> np.ndarray:
    """Counterclockwise rotations by the angles theta, shape (..., 2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return from_entries(c, -s, s, c)


def _check_unimodular(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or not np.isfinite(m).all():
        raise NonUnimodular(f"not a finite 2x2 matrix: {m!r}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if not math.isfinite(det) or det <= 0.0:
        raise NonUnimodular(f"determinant {det} is not positive")
    return m / np.sqrt(det)


class GroupElement:
    """An element of PSL(2,R): a det-1 representative, sign not trusted."""

    __slots__ = ("m",)

    def __init__(self, m) -> None:
        object.__setattr__(self, "m", _check_unimodular(m))
        self.m.setflags(write=False)

    def __setattr__(self, *a):  # immutable value type
        raise AttributeError("GroupElement is immutable")

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(IDENTITY)

    @classmethod
    def rotation(cls, theta: float) -> "GroupElement":
        return cls(rotation(theta))

    @classmethod
    def diagonal(cls, lam: float) -> "GroupElement":
        return cls(np.array([[lam, 0.0], [0.0, 1.0 / lam]]))

    @property
    def trace(self) -> float:
        return float(self.m[0, 0] + self.m[1, 1])

    def inv(self) -> "GroupElement":
        a, b, c, d = self.m.ravel()
        return GroupElement(np.array([[d, -b], [-c, a]]))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.m @ other.m)

    def __repr__(self) -> str:
        return f"GroupElement({self.m.tolist()!r})"


def psl_dist(m1: np.ndarray, m2: np.ndarray) -> float:
    """Frobenius distance modulo overall sign."""
    return float(min(np.linalg.norm(m1 - m2), np.linalg.norm(m1 + m2)))


@dataclass(frozen=True)
class LieElement:
    """Traceless 2x2 matrix with the (alpha, delta, eps) cone coordinates."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (2, 2) or not np.all(np.isfinite(x)):
            raise ValueError(f"not a finite 2x2 matrix: {x!r}")
        if abs(x[0, 0] + x[1, 1]) > 1e-12 * max(1.0, float(np.abs(x).max())):
            raise ValueError(f"matrix is not traceless: trace={x[0,0]+x[1,1]}")
        # store an exactly traceless copy
        x = x - 0.5 * (x[0, 0] + x[1, 1]) * IDENTITY
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @classmethod
    def from_cone_coords(cls, alpha: float, delta: float, eps: float) -> "LieElement":
        return cls(np.array([[eps, delta - alpha], [delta + alpha, -eps]]))

    @property
    def alpha(self) -> float:
        return 0.5 * float(self.x[1, 0] - self.x[0, 1])

    @property
    def delta(self) -> float:
        return 0.5 * float(self.x[1, 0] + self.x[0, 1])

    @property
    def eps(self) -> float:
        return float(self.x[0, 0])

    def cone_margin(self) -> float:
        return self.alpha - float(np.hypot(self.delta, self.eps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.x))


@dataclass(frozen=True)
class ConjClassSpec:
    """Conjugacy class of PSL(2,R): kind tag plus the invariant scalar."""

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind == ELLIPTIC:
            if not (self.value is not None and 0.0 < self.value < np.pi):
                raise ValueError(f"elliptic angle must lie in (0, pi): {self.value}")
        elif self.kind == HYPERBOLIC:
            if not (self.value is not None and self.value > 1.0):
                raise ValueError(f"hyperbolic multiplier must exceed 1: {self.value}")
        elif self.kind in (PARABOLIC_NONNEG, PARABOLIC_NONPOS, IDENTITY_CLASS):
            if self.value is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        else:
            raise ValueError(f"unknown class kind {self.kind!r}")

    @classmethod
    def elliptic(cls, theta: float) -> "ConjClassSpec":
        return cls(ELLIPTIC, float(theta))

    @classmethod
    def hyperbolic(cls, lam: float) -> "ConjClassSpec":
        return cls(HYPERBOLIC, float(lam))

    @classmethod
    def parabolic(cls, nonneg: bool = True) -> "ConjClassSpec":
        return cls(PARABOLIC_NONNEG if nonneg else PARABOLIC_NONPOS)

    @classmethod
    def identity(cls) -> "ConjClassSpec":
        return cls(IDENTITY_CLASS)

    def __str__(self) -> str:
        if self.kind == ELLIPTIC:
            return f"Elliptic(theta={self.value:.12g})"
        if self.kind == HYPERBOLIC:
            return f"Hyperbolic(lambda={self.value:.12g})"
        return {PARABOLIC_NONNEG: "ParabolicNonneg",
                PARABOLIC_NONPOS: "ParabolicNonpos",
                IDENTITY_CLASS: "Identity"}[self.kind]


def classify(g: GroupElement, tol: float = TAU_CLASS) -> ConjClassSpec:
    """Conjugacy class from |trace|, with oriented angle for elliptics.

    Elliptic elements rotate every direction the same way, so the sign of
    det(v, gv) at any v picks the representative conjugate to a
    counterclockwise rotation; theta = arccos of half its trace.
    Parabolic sign comes from the same form on the trace-2 representative,
    whose extremes over unit v are (c - b +- hypot(c + b, a - d)) / 2: one
    of them vanishes on a parabolic, and the other is c - b.
    """
    m = g.m
    tr = g.trace
    at = abs(tr)
    if at < 2.0 - tol:
        # c entry of the counterclockwise representative is positive:
        # the form q(v) = c x^2 + (d-a) xy - b y^2 is definite of sign c
        mp = m if m[1, 0] > 0 else -m
        theta = float(np.arccos(np.clip((mp[0, 0] + mp[1, 1]) / 2.0, -1.0, 1.0)))
        return ConjClassSpec.elliptic(theta)
    if at > 2.0 + tol:
        return ConjClassSpec.hyperbolic((at + np.sqrt(at * at - 4.0)) / 2.0)
    if psl_dist(m, IDENTITY) <= tol:
        return ConjClassSpec.identity()
    a, b, c, d = (m if tr >= 0 else -m).ravel()
    # the two extremes of the form sum to s and differ by r
    s, r = float(c - b), float(np.hypot(c + b, a - d))
    if abs(s) + r <= 2.0 * tol:  # both extremes within tol of 0
        raise DegenerateClassification(
            f"parabolic sign inconclusive: form range [{(s - r) / 2}, "
            f"{(s + r) / 2}]")
    return ConjClassSpec.parabolic(nonneg=s >= 0.0)


def cone_test(gamma: LieElement, tol: float = TAU_CLASS) -> str:
    radius = float(np.hypot(gamma.delta, gamma.eps))
    alpha = gamma.alpha
    if gamma.norm() <= tol:
        return ZERO
    if alpha > 0 and abs(alpha - radius) <= tol:
        return NONNEG_BOUNDARY
    if alpha < 0 and abs(alpha + radius) <= tol:
        return NONPOS_BOUNDARY
    if alpha > radius:
        return POSITIVE
    if -alpha > radius:
        return NEGATIVE
    return INDEFINITE


def t_function(g: GroupElement) -> float:
    """T(g) = c - b of the stored representative; sign-blind callers use |T|."""
    return float(g.m[1, 0] - g.m[0, 1])


def canonical_rep(spec: ConjClassSpec) -> GroupElement:
    if spec.kind == ELLIPTIC:
        return GroupElement.rotation(spec.value)
    if spec.kind == HYPERBOLIC:
        return GroupElement.diagonal(spec.value)
    if spec.kind == PARABOLIC_NONNEG:
        return GroupElement(np.array([[1.0, 0.0], [1.0, 1.0]]))
    if spec.kind == PARABOLIC_NONPOS:
        return GroupElement(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    return GroupElement.identity()


def random_lie(rng: np.random.Generator, scale: float = 0.7) -> np.ndarray:
    a, b, c = rng.normal(0.0, scale, size=3)
    return np.array([[a, b], [c, -a]])


def random_conjugate(rng: np.random.Generator, rep: np.ndarray,
                     scale: float) -> GroupElement:
    """h rep h^-1 with h = exp(random_lie(rng, scale))."""
    h = sl2_exp(random_lie(rng, scale))
    return GroupElement(h @ rep @ mat_inv(h))


def random_in_class(spec: ConjClassSpec, seed) -> GroupElement:
    """Seeded conjugate h rep(spec) h^-1; the class is preserved exactly."""
    return random_conjugate(np.random.default_rng(seed), canonical_rep(spec).m,
                            0.7)


# ---------------------------------------------------------------------------
# closed-form exp / log for traceless 2x2 matrices, batched over leading axes

def _cs_pos(q):
    w = np.sqrt(q)
    return np.cos(w), np.sin(w) / w


def _cs_neg(q):
    w = np.sqrt(-q)
    return np.cosh(w), np.sinh(w) / w


def _cs_small(q):
    return 1.0 - q / 2.0 + q * q / 24.0, 1.0 - q / 6.0 + q * q / 120.0


def _cs_funcs(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # C(q) = cos(sqrt(q)) and S(q) = sin(sqrt(q))/sqrt(q), continued through
    # q <= 0 as cosh/sinh; the series branch keeps them smooth at q = 0
    q = np.asarray(q, dtype=float)
    c = np.empty_like(q)
    s = np.empty_like(q)
    small = np.abs(q) < 1e-8
    for take, branch in (((q > 0) & ~small, _cs_pos),
                         ((q < 0) & ~small, _cs_neg), (small, _cs_small)):
        n = np.count_nonzero(take)
        if n == q.size:  # one branch takes every entry: no masked gathers
            c[...], s[...] = branch(q)
        elif n:  # a branch no entry takes is skipped
            c[take], s[take] = branch(q[take])
    return c, s


def sub_identity(x: np.ndarray, d, out: np.ndarray | None = None) -> np.ndarray:
    """x - d 1 for a batch x (..., 2, 2) and scalars d (...); out may be x.

    Writes the four entries without a broadcast identity; the off-diagonal
    entries subtract d * 0, so signed zeros come out exactly as in
    x - d[..., None, None] * IDENTITY.
    """
    if x.ndim == 2:  # one matrix: the identity term is just four entries
        return np.subtract(x, d * IDENTITY, out=out)
    if out is None:
        out = np.empty_like(x)  # keeps a plane-major x plane-major
    zero = d * 0.0
    np.subtract(x[..., 0, 0], d, out[..., 0, 0])
    np.subtract(x[..., 1, 1], d, out[..., 1, 1])
    np.subtract(x[..., 0, 1], zero, out[..., 0, 1])
    np.subtract(x[..., 1, 0], zero, out[..., 1, 0])
    return out


def sl2_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of traceless 2x2 input; x may be batched (...,2,2)."""
    x = np.asarray(x, dtype=float)
    q = x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]
    c, s = _cs_funcs(q)
    out = s[..., None, None] * x
    return sub_identity(out, -c, out=out)  # s x + c 1


def planes(shape: tuple) -> np.ndarray:
    """An empty (..., 2, 2) array over (2, 2, ...) storage: plane-major, so
    each entry (i, j) of the stack is one C-contiguous plane."""
    return np.moveaxis(np.empty(shape[-2:] + shape[:-2]), (0, 1), (-2, -1))


def mul2(a: np.ndarray, b: np.ndarray,
         out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for broadcast (..., 2, 2) stacks, entry by entry as a_i0 b_0j +
    a_i1 b_1j; out (plane-major if not given) must not overlap a or b.  For
    full cylinder grids only: there it is several times faster than
    np.matmul, which is as fast on a row or path of a few hundred."""
    if out is None:
        out = planes(np.broadcast_shapes(a.shape, b.shape))
    tmp = np.empty(out.shape[:-2])
    for i in (0, 1):
        for j in (0, 1):
            np.multiply(a[..., i, 0], b[..., 0, j], out=out[..., i, j])
            np.multiply(a[..., i, 1], b[..., 1, j], out=tmp)
            np.add(out[..., i, j], tmp, out=out[..., i, j])
    return out


def _log_factor(t: np.ndarray) -> np.ndarray:
    # f(t) with log(m) = f * (m - t I), t = tr(m)/2; f = theta/sin(theta)
    # for t = cos(theta) < 1 and s/sinh(s) for t = cosh(s) > 1.  Both are
    # the same analytic function of u = 1 - t; series keeps t ~ 1 stable.
    t = np.asarray(t, dtype=float)
    f = np.empty_like(t)
    u = 1.0 - t
    small = np.abs(u) < 1e-6
    ell = (t < 1.0) & ~small
    hyp = (t > 1.0) & ~small
    f[ell] = np.arccos(t[ell]) / np.sqrt(1.0 - t[ell] ** 2)
    f[hyp] = np.arccosh(t[hyp]) / np.sqrt(t[hyp] ** 2 - 1.0)
    uu = u[small]
    f[small] = 1.0 + uu / 3.0 + 2.0 * uu * uu / 15.0
    return f


def sl2_log(m: np.ndarray) -> np.ndarray:
    """Principal log of det-1 matrices with tr > -2; batched (...,2,2)."""
    m = np.asarray(m, dtype=float)
    t = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    if np.any(t <= -1.0 + 1e-12):
        raise ValueError("principal log undefined at trace <= -2")
    out = sub_identity(m, t)
    out *= _log_factor(t)[..., None, None]
    # kill the rounding residue on the diagonal so results are exactly traceless
    half_tr = 0.5 * (out[..., 0, 0] + out[..., 1, 1])
    out[..., 0, 0] -= half_tr
    out[..., 1, 1] -= half_tr
    return out


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of det-1 matrices by adjugate; batched."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out


def kernel_vector(b: np.ndarray) -> np.ndarray:
    """A vector spanning the kernel of the (numerically) rank-1 2x2 b.

    Orthogonal to the dominant row, which is the row least hurt by
    rounding when b is a near-singular eigen-shift m - lam 1.  b may be
    batched (..., 2, 2), giving (..., 2).
    """
    if b.ndim == 2:  # one matrix: a Python branch is cheaper than a mask
        r = b[0] if np.hypot(*b[0]) >= np.hypot(*b[1]) else b[1]
        return np.array([-r[1], r[0]])
    top = (np.hypot(b[..., 0, 0], b[..., 0, 1])
           >= np.hypot(b[..., 1, 0], b[..., 1, 1]))
    r = np.where(top[..., None], b[..., 0, :], b[..., 1, :])
    return np.stack([-r[..., 1], r[..., 0]], axis=-1)


def cone_margins(x: np.ndarray) -> np.ndarray:
    """alpha - sqrt(delta^2 + eps^2) for a batch (...,2,2) of traceless x."""
    alpha = 0.5 * (x[..., 1, 0] - x[..., 0, 1])
    delta = 0.5 * (x[..., 1, 0] + x[..., 0, 1])
    eps = x[..., 0, 0]
    return alpha - np.hypot(delta, eps)

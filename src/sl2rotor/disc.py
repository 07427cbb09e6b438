"""Unit-disc model: SU(1,1) isometries, vector fields, Hamiltonians.

The real group acts on the upper half plane; conjugating by the Cayley
matrix K = [[1, i], [1, -i]] turns a real matrix [[a, b], [c, d]] into

    [[p, q], [conj(q), conj(p)]],   p = ((a+d) + (c-b) i) / 2,
                                    q = ((a-d) + (b+c) i) / 2,

acting on the unit disc by w -> (p w + q)/(conj(q) w + conj(p)).  Traces
are preserved on the nose and the rotation R(theta) becomes w -> e^{2 i
theta} w.  On the Lie algebra the same map sends [[eps, p], [q, -eps]] to
[[i alpha, conj(beta)], [beta, -i alpha]] with alpha = (q - p)/2 and
beta = eps - i delta, so the nonnegativity cone is exactly
{alpha >= |beta|} and the cone margin transfers unchanged.

The metric is normalized to curvature -4 (distance arctanh of the Moebius
quotient); its area form is omega = -(1 - |w|^2)^{-2} dx dy, the sign fixed
so that dH_gamma = omega(X_gamma, .) for the fields and Hamiltonians below.

Every function broadcasts over arrays of points and of coefficients: an
isometry or Lie element with array coefficients is a batch, one entry per
index, and a scalar call is the 0-d case.  A batch is refused with
ValueError if any one of its entries is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import GroupElement, LieElement, _cs_funcs, from_entries

# |exp(i theta)| rounds up to a few ulps above 1; the closed disc allows that
_EDGE = 1.0 + 4.0 * np.finfo(float).eps


def _out(x):
    """A 0-d result as a Python scalar, a batch as it is."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def _finite(*xs) -> None:
    if not all(np.all(np.isfinite(x)) for x in xs):
        raise ValueError("inputs must be finite")


def _in_disc(w, closed: bool = False) -> np.ndarray:
    """w as a complex array; ValueError unless every entry lies in the open
    unit disc (closed: in the closed disc)."""
    w = np.asarray(w, dtype=complex)
    r = np.abs(w)
    if not np.all(r <= _EDGE if closed else r < 1.0):
        raise ValueError("points must be finite and inside the unit disc")
    return w


@dataclass(frozen=True)
class DiscIsometry:
    """Disc Moebius map w -> (a w + b)/(conj(b) w + conj(a)), |a|^2-|b|^2=1."""

    a: complex
    b: complex

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        n = np.abs(a) ** 2 - np.abs(b) ** 2
        if not np.all((n > 0.0) & (n < np.inf)):
            raise ValueError("|a|^2 - |b|^2 must be positive and finite")
        s = 1.0 / np.sqrt(n)
        object.__setattr__(self, "a", _out(a * s))
        object.__setattr__(self, "b", _out(b * s))

    @property
    def trace(self) -> float:
        return 2.0 * self.a.real

    def __call__(self, w: complex) -> complex:
        w = _in_disc(w, closed=True)
        return _out((self.a * w + self.b) / (np.conj(self.b) * w + np.conj(self.a)))

    def __matmul__(self, other: "DiscIsometry") -> "DiscIsometry":
        return DiscIsometry(
            self.a * other.a + self.b * np.conj(other.b),
            self.a * other.b + self.b * np.conj(other.a))

    def inverse(self) -> "DiscIsometry":
        return DiscIsometry(np.conj(self.a), -self.b)


@dataclass(frozen=True)
class DiscLieElement:
    """su(1,1) element [[i alpha, conj(beta)], [beta, -i alpha]]."""

    alpha: float
    beta: complex

    def __post_init__(self):
        _finite(self.alpha, self.beta)

    def cone_margin(self) -> float:
        # hypot rounds as core.cone_margins does, so the transfer is exact
        return _out(self.alpha - np.hypot(np.real(self.beta), np.imag(self.beta)))


# ---------------------------------------------------------------------------
# Cayley transfer


def _entries(m) -> tuple:
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"not a batch of 2x2 matrices: shape {m.shape}")
    return m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]


def cayley(g) -> DiscIsometry:
    """The disc isometry of a GroupElement, or the batch of a (..., 2, 2)
    array of positive-determinant matrices."""
    a, b, c, d = _entries(g.m if isinstance(g, GroupElement) else g)
    return DiscIsometry((a + d) / 2.0 + 1j * ((c - b) / 2.0),
                        (a - d) / 2.0 + 1j * ((b + c) / 2.0))


def cayley_inv(iso: DiscIsometry):
    """The real matrix: a GroupElement, or a (..., 2, 2) array for a batch."""
    p, q = np.asarray(iso.a), np.asarray(iso.b)
    m = from_entries(p.real + q.real, q.imag - p.imag,
                     p.imag + q.imag, p.real - q.real)
    return GroupElement(m) if m.ndim == 2 else m


def cayley_lie(x) -> DiscLieElement:
    """The su(1,1) element of a LieElement, or the batch of the traceless
    parts of a (..., 2, 2) array."""
    e, p, q, f = _entries(x.x if isinstance(x, LieElement) else x)
    return DiscLieElement(_out((q - p) / 2.0),
                          _out((e - f) / 2.0 - 1j * ((p + q) / 2.0)))


def cayley_inv_lie(d: DiscLieElement):
    """The real matrix: a LieElement, or a (..., 2, 2) array for a batch."""
    alpha, beta = np.asarray(d.alpha), np.asarray(d.beta)
    eps, delta = beta.real, -beta.imag
    x = from_entries(eps, delta - alpha, delta + alpha, -eps)
    return LieElement(x) if x.ndim == 2 else x


def disc_exp(gamma: DiscLieElement, t: float = 1.0) -> DiscIsometry:
    # x^2 = -det(x) 1 for traceless x, so exp(x) = C(q) 1 + S(q) x, q = det(x)
    ta, tb = t * np.asarray(gamma.alpha), t * np.asarray(gamma.beta)
    c, s = _cs_funcs(ta ** 2 - np.abs(tb) ** 2)
    return DiscIsometry(c + 1j * (s * ta), s * np.conj(tb))


# ---------------------------------------------------------------------------
# fields and Hamiltonians


def _field(gamma: DiscLieElement):
    # the one formula for X_gamma, coefficients taken out of the RK4 loop
    cb, ia, b = np.conj(gamma.beta), 2j * np.asarray(gamma.alpha), gamma.beta
    return lambda w: cb + (ia - b * w) * w


def vector_field(gamma: DiscLieElement, w: complex) -> complex:
    """Infinitesimal action of gamma at w: conj(beta) + 2 i alpha w - beta w^2."""
    return _out(_field(gamma)(_in_disc(w, closed=True)))


def hamiltonian(gamma: DiscLieElement, w: complex) -> float:
    """Momentum of gamma at w; alpha/2 at the origin, >= 0 on the cone."""
    w = _in_disc(w)
    r2 = np.abs(w) ** 2
    return _out((0.5 * (1.0 + r2) * gamma.alpha
                 - (gamma.beta * w).imag) / (1.0 - r2))


def disc_bracket(g1: DiscLieElement, g2: DiscLieElement) -> DiscLieElement:
    """[g1, g2]: alpha = 2 Im(conj(b1) b2), beta = 2 i (a2 b1 - a1 b2)."""
    b1, b2 = g1.beta, g2.beta
    return DiscLieElement(2.0 * (b1.real * b2.imag - b1.imag * b2.real),
                          2j * (g2.alpha * b1 - g1.alpha * b2))


def poisson_defect(g1: DiscLieElement, g2: DiscLieElement, w: complex,
                   h: float = 1e-3) -> float:
    """|{H_1, H_2}(w) - H_[g1,g2](w)| with a step-h central-difference bracket.

    The bracket uses omega = -(1-|w|^2)^{-2} dx dy, i.e.
    {F, G} = -(1-|w|^2)^2 (F_x G_y - F_y G_x); with that sign the defect is
    O(h^2) and identically zero for g1 = g2.  The step h must be positive.
    """
    h = np.asarray(h, dtype=float)
    if not np.all((h > 0.0) & (h < np.inf)):
        raise ValueError("the step h must be positive and finite")
    w = _in_disc(w)

    def grad(g):
        fx = (hamiltonian(g, w + h) - hamiltonian(g, w - h)) / (2.0 * h)
        fy = (hamiltonian(g, w + 1j * h) - hamiltonian(g, w - 1j * h)) / (2.0 * h)
        return fx, fy

    f1x, f1y = grad(g1)
    f2x, f2y = grad(g2)
    bracket = -(1.0 - np.abs(w) ** 2) ** 2 * (f1x * f2y - f1y * f2x)
    return _out(bracket - hamiltonian(disc_bracket(g1, g2), w))


def flow(gamma: DiscLieElement, w0: complex, t: float,
         steps: int = 256) -> complex:
    """RK4 integration of dw/du = X_gamma(w) from w0 over time t in `steps`
    equal steps, at least one; a batch runs as one loop."""
    steps = operator.index(steps)
    if steps < 1:
        raise ValueError(f"steps must be at least 1: {steps}")
    _finite(t)
    field = _field(gamma)
    w = _in_disc(w0, closed=True)
    dt = np.asarray(t, dtype=float) / steps
    for _ in range(steps):
        k1 = field(w)
        k2 = field(w + 0.5 * dt * k1)
        k3 = field(w + 0.5 * dt * k2)
        k4 = field(w + dt * k3)
        w = w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return _out(w)


# ---------------------------------------------------------------------------
# distances and the two cylinder bounds


def dist_hyp(w1: complex, w2: complex) -> float:
    """Curvature -4 distance: arctanh |(w1 - w2)/(1 - conj(w2) w1)|."""
    w1, w2 = _in_disc(w1), _in_disc(w2)
    return _out(np.arctanh(np.abs((w1 - w2) / (1.0 - np.conj(w2) * w1))))


def hyp_cylinder_max_length(lam: float) -> float:
    """pi / log(lam^2): the length threshold for a hyperbolic-boundary
    cylinder of multiplier lam to admit a nonnegative structure."""
    lam = float(lam)
    if not lam > 1.0:
        raise ValueError("multiplier must exceed 1")
    return float(np.pi / (2.0 * np.log(lam)))


def elliptic_cylinder_radius_bound(theta: float, ell: float) -> float:
    """arcsinh(sinh(pi/(2 l)) / sin theta) / 2 for an angle-theta elliptic
    boundary on a cylinder of modulus l."""
    theta, ell = float(theta), float(ell)
    if not 0.0 < theta < np.pi:
        raise ValueError("theta must lie in (0, pi)")
    if not ell > 0.0:
        raise ValueError("the modulus must be positive")
    return float(0.5 * np.arcsinh(np.sinh(np.pi / (2.0 * ell)) / np.sin(theta)))

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GroupElement, LieElement, _cs_funcs


@dataclass(frozen=True)
class DiscIsometry:
    """Disc Moebius map w -> (a w + b)/(conj(b) w + conj(a)), |a|^2-|b|^2=1."""

    a: complex
    b: complex

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        n = abs(a) ** 2 - abs(b) ** 2
        if n <= 0.0:
            raise ValueError(f"|a|^2 - |b|^2 = {n} is not positive")
        s = 1.0 / np.sqrt(n)
        object.__setattr__(self, "a", a * s)
        object.__setattr__(self, "b", b * s)

    @property
    def trace(self) -> float:
        return 2.0 * self.a.real

    def __call__(self, w: complex) -> complex:
        w = complex(w)
        return (self.a * w + self.b) / (np.conj(self.b) * w + np.conj(self.a))

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

    @property
    def matrix(self) -> np.ndarray:
        a, b = self.alpha, complex(self.beta)
        return np.array([[1j * a, np.conj(b)], [b, -1j * a]])

    def cone_margin(self) -> float:
        return float(self.alpha - abs(self.beta))


# ---------------------------------------------------------------------------
# Cayley transfer


def cayley(g: GroupElement) -> DiscIsometry:
    a, b, c, d = g.m.ravel()
    return DiscIsometry(complex((a + d) / 2.0, (c - b) / 2.0),
                        complex((a - d) / 2.0, (b + c) / 2.0))


def cayley_inv(iso: DiscIsometry) -> GroupElement:
    p, q = iso.a, iso.b
    return GroupElement(np.array([
        [p.real + q.real, q.imag - p.imag],
        [p.imag + q.imag, p.real - q.real]]))


def cayley_lie(x: LieElement) -> DiscLieElement:
    eps, p = x.x[0]
    q = x.x[1, 0]
    return DiscLieElement((q - p) / 2.0, complex(eps, -(p + q) / 2.0))


def cayley_inv_lie(d: DiscLieElement) -> LieElement:
    eps, delta = d.beta.real, -d.beta.imag
    return LieElement(np.array([[eps, delta - d.alpha],
                                [delta + d.alpha, -eps]]))


def disc_exp(gamma: DiscLieElement, t: float = 1.0) -> DiscIsometry:
    # x^2 = -det(x) 1 for traceless x, so exp is a two-term closed form
    x = t * gamma.matrix
    q = (t * gamma.alpha) ** 2 - abs(t * gamma.beta) ** 2  # = det(x)
    cv, sv = _cs_funcs(np.array([q]))
    m = cv[0] * np.eye(2) + sv[0] * x
    return DiscIsometry(m[0, 0], m[0, 1])


# ---------------------------------------------------------------------------
# fields and Hamiltonians


def vector_field(gamma: DiscLieElement, w: complex) -> complex:
    """Infinitesimal action of gamma at w: conj(beta) + 2 i alpha w - beta w^2."""
    w = complex(w)
    return np.conj(gamma.beta) + 2j * gamma.alpha * w - gamma.beta * w * w


def hamiltonian(gamma: DiscLieElement, w: complex) -> float:
    """Momentum of gamma at w; alpha/2 at the origin, >= 0 on the cone."""
    w = complex(w)
    r2 = abs(w) ** 2
    if r2 >= 1.0:
        raise ValueError("w must lie inside the unit disc")
    return (0.5 * (1.0 + r2) * gamma.alpha
            - (gamma.beta * w).imag) / (1.0 - r2)


def disc_bracket(g1: DiscLieElement, g2: DiscLieElement) -> DiscLieElement:
    m = g1.matrix @ g2.matrix - g2.matrix @ g1.matrix
    return DiscLieElement(m[0, 0].imag, m[1, 0])


def poisson_defect(g1: DiscLieElement, g2: DiscLieElement, w: complex,
                   h: float = 1e-3) -> float:
    """|{H_1, H_2}(w) - H_[g1,g2](w)| with a step-h central-difference bracket.

    The bracket uses omega = -(1-|w|^2)^{-2} dx dy, i.e.
    {F, G} = -(1-|w|^2)^2 (F_x G_y - F_y G_x); with that sign the defect is
    O(h^2) and identically zero for g1 = g2.
    """
    w = complex(w)

    def grad(g):
        fx = (hamiltonian(g, w + h) - hamiltonian(g, w - h)) / (2.0 * h)
        fy = (hamiltonian(g, w + 1j * h) - hamiltonian(g, w - 1j * h)) / (2.0 * h)
        return fx, fy

    f1x, f1y = grad(g1)
    f2x, f2y = grad(g2)
    bracket = -(1.0 - abs(w) ** 2) ** 2 * (f1x * f2y - f1y * f2x)
    return float(bracket - hamiltonian(disc_bracket(g1, g2), w))


def flow(gamma: DiscLieElement, w0: complex, t: float,
         steps: int = 256) -> complex:
    """RK4 integration of dw/du = X_gamma(w) from w0 over time t."""
    w = complex(w0)
    dt = t / steps
    for _ in range(steps):
        k1 = vector_field(gamma, w)
        k2 = vector_field(gamma, w + 0.5 * dt * k1)
        k3 = vector_field(gamma, w + 0.5 * dt * k2)
        k4 = vector_field(gamma, w + dt * k3)
        w = w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return w


# ---------------------------------------------------------------------------
# distances and the two cylinder bounds


def dist_hyp(w1: complex, w2: complex) -> float:
    """Curvature -4 distance: arctanh |(w1 - w2)/(1 - conj(w2) w1)|."""
    w1, w2 = complex(w1), complex(w2)
    if abs(w1) >= 1.0 or abs(w2) >= 1.0:
        raise ValueError("points must lie inside the unit disc")
    return float(np.arctanh(abs((w1 - w2) / (1.0 - np.conj(w2) * w1))))


def hyp_cylinder_max_length(lam: float) -> float:
    """pi / log(lam^2): the length threshold for a hyperbolic-boundary
    cylinder of multiplier lam to admit a nonnegative structure."""
    lam = float(lam)
    if lam <= 1.0:
        raise ValueError("multiplier must exceed 1")
    return float(np.pi / (2.0 * np.log(lam)))


def elliptic_cylinder_radius_bound(theta: float, ell: float) -> float:
    """arcsinh(sinh(pi/(2 l)) / sin theta) / 2 for an angle-theta elliptic
    boundary on a cylinder of modulus l."""
    theta, ell = float(theta), float(ell)
    if not 0.0 < theta < np.pi:
        raise ValueError("theta must lie in (0, pi)")
    if ell <= 0.0:
        raise ValueError("the modulus must be positive")
    return float(0.5 * np.arcsinh(np.sinh(np.pi / (2.0 * ell)) / np.sin(theta)))

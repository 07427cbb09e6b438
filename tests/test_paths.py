"""Nonnegative paths, itinerary constructors and the explicit families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2rotor import cover
from sl2rotor.core import GroupElement, classify, cone_margins
from sl2rotor.paths import (
    GroupPath,
    ItineraryViolation,
    StepTooLarge,
    elliptic_about,
    elliptic_itinerary_path,
    hyperbolic_itinerary_path,
    is_nonnegative,
    make_positive,
    pointwise_product,
    spiral_path,
    three_classes_triple,
    two_elliptic_trace,
    unit_path,
)

angles = st.floats(0.05, np.pi - 0.05)


# ---------------------------------------------------------------------------
# GroupPath basics


def test_group_path_rejects_coarse_jumps():
    nodes = np.stack([np.eye(2), np.diag([np.e ** 2, np.e ** -2])])
    with pytest.raises(StepTooLarge):
        GroupPath(nodes)


def test_refine_preserves_endpoints_and_margins():
    p = spiral_path(1, np.diag([0.05, -0.05]), n=60)
    q = p.refine(4)
    assert q.n_steps == 4 * p.n_steps
    assert np.abs(q.nodes[0] - p.nodes[0]).max() == 0.0
    assert np.abs(q.nodes[-1] - p.nodes[-1]).max() < 1e-12
    assert abs(q.margins().min() - p.margins().min()) < 1e-3


def test_inverted_flips_cone_side():
    p = spiral_path(1, np.diag([0.05, -0.05]), n=200)
    assert p.is_nonneg()
    assert p.inverted().is_nonpos()
    assert not p.inverted().is_nonneg()


# ---------------------------------------------------------------------------
# spiral family


def test_spiral_margin_lower_bound():
    gamma = np.array([[0.05, 0.08], [0.02, -0.05]])
    for r in (1, 2, 3):
        p = spiral_path(r, gamma, n=300)
        assert p.margins().min() >= r * np.pi - 2 * np.linalg.norm(gamma) - 1e-9


def test_spiral_rot_gain_is_the_winding():
    for r in (1, 2):
        _, gain = cover.rot_along(
            spiral_path(r, np.diag([0.1, -0.1]), n=400).nodes)
        assert gain == float(r)


def test_spiral_input_validation():
    with pytest.raises(ValueError):
        spiral_path(0, np.diag([0.1, -0.1]))
    with pytest.raises(ValueError):
        spiral_path(1, np.diag([0.5, -0.5]))  # |gamma| above the cone budget


def test_make_positive_shifts_margins_uniformly():
    p = spiral_path(1, np.diag([0.12, -0.12]), n=250)
    lifted = make_positive(p, eta=0.01)
    # the continuum shift is exactly eta pi; discrete cocycles add O(h^2)
    shift = lifted.margins() - p.margins()
    assert np.abs(shift - 0.01 * np.pi).max() < 1e-6


def test_pointwise_product_of_nonneg_paths():
    p = spiral_path(1, np.diag([0.1, -0.1]), n=300)
    q = spiral_path(2, np.array([[0.0, 0.1], [0.05, 0.0]]), n=300)
    prod = pointwise_product(p, q)
    assert prod.is_nonneg()
    _, gain = cover.rot_along(prod.nodes)
    assert abs(gain - 3.0) < 1e-9


def test_is_nonnegative_report():
    p = spiral_path(1, np.diag([0.1, -0.1]), n=200)
    rep = is_nonnegative(p)
    assert rep.min_cone_margin > 0.0
    assert rep.rot_gain == 1.0
    assert rep.nonnegative and rep.positive
    assert rep.endpoint_class is not None
    assert len(rep.class_itinerary) == len(p.nodes)


# ---------------------------------------------------------------------------
# itinerary constructors


def test_elliptic_itinerary_tracks_the_angles():
    theta = np.linspace(0.3, 2.4, 401)
    p = elliptic_itinerary_path(theta, n=400)
    rec = np.array([classify(GroupElement(m)).value for m in p.nodes])
    assert np.abs(rec - theta).max() < 1e-5
    assert p.margins().min() > -1e-8


def test_elliptic_itinerary_rejects_decreasing_angles():
    with pytest.raises(ItineraryViolation):
        elliptic_itinerary_path(np.array([1.0, 0.9, 1.1]), n=2)
    with pytest.raises(ValueError):
        elliptic_itinerary_path(np.array([0.0, 0.5]), n=1)


def test_hyperbolic_itinerary_tracks_both_directions():
    lam = np.linspace(1.4, 2.6, 301)
    for direction in (1, -1):
        p = hyperbolic_itinerary_path(lam, direction=direction, n=300)
        rec = np.array([classify(GroupElement(m)).value for m in p.nodes])
        assert np.abs(rec - lam).max() < 1e-5
        assert p.is_nonneg(tol=1e-8)


def test_hyperbolic_itinerary_descending():
    lam = np.linspace(2.6, 1.4, 301)
    p = hyperbolic_itinerary_path(lam, n=300)
    rec = np.array([classify(GroupElement(m)).value for m in p.nodes])
    assert np.abs(rec - lam).max() < 1e-5


# ---------------------------------------------------------------------------
# the unit-multiplier path


def test_unit_path_report():
    g1, k, rep = unit_path(2.0, 2.0, n=800)
    assert rep["conjugation_residual"] <= 1e-6
    assert rep["trace_identity_residual"] <= 1e-6
    assert rep["min_ps"] > 0.0
    assert rep["k_end_class"].startswith("Hyperbolic")
    assert rep["k_rot"] == 0.0
    assert rep["rot_gain"] == 1.0
    assert abs(rep["endpoint_trace"]) >= 2.0
    # k stays in the lower-triangular slice: p s is its diagonal product
    ps = k.nodes[:, 0, 0] * k.nodes[:, 1, 1]
    assert float(ps.min()) == pytest.approx(rep["min_ps"], rel=1e-12)


# ---------------------------------------------------------------------------
# triples and two-elliptic products


def test_three_classes_validation():
    with pytest.raises(ValueError):
        three_classes_triple(1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        three_classes_triple(2.0, 2.0, 2.0, branch=0)


def test_three_classes_generic_instance():
    tr = three_classes_triple(1.7, 2.2, 3.1, branch=-1)
    assert classify(tr.g1).value == pytest.approx(2.2, abs=1e-9)
    assert classify(tr.g2).value == pytest.approx(3.1, abs=1e-9)
    spec = classify(tr.g0)
    assert spec.kind == "hyperbolic"
    assert spec.value == pytest.approx(1.7, abs=1e-9)
    assert tr.g0.trace < 0.0  # the negative-trace branch of the product
    assert tr.defect == -1.0
    assert cover.rot(tr.l1) == 0.0 and cover.rot(tr.l2) == 0.0


def test_three_classes_plus_branch():
    assert three_classes_triple(1.7, 2.2, 3.1, branch=1).defect == 1.0


def test_elliptic_about_origin_is_rotation():
    g = elliptic_about(0.8, 0.0)
    assert np.abs(g.m - GroupElement.rotation(0.8).m).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(angles, angles, st.floats(0.0, 0.85), st.floats(0.0, 2 * np.pi))
def test_two_elliptic_trace_formula(th1, th2, rad, phi):
    w = rad * np.exp(1j * phi)
    direct = (elliptic_about(th1, w) @ GroupElement.rotation(th2)).trace
    assert abs(two_elliptic_trace(th1, th2, w) - direct) < 1e-10


@settings(max_examples=40, deadline=None)
@given(angles, angles)
def test_two_elliptic_supremum_at_center(th1, th2):
    at0 = two_elliptic_trace(th1, th2, 0.0)
    assert abs(at0 - 2.0 * np.cos(th1 + th2)) < 1e-12
    for rad in (0.2, 0.5, 0.8):
        assert two_elliptic_trace(th1, th2, rad) <= at0 + 1e-12


def test_cone_margin_sides_are_consistent():
    p = spiral_path(1, np.diag([0.1, -0.1]), n=200)
    # nonpositivity of the inverse shows up as nonnegativity of -cocycles
    q = p.inverted()
    assert cone_margins(-q.right_cocycles()).min() > 0.0

"""Nonnegative paths, itinerary constructors and the explicit families."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2rotor import cover
from sl2rotor.core import (
    J,
    GroupElement,
    classify,
    cone_margins,
    kernel_vector,
    mat_inv,
    rotation,
    sl2_exp,
)
from sl2rotor.paths import (
    ConjugatorBranchLoss,
    GroupPath,
    ItineraryViolation,
    StepTooLarge,
    conjugator_path,
    elliptic_about,
    elliptic_itinerary_path,
    hyperbolic_itinerary_path,
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


def test_repeated_nodes_are_in_both_cones():
    # zero cocycles lie in both closed cones
    p = GroupPath(np.repeat(np.diag([2.0, 0.5])[None], 9, axis=0))
    assert p.is_nonneg() and p.is_nonpos()


def test_nonpositive_parabolic_path_is_not_nonneg():
    # cocycles -[[0, 0], [1, 0]]: det 0, which alone would pass them as
    # nonnegative; alpha -0.5 gives the defect 0.5
    s = np.linspace(0.0, 1.0, 33)
    p = GroupPath(sl2_exp(-s[:, None, None] * np.array([[0.0, 0.0],
                                                        [1.0, 0.0]])))
    assert p.is_nonpos()
    assert not p.is_nonneg()
    assert p.defects().min() > 0.4


@pytest.mark.parametrize("c", [1e-5, 3e-5])
def test_slow_backward_rotation_is_not_nonneg(c):
    # left cocycles -c J: det c^2 >= 0, and the alpha term, linear in c,
    # keeps the path out of the nonnegative cone
    s = np.linspace(0.0, 1.0, 65)
    p = GroupPath(sl2_exp(-c * s[:, None, None] * J))
    assert p.is_nonpos()
    assert not p.is_nonneg()
    assert abs(p.defects().max() - c) < 1e-12


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
    with pytest.raises(ItineraryViolation):
        # node steps are checked at -1e-12 themselves, not in quarters
        elliptic_itinerary_path(np.array([1.0, 1.0 - 2e-12, 1.1]), n=2)
    with pytest.raises(ValueError):
        elliptic_itinerary_path(np.array([0.0, 0.5]), n=1)


def test_hyperbolic_itinerary_tracks_both_directions():
    lam = np.linspace(1.4, 2.6, 301)
    for direction in (1, -1):
        p = hyperbolic_itinerary_path(lam, direction=direction, n=300)
        rec = np.array([classify(GroupElement(m)).value for m in p.nodes])
        assert np.abs(rec - lam).max() < 1e-5
        assert p.is_nonneg()


def test_hyperbolic_itinerary_descending():
    lam = np.linspace(2.6, 1.4, 301)
    p = hyperbolic_itinerary_path(lam, n=300)
    rec = np.array([classify(GroupElement(m)).value for m in p.nodes])
    assert np.abs(rec - lam).max() < 1e-5


# the RK4 itinerary builders as they were before the closed-form elliptic
# path and the scalar hyperbolic RK4; copies kept as references


def scalar_model_reference(data, n):
    vals = np.asarray(data, dtype=float)

    def value_at(t, i):
        return float(vals[i] + (t * n - i) * (vals[i + 1] - vals[i]))

    def slope_at(t, i):
        return float((vals[i + 1] - vals[i]) * n)

    return value_at, slope_at


def rk4_reference(deriv, g0, n):
    h = 1.0 / n
    out = np.empty((n + 1, 2, 2))
    out[0] = g0
    g = np.array(g0, dtype=float)
    for i in range(n):
        t = i * h
        k1 = deriv(t, g, i)
        k2 = deriv(t + h / 2, g + (h / 2) * k1, i)
        k3 = deriv(t + h / 2, g + (h / 2) * k2, i)
        k4 = deriv(t + h, g + h * k3, i)
        g = g + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = g
    return out


def elliptic_rk4_reference(theta, start, n):
    theta_at, dtheta_at = scalar_model_reference(theta, n)

    def deriv(t, g, i):
        dth = dtheta_at(t, i)
        if dth == 0.0:
            return np.zeros((2, 2))
        th = theta_at(t, i)
        return dth / np.sin(th) * (g @ g - np.cos(th) * g)

    return GroupPath(rk4_reference(deriv, start, n)).nodes


def hyperbolic_generator_reference(g, want_increase, eta_scale):
    a, b, c, d = g.ravel()
    m = np.array([[a - d, b + c], [b + c, d - a]])
    root_r = np.hypot(a - d, b + c)
    sign = 1.0 if want_increase else -1.0
    tee = abs(c - b)
    tr2m4 = (a + d) ** 2 - 4.0
    eta = eta_scale * root_r
    if tee > 0.0:
        eta = min(eta, 0.25 * tr2m4 * root_r / ((root_r + tee) * tee))
    return root_r * J + sign * m + eta * J


def hyperbolic_rk4_reference(lam, direction, start, n, eta_scale=1e-3):
    lam_at, dlam_at = scalar_model_reference(lam, n)

    def deriv(t, g, i):
        lam = lam_at(t, i)
        dtau = direction * (1.0 - 1.0 / lam ** 2) * dlam_at(t, i)
        if dtau == 0.0:
            return np.zeros((2, 2))
        gamma = hyperbolic_generator_reference(g, dtau > 0, eta_scale)
        pairing = float(np.trace(g @ gamma))
        return (dtau / pairing) * (gamma @ g)

    return GroupPath(rk4_reference(deriv, start, n)).nodes


def traceless(x):
    # (..., 3) coordinates to traceless (..., 2, 2) matrices
    a, b, c = np.moveaxis(x, -1, 0)
    return np.stack([np.stack([a, b], -1), np.stack([c, -a], -1)], -2)


def conjugated(m, seed):
    h = sl2_exp(traceless(0.4 * np.random.default_rng(seed).normal(size=3)))
    return GroupElement(h @ m @ mat_inv(h))


def test_elliptic_closed_form_matches_the_rk4_flow():
    rng = np.random.default_rng(3)
    plateau = np.concatenate([np.full(300, 0.7), np.linspace(0.7, 2.9, 701)])
    ramps = [np.linspace(0.3, 2.4, 1001), plateau,
             0.2 + np.cumsum(np.concatenate([[0.0], rng.random(1000)]))
             * 2.5 / 500.0]
    for theta in ramps:
        for g0 in (None, conjugated(rotation(theta[0]), 5)):
            p = elliptic_itinerary_path(theta, g0=g0, n=1000)
            start = (rotation(theta[0]) if g0 is None
                     else g0.m if g0.m[1, 0] > 0 else -g0.m)
            ref = elliptic_rk4_reference(theta, start, 1000)
            assert np.abs(p.nodes - ref).max() < 1e-6
            tr = p.nodes[:, 0, 0] + p.nodes[:, 1, 1]
            assert np.abs(np.abs(tr) - 2.0 * np.abs(np.cos(theta))).max() < 1e-14


@pytest.mark.parametrize("lam,direction", [
    (np.linspace(1.5, 3.0, 1001), 1),
    (np.linspace(3.0, 1.5, 1001), 1),
    (np.linspace(1.2, 2.2, 401), -1),
    (np.concatenate([np.full(100, 1.8), np.linspace(1.8, 1.3, 301)]), -1),
])
def test_scalar_hyperbolic_rk4_matches_the_array_rk4(lam, direction):
    n = len(lam) - 1
    for g0 in (None, conjugated(np.diag([lam[0], 1.0 / lam[0]]), 9)):
        p = hyperbolic_itinerary_path(lam, direction=direction, g0=g0, n=n)
        if g0 is None:
            start = direction * np.diag([lam[0], 1.0 / lam[0]])
        else:
            start = g0.m if g0.trace * direction > 0 else -g0.m
        ref = hyperbolic_rk4_reference(lam, direction, start, n)
        assert np.abs(p.nodes - ref).max() < 1e-12


def conjugator_reference(nodes, lam):
    """The node-by-node conjugator frame loop."""
    lam_inv = 1.0 / lam
    out = np.empty_like(nodes)
    eye = np.eye(2)
    u1p = u2p = None
    for i, m in enumerate(nodes):
        mp = m if m[0, 0] + m[1, 1] >= 0 else -m
        u1 = kernel_vector(mp - lam * eye)
        u2 = kernel_vector(mp - lam_inv * eye)
        u1 = u1 / np.linalg.norm(u1)
        u2 = u2 / np.linalg.norm(u2)
        if u1p is not None:
            if float(u1 @ u1p) < 0:
                u1 = -u1
            if float(u2 @ u2p) < 0:
                u2 = -u2
        u1p, u2p = u1, u2
        du = float(u1[0] * u2[1] - u1[1] * u2[0])
        if abs(du) < 1e-12:
            raise ConjugatorBranchLoss(f"eigenvectors collapse at node {i}")
        c1 = 1.0 / np.sqrt(abs(du))
        c2 = c1 if du > 0 else -c1
        k = np.stack([c1 * u1, c2 * u2], axis=1)
        if i > 0:
            prev = out[i - 1]
            if np.linalg.norm(k - prev) > np.linalg.norm(k + prev):
                k = -k
            if min(np.linalg.norm(k - prev), np.linalg.norm(k + prev)) > 0.5:
                raise ConjugatorBranchLoss(f"conjugator jump at node {i}")
        out[i] = k
    return out


def shear_nodes(lam, t):
    # upper-triangular nodes of multiplier lam; the eigenvectors close in
    # as the corner t grows
    nodes = np.zeros((len(t), 2, 2))
    nodes[:, 0, 0], nodes[:, 1, 1], nodes[:, 0, 1] = lam, 1.0 / lam, t
    return nodes


def test_conjugator_path_matches_the_node_loop():
    rng = np.random.default_rng(13)
    g1, _, _ = unit_path(2.0, 2.6, n=600)
    cases = [(g1.nodes @ np.diag([2.6, 1.0 / 2.6]), 2.6)]
    for lam in (1.3, 2.2):
        # a conjugated hyperbolic sweep, both signs of the representative
        h = sl2_exp(traceless(np.cumsum(0.03 * rng.normal(size=(400, 3)), 0)))
        nodes = h @ np.diag([lam, 1.0 / lam]) @ mat_inv(h)
        nodes[::3] *= -1.0
        cases.append((nodes, lam))
    cases.append((shear_nodes(1.5, np.linspace(-3.0, 3.0, 200)), 1.5))
    for nodes, lam in cases:
        got = conjugator_path(nodes, lam)
        want = conjugator_reference(nodes, lam)
        assert np.array_equal(np.sign(got), np.sign(want))
        scale = np.linalg.norm(want, axis=(1, 2))[:, None, None]
        assert (np.abs(got - want) <= np.finfo(float).eps * scale).all()


@pytest.mark.parametrize("t,word", [
    (np.concatenate([np.zeros(5), [3e13], np.zeros(5)]), "collapse at node 5"),
    (np.concatenate([np.zeros(3), np.full(5, 4.0)]), "jump at node 3"),
    (np.concatenate([np.linspace(0.0, 1e6, 9), [3e13]]), "jump at node 1"),
])
def test_conjugator_path_reports_the_failing_node(t, word):
    nodes = shear_nodes(1.5, t)
    with pytest.raises(ConjugatorBranchLoss) as want:
        conjugator_reference(nodes, 1.5)
    with pytest.raises(ConjugatorBranchLoss) as got:
        conjugator_path(nodes, 1.5)
    assert str(got.value) == str(want.value)
    assert word in str(got.value)


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


@pytest.mark.parametrize("lam_target,lam,n", [
    (2.0, 2.0, 32), (2.0, 1.5, 128), (3.0, 1.3, 128), (3.0, 1.3, 512)])
def test_unit_path_resolves_coarse_requests(lam_target, lam, n):
    # n is a lower bound: a segment whose steps do not fit is resampled
    g1, k, rep = unit_path(lam_target, lam, n=n)
    assert g1.n_steps > n and k.n_steps == g1.n_steps
    assert rep["k_end_class"].startswith("Hyperbolic")
    assert rep["k_rot"] == 0.0 and rep["rot_gain"] == 1.0
    assert max(rep["conjugation_residual"],
               rep["trace_identity_residual"]) <= 1e-6


def test_unit_path_keeps_the_requested_count_where_it_fits():
    g1, k, _ = unit_path(2.0, 2.6, n=600)
    assert g1.n_steps == k.n_steps == 600


def test_unit_path_refinement_is_bounded():
    # the default n refuses this multiplier too; refining stops at 1024
    # steps a segment instead of reaching ever worse conditioned nodes
    with pytest.raises(StepTooLarge):
        unit_path(2.0, 1.05, n=64)


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



@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(angles, angles, st.floats(0.0, 0.85),
                          st.floats(0.0, 2 * np.pi)), min_size=1, max_size=5))
@example([(0.5, 1.0, 0.3, 0.2)])
def test_two_elliptic_batches_are_the_scalar_calls(cases):
    # numpy's scalar arithmetic skips the fused multiply-adds of its array
    # loops, so an entry may differ from its scalar call in the last bits
    tol = 64 * np.finfo(float).eps
    th1, th2, rad, phi = (np.array(v) for v in zip(*cases))
    w = rad * np.exp(1j * phi)
    traces = two_elliptic_trace(th1, th2, w)
    np.testing.assert_allclose(
        traces, [two_elliptic_trace(*a) for a in zip(th1, th2, w)],
        rtol=tol, atol=tol)
    mats = elliptic_about(th1, w)
    assert mats.shape == (len(cases), 2, 2)
    np.testing.assert_allclose(
        [GroupElement(m).m for m in mats],
        [elliptic_about(*a).m for a in zip(th1, w)], rtol=tol, atol=tol)
    outside = np.append(w[1:], 1.5)
    with pytest.raises(ValueError):
        two_elliptic_trace(th1, th2, outside)
    with pytest.raises(ValueError):
        elliptic_about(th1, outside)

def test_cone_margin_sides_are_consistent():
    p = spiral_path(1, np.diag([0.1, -0.1]), n=200)
    # nonpositivity of the inverse shows up as nonnegativity of -cocycles
    q = p.inverted()
    assert cone_margins(-q.right_cocycles()).min() > 0.0

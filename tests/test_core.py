"""Classification, cone tests and the matrix exponential pair."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2rotor.core import (
    ConjClassSpec,
    DegenerateClassification,
    GroupElement,
    LieElement,
    NonUnimodular,
    PATH_CONE_SLACK,
    canonical_rep,
    classify,
    cone_defects,
    cone_margins,
    cone_test,
    mat_inv,
    psl_dist,
    random_in_class,
    random_lie,
    rotation,
    sl2_exp,
    sl2_log,
    sub_identity,
    t_function,
)
from sl2rotor.core import _cs_funcs

angles = st.floats(0.05, np.pi - 0.05)
multipliers = st.floats(1.05, 8.0)
small = st.floats(-0.6, 0.6)


def conj_by(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    return h @ m @ mat_inv(h)


# ---------------------------------------------------------------------------
# classify on pinned representatives


def test_classify_rotation_is_elliptic():
    spec = classify(GroupElement.rotation(0.7))
    assert spec.kind == "elliptic"
    assert abs(spec.value - 0.7) < 1e-12


def test_classify_diagonal_is_hyperbolic():
    spec = classify(GroupElement.diagonal(3.0))
    assert spec.kind == "hyperbolic"
    assert abs(spec.value - 3.0) < 1e-12


def test_classify_parabolic_signs():
    lower = classify(GroupElement(np.array([[1.0, 0.0], [1.0, 1.0]])))
    upper = classify(GroupElement(np.array([[1.0, 1.0], [0.0, 1.0]])))
    assert lower.kind == "parabolic_nonneg"
    assert upper.kind == "parabolic_nonpos"


def parabolic_scan_reference(g: GroupElement, tol: float):
    """The parabolic sign as a scan of det(v, m v) over 360 directions v,
    m the positive-trace representative; None where the scan is
    inconclusive."""
    m = g.m if g.trace >= 0 else -g.m
    phi = np.linspace(0.0, np.pi, 360, endpoint=False)
    x, y = np.cos(phi), np.sin(phi)
    a, b, c, d = m.ravel()
    vals = c * x * x + (d - a) * x * y - b * y * y
    lo, hi = float(vals.min()), float(vals.max())
    if max(abs(lo), abs(hi)) <= tol:
        return None
    return "parabolic_nonneg" if abs(hi) >= abs(lo) else "parabolic_nonpos"


def classify_or_none(g: GroupElement, tol: float):
    try:
        return classify(g, tol).kind
    except DegenerateClassification:
        return None


def test_parabolic_sign_matches_direction_scan():
    tol = 1e-9
    compared = 0
    for k in (1.0, 10.0, 100.0, 1e3):
        for phi in np.linspace(0.0, np.pi, 7, endpoint=False):
            h = np.diag([k, 1.0 / k]) @ rotation(phi)
            for shear in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2):
                for lower in (True, False):
                    rep = np.eye(2)
                    rep[(1, 0) if lower else (0, 1)] = shear
                    for sign in (1.0, -1.0):
                        g = GroupElement(sign * conj_by(h, rep))
                        if abs(abs(g.trace) - 2.0) > tol or \
                                psl_dist(g.m, np.eye(2)) <= tol:
                            continue  # the sign is not asked for
                        compared += 1
                        want = parabolic_scan_reference(g, tol)
                        assert classify_or_none(g, tol) == want, \
                            (k, phi, shear, lower, sign)
    assert compared > 500


def test_parabolic_sign_refuses_where_the_scan_does():
    # |extremes| of the form reach only 0.9 tol: both forms must refuse
    tol = 1e-9
    x = 0.9 * tol
    g = GroupElement(np.diag([1.0 + x, 1.0 / (1.0 + x)]))
    assert abs(g.trace - 2.0) <= tol and psl_dist(g.m, np.eye(2)) > tol
    assert parabolic_scan_reference(g, tol) is None
    with pytest.raises(DegenerateClassification):
        classify(g, tol)


def test_classify_identity_both_signs():
    assert classify(GroupElement.identity()).kind == "identity"
    assert classify(GroupElement(-np.eye(2))).kind == "identity"


def test_t_function_pinned_values():
    # T = m21 - m12: 2 sin(theta) on rotations, zero on symmetric matrices
    assert abs(t_function(GroupElement.rotation(0.3)) - 2 * np.sin(0.3)) < 1e-15
    assert t_function(GroupElement.diagonal(2.0)) == 0.0
    assert t_function(GroupElement(np.array([[1.0, 0.0], [1.0, 1.0]]))) == 1.0


def test_canonical_rep_round_trip():
    for spec in (ConjClassSpec.elliptic(1.1), ConjClassSpec.hyperbolic(2.5),
                 ConjClassSpec.parabolic(True), ConjClassSpec.parabolic(False),
                 ConjClassSpec.identity()):
        back = classify(canonical_rep(spec))
        assert back.kind == spec.kind
        if spec.value is not None:
            assert abs(back.value - spec.value) < 1e-9


@pytest.mark.parametrize("kind,make", [
    ("elliptic", lambda: ConjClassSpec.elliptic(0.9)),
    ("hyperbolic", lambda: ConjClassSpec.hyperbolic(1.8)),
    ("parabolic_nonneg", lambda: ConjClassSpec.parabolic(True)),
    ("parabolic_nonpos", lambda: ConjClassSpec.parabolic(False)),
])
def test_random_in_class_lands_in_class(kind, make):
    for i in range(25):
        assert classify(random_in_class(make(), [101, i])).kind == kind


@settings(max_examples=60, deadline=None)
@given(angles, small, small, small)
def test_classify_value_is_conjugation_invariant(th, a, b, c):
    h = sl2_exp(np.array([[a, b], [c, -a]]))
    spec = classify(GroupElement(conj_by(h, rotation(th))))
    assert spec.kind == "elliptic"
    assert abs(spec.value - th) < 1e-9


@settings(max_examples=60, deadline=None)
@given(multipliers, small, small, small)
def test_hyperbolic_value_is_conjugation_invariant(lam, a, b, c):
    h = sl2_exp(np.array([[a, b], [c, -a]]))
    spec = classify(GroupElement(conj_by(h, np.diag([lam, 1.0 / lam]))))
    assert spec.kind == "hyperbolic"
    assert abs(spec.value - lam) < 1e-8 * lam


# ---------------------------------------------------------------------------
# group element hygiene


def test_positive_scale_is_normalized_away():
    g = GroupElement(3.0 * np.eye(2))
    assert np.allclose(g.m, np.eye(2))


def test_nonpositive_determinant_rejected():
    with pytest.raises(NonUnimodular):
        GroupElement(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NonUnimodular):
        GroupElement(np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_psl_dist_is_sign_blind():
    g = GroupElement.rotation(0.4)
    assert psl_dist(g.m, -g.m) == 0.0
    assert psl_dist(g.m, np.eye(2)) > 0.1


def test_inverse_and_matmul():
    g = GroupElement(sl2_exp(random_lie(np.random.default_rng(5), 0.8)))
    assert psl_dist((g @ g.inv()).m, np.eye(2)) < 1e-12


# ---------------------------------------------------------------------------
# exp / log and the cone


def test_sl2_exp_closed_forms():
    th, u = 0.8, 0.5
    j = np.array([[0.0, -th], [th, 0.0]])
    assert np.allclose(sl2_exp(j), rotation(th), atol=1e-15)
    d = np.array([[u, 0.0], [0.0, -u]])
    assert np.allclose(sl2_exp(d), np.diag([np.e ** u, np.e ** -u]))
    nil = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(sl2_exp(nil), np.array([[1.0, 0.0], [1.0, 1.0]]))


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def signed_zero_batch():
    # +-0 off the diagonal, negative and zero traces, tiny and huge entries
    rng = np.random.default_rng(17)
    x = rng.normal(size=(64, 2, 2))
    x[:16, 0, 1] = 0.0
    x[4:12, 0, 1] = -0.0
    x[8:24, 1, 0] = -0.0
    x[24:32] = [[-0.0, -0.0], [-0.0, -0.0]]
    x[32:40] *= 1e-9
    x[40:44] *= 20.0
    d = rng.normal(size=64)
    d[:12] = -np.abs(d[:12])
    d[12:20] = 0.0
    d[20:28] = -0.0
    return x, d


def test_sub_identity_matches_broadcast_identity():
    x, d = signed_zero_batch()
    want = x - d[..., None, None] * np.eye(2)
    assert_bits_equal(sub_identity(x, d), want)
    # in place, on a batch with two leading axes, and for one matrix
    y = x.reshape(8, 8, 2, 2).copy()
    assert sub_identity(y, d.reshape(8, 8), out=y) is y
    assert_bits_equal(y, want.reshape(8, 8, 2, 2))
    assert_bits_equal(sub_identity(x[3], d[3]), want[3])
    # the trace projection the connection constructors make
    tr = x[..., 0, 0] + x[..., 1, 1]
    assert_bits_equal(sub_identity(x, 0.5 * tr),
                      x - 0.5 * tr[..., None, None] * np.eye(2))


def test_sl2_exp_matches_broadcast_assembly():
    x, _ = signed_zero_batch()
    x[..., 1, 1] = -x[..., 0, 0]
    for scale in (1.0, 4.0, 1e-5):  # both branches of C and S, and the series
        xs = scale * x
        q = xs[..., 0, 0] * xs[..., 1, 1] - xs[..., 0, 1] * xs[..., 1, 0]
        c, s = _cs_funcs(q)
        want = c[..., None, None] * np.eye(2) + s[..., None, None] * xs
        assert_bits_equal(sl2_exp(xs), want)
        assert_bits_equal(sl2_exp(xs[5]), want[5])


# batches that one branch of C and S takes whole (cos, cosh, the series,
# which holds both signed zeros), and one that mixes all three
CS_BATCHES = {
    "pos": np.geomspace(1e-8, 40.0, 37),
    "neg": -np.geomspace(1e-8, 40.0, 37),
    "small": np.array([0.0, -0.0, 1e-300, -1e-300, 3e-9, -3e-9,
                       np.nextafter(1e-8, 0.0), -np.nextafter(1e-8, 0.0)]),
}
CS_BATCHES["mixed"] = np.concatenate(list(CS_BATCHES.values()))[::-1]


@pytest.mark.parametrize("name", list(CS_BATCHES))
def test_cs_funcs_batch_matches_per_entry_calls(name):
    q = CS_BATCHES[name]
    c, s = _cs_funcs(q)
    for k, qk in enumerate(q):
        ck, sk = _cs_funcs(qk)
        assert ck.shape == sk.shape == ()
        assert_bits_equal(c[k], ck)
        assert_bits_equal(s[k], sk)
    # a two-axis batch gives the same bits
    c2, s2 = _cs_funcs(q.reshape(-1, 1) * np.ones(2))
    assert_bits_equal(c2[:, 1], c)
    assert_bits_equal(s2[:, 0], s)


def test_rotation_stacks_match_single_angles():
    th = np.linspace(-7.0, 7.0, 29).reshape(29, 1) + np.array([0.0, -0.0, 1e-9])
    stack = rotation(th)
    assert stack.shape == (29, 3, 2, 2)
    for idx in np.ndindex(th.shape):
        c, s = np.cos(th[idx]), np.sin(th[idx])
        assert_bits_equal(stack[idx], np.array([[c, -s], [s, c]]))
    assert rotation(0.3).shape == (2, 2)


@settings(max_examples=80, deadline=None)
@given(small, small, small)
def test_exp_log_round_trip(a, b, c):
    x = np.array([[a, b], [c, -a]])
    y = sl2_log(sl2_exp(x))
    assert np.abs(y - x).max() < 1e-10
    assert y[0, 0] + y[1, 1] == 0.0  # exactly traceless by construction


def test_cone_coords_round_trip():
    x = LieElement.from_cone_coords(0.4, 0.1, -0.2)
    assert abs(x.alpha - 0.4) < 1e-15
    assert abs(x.delta - 0.1) < 1e-15
    assert abs(x.eps + 0.2) < 1e-15
    assert abs(x.cone_margin() - (0.4 - np.hypot(0.1, 0.2))) < 1e-15


def test_cone_test_pinned_kinds():
    assert cone_test(LieElement.from_cone_coords(1.0, 0.0, 0.0)) == "positive"
    assert cone_test(LieElement.from_cone_coords(1.0, 1.0, 0.0)) == "nonneg_boundary"
    assert cone_test(LieElement.from_cone_coords(-1.0, 0.5, 0.0)) == "negative"
    assert cone_test(LieElement.from_cone_coords(0.0, 1.0, 0.0)) == "indefinite"
    assert cone_test(LieElement.from_cone_coords(0.0, 0.0, 0.0)) == "zero"


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 1.0), st.floats(0.0, 0.8), st.floats(0.0, 2 * np.pi),
       small, small, small)
def test_cone_class_is_ad_invariant(alpha, frac, phi, a, b, c):
    rad = alpha * frac
    x = LieElement.from_cone_coords(alpha, rad * np.cos(phi), rad * np.sin(phi))
    h = sl2_exp(np.array([[a, b], [c, -a]]))
    kind = cone_test(LieElement(conj_by(h, x.x)), tol=1e-9)
    # strictly interior elements stay strictly interior under Ad
    assert kind == "positive"


def test_cone_margins_matches_elementwise():
    rng = np.random.default_rng(11)
    xs = np.stack([random_lie(rng, 0.7) for _ in range(40)])
    batch = cone_margins(xs)
    single = np.array([LieElement(x).cone_margin() for x in xs])
    assert np.abs(batch - single).max() == 0.0


def test_cone_defects_pinned():
    xs = np.stack([LieElement.from_cone_coords(*c).x for c in [
        (1.0, 0.0, 0.0),    # J: interior
        (0.5, 0.5, 0.0),    # nonnegative parabolic: on the boundary
        (0.0, 0.0, 0.0),    # zero: in both closed cones
        (-0.5, 0.5, 0.0),   # nonpositive parabolic: det 0, alpha -0.5
        (-1.0, 0.0, 0.0),   # -J
        (0.0, 1.0, 0.0),    # hyperbolic: det -1
        (-3e-5, 0.0, 0.0),  # slow backward rotation: det 9e-10, alpha -3e-5
    ]])
    assert cone_defects(xs).tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 3e-5]
    assert cone_defects(-xs).tolist() == [1.0, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0]


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(1.0, 1e3), st.floats(0.0, np.pi), st.floats(0.0, np.pi))
def test_cone_decision_is_conjugation_invariant(alpha, delta, eps, c, a, b):
    # det x = alpha^2 - delta^2 - eps^2 decides, and conjugation keeps it;
    # off the boundary |alpha| >= sqrt(det), so the alpha sign is kept too.
    # Cases within rounding of the boundary after a conjugator with
    # entries up to 1e3 are left out; the small cocycles this drops are
    # pinned in test_cone_defects_pinned
    x = LieElement.from_cone_coords(alpha, delta, eps).x
    assume(abs(alpha ** 2 - delta ** 2 - eps ** 2) > 1e-2)
    h = rotation(a) @ np.diag([c, 1.0 / c]) @ rotation(b)
    both = np.stack([x, conj_by(h, x)])
    for side in (both, -both):
        inside = cone_defects(side) <= PATH_CONE_SLACK
        assert inside[0] == inside[1] == (cone_margins(side[0]) >= 0.0)

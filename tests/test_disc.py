"""The unit-disc model: Cayley transfer, Hamiltonians, closed bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2rotor import disc as dsc
from sl2rotor.core import GroupElement, LieElement, psl_dist, random_lie, sl2_exp
from sl2rotor.paths import two_elliptic_trace

small = st.floats(-0.6, 0.6)
points = st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                            allow_infinity=False)


def random_iso(seed: int) -> dsc.DiscIsometry:
    g = GroupElement(sl2_exp(random_lie(np.random.default_rng(seed), 0.8)))
    return dsc.cayley(g)


# ---------------------------------------------------------------------------
# the Cayley transfer


@settings(max_examples=60, deadline=None)
@given(small, small, small)
def test_cayley_round_trip(a, b, c):
    g = GroupElement(sl2_exp(np.array([[a, b], [c, -a]])))
    assert psl_dist(dsc.cayley_inv(dsc.cayley(g)).m, g.m) < 1e-12


@settings(max_examples=60, deadline=None)
@given(small, small, small)
def test_cayley_lie_round_trip_and_margin(a, b, c):
    x = LieElement(np.array([[a, b], [c, -a]]))
    d = dsc.cayley_lie(x)
    back = dsc.cayley_inv_lie(d)
    assert np.abs(back.x - x.x).max() < 1e-12
    assert abs(d.cone_margin() - x.cone_margin()) < 1e-12


def test_cayley_inverses_take_batches():
    m = np.stack([np.eye(2), np.diag([2.0, 0.5]),
                  sl2_exp(random_lie(np.random.default_rng(4), 0.8))])
    back = dsc.cayley_inv(dsc.cayley(m))
    assert back.shape == (3, 2, 2)
    assert np.abs(back - m).max() < 1e-14
    assert np.array_equal(back[:2], m[:2])
    # the 0-d case is a GroupElement, rescaled to determinant 1
    one = dsc.cayley_inv(dsc.cayley(m[2]))
    assert isinstance(one, GroupElement)
    assert np.abs(one.m - back[2]).max() < 1e-15
    x = np.stack([random_lie(np.random.default_rng(k), 0.6) for k in range(3)])
    xb = dsc.cayley_inv_lie(dsc.cayley_lie(x))
    assert xb.shape == (3, 2, 2)
    assert np.abs(xb - x).max() < 1e-14
    one = dsc.cayley_inv_lie(dsc.cayley_lie(x[1]))
    assert isinstance(one, LieElement) and np.array_equal(one.x, xb[1])


def test_disc_cone_margin_formula():
    d = dsc.DiscLieElement(0.5, 0.3 - 0.4j)
    assert d.cone_margin() == 0.5 - 0.5


def test_rotation_acts_by_double_angle():
    iso = dsc.cayley(GroupElement.rotation(0.4))
    w = 0.3 + 0.1j
    assert abs(iso(w) - np.exp(0.8j) * w) < 1e-12


def test_isometry_group_structure():
    iso = random_iso(3)
    other = random_iso(4)
    w = 0.25 - 0.4j
    assert abs((iso @ other)(w) - iso(other(w))) < 1e-12
    assert abs((iso @ iso.inverse())(w) - w) < 1e-12


def test_distances_are_preserved():
    iso = random_iso(9)
    w1, w2 = 0.1 + 0.2j, -0.5 + 0.3j
    assert abs(dsc.dist_hyp(iso(w1), iso(w2)) - dsc.dist_hyp(w1, w2)) < 1e-12


def test_dist_hyp_closed_form_and_domain():
    for r in (0.1, 0.5, 0.9):
        assert abs(dsc.dist_hyp(0.0, r) - np.arctanh(r)) < 1e-15
    with pytest.raises(ValueError):
        dsc.dist_hyp(0.0, 1.0)


# ---------------------------------------------------------------------------
# vector fields, Hamiltonians, flows


def test_vector_field_is_the_action_derivative():
    g = dsc.cayley_lie(LieElement(random_lie(np.random.default_rng(2), 0.6)))
    w = 0.2 + 0.35j
    h = 1e-5
    num = (dsc.disc_exp(g, h)(w) - dsc.disc_exp(g, -h)(w)) / (2 * h)
    assert abs(num - dsc.vector_field(g, w)) < 1e-8


def test_disc_exp_matches_flow():
    g = dsc.cayley_lie(LieElement(random_lie(np.random.default_rng(6), 0.6)))
    w0 = 0.3 - 0.2j
    assert abs(dsc.disc_exp(g)(w0) - dsc.flow(g, w0, 1.0, 512)) < 1e-8


def test_hamiltonian_center_value_and_domain():
    d = dsc.DiscLieElement(0.7, 0.2 + 0.1j)
    assert dsc.hamiltonian(d, 0.0) == 0.35
    with pytest.raises(ValueError):
        dsc.hamiltonian(d, 1.0 + 0.0j)


def test_hamiltonian_nonneg_on_cone_elements():
    rng = np.random.default_rng(13)
    d = dsc.DiscLieElement(0.6, 0.3 * np.exp(0.7j))  # margin 0.3 > 0
    for _ in range(50):
        w = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert dsc.hamiltonian(d, w) >= 0.0


def test_flow_conserves_the_hamiltonian():
    g = dsc.cayley_lie(LieElement(random_lie(np.random.default_rng(8), 0.6)))
    w0 = 0.4 + 0.1j
    w1 = dsc.flow(g, w0, 1.0, 512)
    assert abs(dsc.hamiltonian(g, w1) - dsc.hamiltonian(g, w0)) < 1e-8


def test_bracket_antisymmetry():
    g1 = dsc.DiscLieElement(0.4, 0.2 + 0.5j)
    g2 = dsc.DiscLieElement(-0.1, 0.6 - 0.2j)
    b12, b21 = dsc.disc_bracket(g1, g2), dsc.disc_bracket(g2, g1)
    assert b12.alpha == -b21.alpha
    assert b12.beta == -b21.beta


def test_poisson_defect_vanishes_on_equal_arguments():
    g = dsc.DiscLieElement(0.4, 0.2 + 0.5j)
    assert dsc.poisson_defect(g, g, 0.3 + 0.2j) == 0.0


def test_poisson_defect_is_second_order():
    g1 = dsc.DiscLieElement(0.5, 0.2 - 0.1j)
    g2 = dsc.DiscLieElement(-0.2, 0.4 + 0.3j)
    w = 0.25 + 0.15j
    d1 = abs(dsc.poisson_defect(g1, g2, w, 1e-2))
    d2 = abs(dsc.poisson_defect(g1, g2, w, 5e-3))
    assert d1 > 1e-9  # the truncation term is visible at this step
    assert abs(np.log2(d1 / d2) - 2.0) < 0.2


# ---------------------------------------------------------------------------
# closed bounds


def test_hyp_cylinder_max_length_values():
    assert abs(dsc.hyp_cylinder_max_length(np.e) - np.pi / 2.0) <= 1e-12
    assert abs(dsc.hyp_cylinder_max_length(np.e ** 2) - np.pi / 4.0) <= 1e-12
    assert (dsc.hyp_cylinder_max_length(2.0)
            > dsc.hyp_cylinder_max_length(3.0))
    with pytest.raises(ValueError):
        dsc.hyp_cylinder_max_length(1.0)


def test_elliptic_cylinder_radius_bound_values():
    val = dsc.elliptic_cylinder_radius_bound(np.pi / 2.0, np.pi / 2.0)
    assert abs(val - 0.5) <= 1e-12
    # shrinking the boundary angle towards 0 pushes the radius bound up
    assert (dsc.elliptic_cylinder_radius_bound(0.3, np.pi / 2.0) > val)
    with pytest.raises(ValueError):
        dsc.elliptic_cylinder_radius_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        dsc.elliptic_cylinder_radius_bound(1.0, 0.0)


# ---------------------------------------------------------------------------
# inputs that must raise, for a scalar and for a batch with one bad entry

G = dsc.DiscLieElement(0.4, 0.2 + 0.1j)
G2 = dsc.DiscLieElement(-0.1, 0.3 - 0.2j)
REFUSED = {
    "iso_nan": lambda: dsc.DiscIsometry(np.nan, 0),
    "iso_nan_batch": lambda: dsc.DiscIsometry([1.0, np.nan], 0),
    "iso_inf": lambda: dsc.DiscIsometry(np.inf, 0),
    "iso_inf_batch": lambda: dsc.DiscIsometry([1.0, np.inf], [0.0, 0.0]),
    "iso_call_nan": lambda: dsc.DiscIsometry(1.0, 0.0)(np.nan),
    "iso_call_outside_batch": lambda: dsc.DiscIsometry(1.0, 0.0)([0.1, 2.0]),
    "hyp_length_nan": lambda: dsc.hyp_cylinder_max_length(np.nan),
    "radius_bound_nan_modulus": lambda: dsc.elliptic_cylinder_radius_bound(
        1.0, np.nan),
    "hamiltonian_nan": lambda: dsc.hamiltonian(G, np.nan),
    "hamiltonian_nan_batch": lambda: dsc.hamiltonian(G, [0.1, np.nan]),
    "dist_nan": lambda: dsc.dist_hyp(np.nan, 0),
    "dist_nan_batch": lambda: dsc.dist_hyp([0.1, np.nan], 0),
    "two_elliptic_nan": lambda: two_elliptic_trace(1, 1, np.nan),
    "two_elliptic_nan_batch": lambda: two_elliptic_trace(1, 1, [0.2, np.nan]),
    "flow_negative_steps": lambda: dsc.flow(G, 0.1, 1.0, -3),
    "flow_negative_steps_batch": lambda: dsc.flow(G, [0.1, 0.2], 1.0, -3),
    "flow_zero_steps": lambda: dsc.flow(G, 0.1, 1.0, 0),
    "flow_zero_steps_batch": lambda: dsc.flow(G, [0.1, 0.2], 1.0, 0),
    "poisson_zero_h": lambda: dsc.poisson_defect(G, G2, 0.1, h=0.0),
    "poisson_zero_h_batch": lambda: dsc.poisson_defect(G, G2, [0.1, 0.2],
                                                       h=[1e-3, 0.0]),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_bad_disc_inputs_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# a batch call equals the list of its scalar calls

# numpy's scalar arithmetic rounds without the fused multiply-adds of its
# array loops, so an entry may differ from its scalar call in the last bits
ULPS = 64 * np.finfo(float).eps
OUTSIDE = 1.5
elements = st.tuples(st.floats(-1.0, 1.0),
                     st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                        allow_infinity=False))
batches = st.lists(st.tuples(elements, elements, points), min_size=1,
                   max_size=5)
ONE = [((0.3, 0.2j), (-0.1, 0.4 + 0.1j), 0.25 - 0.1j)]


def _split(cases):
    """Batch elements g1, g2 and points w of [(e1, e2, w), ...], with the
    scalar elements of each entry."""
    def batch(es):
        alpha, beta = zip(*es)
        return dsc.DiscLieElement(np.array(alpha), np.array(beta, dtype=complex))

    e1, e2, w = zip(*cases)
    scalars = [(dsc.DiscLieElement(*a), dsc.DiscLieElement(*b), p)
               for a, b, p in cases]
    return batch(e1), batch(e2), np.array(w, dtype=complex), scalars


def _outside(w):
    return np.append(w[1:], OUTSIDE)


def assert_batch(batch, scalars):
    assert np.shape(batch) == np.shape(scalars)
    np.testing.assert_allclose(batch, scalars, rtol=ULPS, atol=ULPS)


@settings(max_examples=40, deadline=None)
@given(batches)
@example(ONE)
def test_vector_field_batch(cases):
    g, _, w, scalars = _split(cases)
    assert_batch(dsc.vector_field(g, w),
                 [dsc.vector_field(a, p) for a, _, p in scalars])
    with pytest.raises(ValueError):
        dsc.vector_field(g, _outside(w))


@settings(max_examples=40, deadline=None)
@given(batches)
@example(ONE)
def test_hamiltonian_batch(cases):
    g, _, w, scalars = _split(cases)
    assert_batch(dsc.hamiltonian(g, w),
                 [dsc.hamiltonian(a, p) for a, _, p in scalars])
    with pytest.raises(ValueError):
        dsc.hamiltonian(g, _outside(w))


@settings(max_examples=20, deadline=None)
@given(batches)
@example(ONE)
def test_flow_batch(cases):
    g, _, w, scalars = _split(cases)
    assert_batch(dsc.flow(g, w, 0.7, 32),
                 [dsc.flow(a, p, 0.7, 32) for a, _, p in scalars])
    with pytest.raises(ValueError):
        dsc.flow(g, _outside(w), 0.7, 32)


@settings(max_examples=40, deadline=None)
@given(batches)
@example(ONE)
def test_poisson_defect_batch(cases):
    g1, g2, w, scalars = _split(cases)
    assert_batch(dsc.poisson_defect(g1, g2, w),
                 [dsc.poisson_defect(a, b, p) for a, b, p in scalars])
    with pytest.raises(ValueError):
        dsc.poisson_defect(g1, g2, _outside(w))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(points, points), min_size=1, max_size=5))
@example([(0.1 + 0.2j, -0.5 + 0.3j)])
def test_dist_hyp_batch(pairs):
    w1, w2 = (np.array(v, dtype=complex) for v in zip(*pairs))
    assert_batch(dsc.dist_hyp(w1, w2), [dsc.dist_hyp(a, b) for a, b in pairs])
    with pytest.raises(ValueError):
        dsc.dist_hyp(w1, _outside(w2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(small, small, small), min_size=1, max_size=5))
@example([(0.1, -0.3, 0.2)])
def test_cayley_batch(abcs):
    gs = [GroupElement(sl2_exp(np.array([[a, b], [c, -a]]))) for a, b, c in abcs]
    iso = dsc.cayley(np.array([g.m for g in gs]))
    assert_batch(iso.a, [dsc.cayley(g).a for g in gs])
    assert_batch(iso.b, [dsc.cayley(g).b for g in gs])
    flipped = np.array([g.m for g in gs[1:]] + [np.diag([1.0, -1.0])])
    with pytest.raises(ValueError):  # det -1: no disc isometry
        dsc.cayley(flipped)

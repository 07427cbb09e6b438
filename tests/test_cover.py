"""Universal cover lifts, rotation numbers, and the parity representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2rotor import connections as cx
from sl2rotor import cover
from sl2rotor.core import (
    GroupElement,
    mat_inv,
    psl_dist,
    random_lie,
    rotation,
    sl2_exp,
)
from sl2rotor.paths import geodesic_refine

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def mixed_lift(seed: int) -> cover.LiftedElement:
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        base = rotation(float(rng.uniform(0.1, np.pi - 0.1)))
    elif kind == 1:
        lam = float(np.exp(rng.uniform(0.2, 1.2)))
        base = np.diag([lam, 1.0 / lam])
    else:
        base = sl2_exp(random_lie(rng, 0.7))
    h = sl2_exp(random_lie(rng, 0.5))
    g = GroupElement(h @ base @ mat_inv(h))
    return cover.deck(cover.lift_of(g), int(rng.integers(-2, 3)))


# ---------------------------------------------------------------------------
# rot on pinned inputs


def test_rot_of_rotation_lift():
    for th in (0.2, 1.0, np.pi / 2, 2.9):
        r = cover.rot(cover.lift_of(GroupElement.rotation(th)))
        assert abs(r - th / np.pi) < 1e-12


def test_rot_is_integer_off_elliptic():
    hyp = cover.rot(cover.lift_of(GroupElement.diagonal(2.0)))
    par = cover.rot(cover.lift_of(GroupElement(np.array([[1.0, 0], [1, 1]]))))
    assert hyp == 0.0
    assert par == 0.0


def test_deck_shifts_rot_exactly():
    for seed in range(12):
        l = mixed_lift(seed)
        r = cover.rot(l)
        for n in (-2, -1, 1, 3):
            shifted = cover.rot(cover.deck(l, n))
            if r == round(r):
                assert shifted == r + n  # integer rots shift exactly
            else:
                # band + fraction re-rounds at the new band: one ulp of slack
                assert abs(shifted - (r + n)) < 1e-12


def test_anchor_validation():
    g = GroupElement.rotation(0.5)
    with pytest.raises(ValueError):
        cover.LiftedElement(g, 0.5 + 0.3)  # not a lift of the image angle


# ---------------------------------------------------------------------------
# the group structure upstairs


def test_compose_with_inverse_is_identity_lift():
    for seed in range(12):
        l = mixed_lift(seed)
        li = cover.inverse(l)
        prod = cover.compose(l, li)
        assert psl_dist(prod.g.m, np.eye(2)) < 1e-9
        assert cover.rot(prod) == 0.0
        assert abs(cover.rot(li) + cover.rot(l)) < 1e-12


def test_compose_is_associative():
    for seed in range(8):
        a, b, c = mixed_lift(seed), mixed_lift(seed + 50), mixed_lift(seed + 100)
        left = cover.compose(cover.compose(a, b), c)
        right = cover.compose(a, cover.compose(b, c))
        assert psl_dist(left.g.m, right.g.m) < 1e-9
        assert abs(left.anchor - right.anchor) < 1e-9


def test_eval_lift_equivariance():
    for seed in range(8):
        l = mixed_lift(seed)
        for x in (-1.3, 0.4, 2.0):
            assert abs(cover.eval_lift(l, x + np.pi)
                       - cover.eval_lift(l, x) - np.pi) < 1e-9


def test_rot_against_iterative_definition():
    # the Birkhoff average f^k(0)/(k pi) must agree to within 3/k
    k = 64
    for seed in range(30):
        l = mixed_lift(seed)
        assert abs(cover.rot(l) - cover.rot_iterative(l, k)) <= 3.0 / k


# ---------------------------------------------------------------------------
# one-parameter lifts


def test_one_param_lift_of_rotations():
    assert abs(cover.rot(cover.one_param_lift(1.5 * np.pi * J)) - 1.5) < 1e-9
    assert abs(cover.rot(cover.one_param_lift(0.4 * np.pi * J)) - 0.4) < 1e-9


def test_one_param_lift_off_elliptic_is_zero_rot():
    gamma = np.array([[0.3, 0.1], [0.2, -0.3]])  # hyperbolic direction
    assert cover.rot(cover.one_param_lift(gamma)) == 0.0


def test_one_param_lift_is_a_homomorphism_in_t():
    gamma = np.array([[0.2, -1.1], [1.4, -0.2]])
    lab = cover.one_param_lift(gamma, 0.7 + 0.9)
    split = cover.compose(cover.one_param_lift(gamma, 0.7),
                          cover.one_param_lift(gamma, 0.9))
    assert psl_dist(lab.g.m, split.g.m) < 1e-9
    assert abs(lab.anchor - split.anchor) < 1e-9


# ---------------------------------------------------------------------------
# parity representation


def test_sl2_rep_undefined_on_half_bands():
    with pytest.raises(cover.ParityUndefined):
        cover.sl2_rep(cover.lift_of(GroupElement.rotation(np.pi / 2)))


def test_sl2_rep_projects_and_respects_deck():
    for seed in range(10):
        l = mixed_lift(seed)
        try:
            s = cover.sl2_rep(l)
        except cover.ParityUndefined:
            continue
        assert min(np.abs(s - l.g.m).max(), np.abs(s + l.g.m).max()) < 1e-12
        assert np.abs(cover.sl2_rep(cover.deck(l, 1)) + s).max() < 1e-12


def test_sl2_rep_is_multiplicative():
    for seed in range(10):
        l1, l2 = mixed_lift(seed), mixed_lift(seed + 31)
        try:
            s1, s2 = cover.sl2_rep(l1), cover.sl2_rep(l2)
            s12 = cover.sl2_rep(cover.compose(l1, l2))
        except cover.ParityUndefined:
            continue
        assert np.abs(s12 - s1 @ s2).max() < 1e-9


# ---------------------------------------------------------------------------
# path tracking


def test_track_lift_along_rotation_sweep():
    thetas = np.linspace(0.0, 2.5 * np.pi, 400)
    nodes = np.stack([rotation(t) for t in thetas])
    end = cover.track_lift_along(nodes)
    assert abs(cover.rot(end) - 2.5) < 1e-9
    tracked, gain = cover.rot_along(nodes)
    assert abs(gain - 2.5) < 1e-9
    assert tracked.anchor == end.anchor
    assert np.array_equal(tracked.g.m, end.g.m)


# the lifters as they were before the exact step rule: line angles walked
# in steps small enough for the nearest-mod-pi wrap; each is kept as an
# independent reference


def track_reference(nodes):
    """track_lift_along at x0 = 0, walking eval_lift at both ends."""
    a = cover._angles_along(nodes, np.zeros(len(nodes)))
    start = cover.lift_of(GroupElement(nodes[0]))
    d = np.diff(a)
    val = (cover.eval_lift(start, 0.0)
           + float(np.sum((d + np.pi / 2) % np.pi - np.pi / 2)))
    end_std = cover.lift_of(GroupElement(nodes[-1]))
    n = round((val - cover.eval_lift(end_std, 0.0)) / np.pi)
    return start, cover.deck(end_std, n)


def rot_along_reference(nodes):
    """The float-valued rot_along: rot(tracked end) - rot(start)."""
    start, end = track_reference(nodes)
    return cover.rot(end) - cover.rot(start)


def one_param_reference(gamma, t=1.0):
    """The one-parameter sampler: 16 (|gamma| + 1) |t| + 8 steps of s."""
    n = int(np.ceil(16.0 * (np.linalg.norm(gamma) + 1.0) * abs(t))) + 8
    ss = np.linspace(0.0, t, n + 1)
    mats = sl2_exp(ss[:, None, None] * gamma)
    d = np.diff(cover._angles_along(mats, np.zeros(n + 1)))
    anchor = float(np.sum((d + np.pi / 2) % np.pi - np.pi / 2))
    return cover.LiftedElement(GroupElement(mats[-1]), anchor)


def lift_of_products_reference(logs):
    """The products lift with its factors and pieces taken separately."""
    prods = np.empty((len(logs) + 1, 2, 2))
    prods[0] = np.eye(2)
    factors = sl2_exp(logs)
    for j in range(len(logs)):
        prods[j + 1] = factors[j] @ prods[j]
    sub = max(1, int(np.ceil(np.linalg.norm(logs, axis=(1, 2)).max() / 0.1)))
    taus = np.arange(sub) / sub
    fine = np.einsum("ntab,nbc->ntac",
                     sl2_exp(taus[None, :, None, None] * logs[:, None]),
                     prods[:-1])
    return track_reference(
        np.concatenate([fine.reshape(-1, 2, 2), prods[-1:]]))[1]


def assert_same_lift(got, want):
    assert np.array_equal(got.g.m, want.g.m)
    assert got.anchor == want.anchor


SHEAR = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("gamma,t", [
    (1.5 * np.pi * J, 1.0),                      # elliptic, past a half turn
    (0.4 * np.pi * J, -1.0),                     # elliptic, backwards
    (3.7 * np.pi * J + np.diag([0.3, -0.3]), 1.0),  # several turns
    (np.array([[0.2, -1.1], [1.4, -0.2]]), 2.3),  # elliptic, off-axis
    (np.array([[0.3, 0.1], [0.2, -0.3]]), 1.0),  # hyperbolic
    (np.array([[1.2, 0.4], [0.9, -1.2]]), -0.6),  # hyperbolic, backwards
    (2.0 * SHEAR, 1.0),                          # parabolic, both signs
    (-3.0 * SHEAR.T, 1.0),
    (SHEAR.T, -2.5),
])
def test_one_param_lift_matches_the_sampler(gamma, t):
    got = cover.one_param_lift(gamma, t)
    want = one_param_reference(gamma, t)
    assert np.array_equal(got.g.m, want.g.m)
    assert abs(got.anchor - want.anchor) < 1e-9
    assert cover.rot(got) == cover.rot(want)


def test_lift_of_products_matches_the_reference():
    rng = np.random.default_rng(7)
    for size in (5, 16, 64):
        for scale in (0.02, 0.3, 2.5):  # one piece per factor, and many
            logs = scale * np.stack([random_lie(rng) for _ in range(size)])
            assert_same_lift(cover.lift_of_products(logs),
                             lift_of_products_reference(logs))


def test_rot_along_matches_the_float_version():
    rng = np.random.default_rng(11)
    thetas = np.linspace(0.0, 2.5 * np.pi, 400)
    paths = [rotation(thetas), rotation(thetas[::-1] + 0.3)]
    for _ in range(6):
        h = sl2_exp(random_lie(rng, 0.8))
        paths.append(h @ rotation(thetas + rng.uniform(0, np.pi)) @ mat_inv(h))
    lam = np.linspace(1.0, 3.0, 200)
    shears = np.zeros((200, 2, 2))
    shears[:, 0, 0] = shears[:, 1, 1] = -1.0
    shears[:, 1, 0] = np.linspace(-2.0, 2.0, 200)
    paths += [np.stack([np.diag([x, 1.0 / x]) for x in lam]), shears]
    for nodes in paths:
        end, gain = cover.rot_along(nodes)
        assert_same_lift(end, track_reference(nodes)[1])
        assert gain == rot_along_reference(nodes)


def left_products_reference(factors):
    """The sequential recursion that the blocked scan replaced."""
    out = np.empty((len(factors) + 1, 2, 2))
    out[0] = np.eye(2)
    for j, f in enumerate(factors):
        np.matmul(f, out[j], out=out[j + 1])
    return out


def random_factors(rng, n, scale):
    a, b, c = scale * rng.normal(size=(3, n))
    return sl2_exp(np.stack([np.stack([a, b], -1), np.stack([c, -a], -1)], -2))


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129, 4097])
def test_left_products_matches_the_sequential_recursion(n):
    rng = np.random.default_rng(n)
    for scale in (0.05, 0.5):
        factors = random_factors(rng, n, scale)
        got = cover.left_products(factors)
        want = left_products_reference(factors)
        # the first block is the recursion itself, signed zeros included
        head = cover._SCAN_BLOCK + 1
        assert np.array_equal(got[:head], want[:head])
        assert np.array_equal(np.signbit(got[:head]), np.signbit(want[:head]))
        # after it the products are associated differently: rounding only
        err = np.abs(got - want).max(axis=(1, 2))
        assert (err <= 1e-12 * np.abs(want).max(axis=(1, 2))).all()


def test_products_and_lift_share_one_exponential_call(monkeypatch):
    # a loop's transports and its lifted holonomy come from one set of step
    # exponentials
    samples = 30.0 * np.stack([random_lie(np.random.default_rng(i))
                               for i in range(100)])
    loop = cx.LoopConnection(samples)
    logs = cx._step_logs(loop.samples)
    calls = []
    real = cover.sl2_exp
    for mod in (cx, cover):
        monkeypatch.setattr(mod, "sl2_exp",
                            lambda x: calls.append(x.shape) or real(x))
    prods, lift = loop.transports, loop.lifted_holonomy
    assert len(calls) == 1
    # the products are left_products of the full factors, bit for bit
    assert np.array_equal(prods, cover.left_products(real(logs)))
    assert np.array_equal(lift.g.m, GroupElement(prods[-1]).m)
    assert abs(lift.anchor - lift_of_products_reference(logs).anchor) < 1e-9


# ---------------------------------------------------------------------------
# the exact step rule


def conjugated(h, nodes):
    return h @ nodes @ mat_inv(h)


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("step", [0.3, 0.55, 0.9, -0.7])
def test_rot_along_gain_survives_refinement(step, k):
    # steps of up to 0.9 pi, which no line-angle wrap resolves (it reads
    # five 0.55 pi steps as five -0.45 pi steps); GroupPath refuses steps
    # this long, so the node arrays are refined by the geodesic subdivision
    # that GroupPath.refine runs
    nodes = rotation(step * np.pi * np.arange(6))
    h = sl2_exp(random_lie(np.random.default_rng(k), 0.8))
    for path, exact in ((nodes, True), (conjugated(h, nodes), False),
                        (conjugated(np.diag([4.0, 0.25]), nodes), False)):
        _, gain = cover.rot_along(path)
        _, fine = cover.rot_along(geodesic_refine(path, k))
        assert fine == gain
        if exact:
            assert abs(gain - 5 * step) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 9.5), st.sampled_from([-1.0, 1.0]), st.floats(0.0, 4.0),
       st.floats(0.0, np.pi), st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       st.floats(-3.0, 3.0), st.booleans(), st.permutations(range(3)),
       st.integers(2, 8))
def test_lift_of_products_is_split_invariant(theta, sign, log_cond, phi, hyp,
                                             shear, upper, order, k):
    # an elliptic factor of many turns conjugated with condition number up
    # to 1e4, with a hyperbolic and a parabolic one; splitting every factor
    # into k equal steps follows the same path
    s = 10.0 ** (log_cond / 2)
    h = rotation(phi) @ np.diag([s, 1.0 / s])
    ell = sign * theta * conjugated(h, J)
    a, b, c = hyp
    par = shear * (SHEAR if upper else SHEAR.T)
    logs = np.stack([ell, np.array([[a, b], [c, -a]]), par])[list(order)]
    got = cover.lift_of_products(logs)
    split = cover.lift_of_products(np.repeat(logs / k, k, axis=0))
    assert abs(got.anchor - split.anchor) < 1e-6


@pytest.mark.parametrize("c", [300.0, 1e4])
def test_one_param_lift_memory_is_bounded(c, traced_peak):
    # a rotation by 2 conjugated by diag(c, 1/c): log norm 2 c^2
    gamma = 2.0 * conjugated(np.diag([c, 1.0 / c]), J)
    peak, got = traced_peak(lambda: cover.one_param_lift(gamma))
    assert peak < 1 << 20
    split = cover.lift_of_products(np.repeat(gamma[None] / 8, 8, axis=0))
    assert abs(got.anchor - split.anchor) < 1e-9
    # the first column turns by less than a half turn, counterclockwise
    assert np.pi / 2 < got.anchor < np.pi


@pytest.mark.parametrize("end", [-np.eye(2), rotation(np.pi),
                                 -np.diag([2.0, 0.5])])
def test_rot_along_refuses_steps_without_a_principal_log(end):
    nodes = np.stack([rotation(0.2), rotation(0.2) @ end])
    with pytest.raises(ValueError, match="trace"):
        cover.rot_along(nodes)
    with pytest.raises(ValueError, match="step logs"):
        cover.track_lift_along(nodes, np.zeros((2, 2, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(-3, 3))
def test_rot_quasimorphism_bound(seed, n):
    l1 = cover.deck(mixed_lift(seed), n)
    l2 = mixed_lift(seed + 7)
    d = cover.rot(cover.compose(l1, l2)) - cover.rot(l1) - cover.rot(l2)
    assert abs(d) <= 1.0 + 1e-9

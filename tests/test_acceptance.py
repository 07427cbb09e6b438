"""Acceptance criteria, one numbered row each in the summary table.

Tolerances are frozen literals here, independent of RunConfig defaults, so
loosening a default cannot silently weaken a criterion.  Criteria that are
seeded sweeps run through their verification suite and re-assert the bound
on the reported worst value; the sharpened-triple criterion and the closed
bounds are checked directly.
"""

import time

import numpy as np
import pytest

from sl2rotor import cover
from sl2rotor.config import RunConfig
from sl2rotor.core import (
    ConjClassSpec,
    GroupElement,
    classify,
    random_conjugate,
    random_in_class,
    random_lie,
    rotation,
    sl2_exp,
)
from sl2rotor.disc import elliptic_cylinder_radius_bound, hyp_cylinder_max_length
from sl2rotor.paths import three_classes_triple
from sl2rotor.suites import run_suite

CFG = RunConfig()


def _timed_suite(name):
    t0 = time.perf_counter()
    rep = run_suite(name, CFG)
    return rep, time.perf_counter() - t0


def _mixed_lift(rng):
    # same population the quasimorphism sweep draws from: conjugated
    # rotations, conjugated diagonals, exponentials, all with a random deck
    kind = int(rng.integers(0, 3))
    if kind == 0:
        g = random_conjugate(
            rng, rotation(float(rng.uniform(0.05, np.pi - 0.05))), 0.5)
    elif kind == 1:
        lam = float(np.exp(rng.uniform(0.1, 1.0)))
        g = random_conjugate(rng, np.diag([lam, 1.0 / lam]), 0.5)
    else:
        g = GroupElement(sl2_exp(random_lie(rng, 0.6)))
    return cover.deck(cover.lift_of(g), int(rng.integers(-2, 3)))


def _identity_triple_sum(l1, l2):
    """rot sum over (l0, l1, l2) with l0 l1 l2 = 1 in the cover."""
    l0 = cover.inverse(cover.compose(l1, l2))
    return cover.rot(l0) + cover.rot(l1) + cover.rot(l2)


@pytest.mark.acceptance(1, "quasimorphism defect bounded by one")
def test_quasimorphism_sweep():
    rep, elapsed = _timed_suite("quasimorphism")
    assert rep["cases"] == 10_000
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["defect"]["value"] <= 1.0 + 1e-6
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


@pytest.mark.acceptance(2, "lift parity representation")
def test_parity_sweep():
    rep, _ = _timed_suite("parity")
    assert rep["cases"] == 10_000
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["parity"]["satisfied"]


@pytest.mark.acceptance(3, "sharpened triple inequality")
def test_triples_with_elliptic_member():
    min_margin = np.inf
    for i in range(1000):
        rng = np.random.default_rng([CFG.seed, 3001, i])
        th = float(rng.uniform(0.05, np.pi - 0.05))
        g = random_conjugate(rng, rotation(th), 0.5)
        l1 = cover.deck(cover.lift_of(g), int(rng.integers(-2, 3)))
        s = _identity_triple_sum(l1, _mixed_lift(rng))
        min_margin = min(min_margin, 1.0 - abs(s))
    assert min_margin > 0.0, f"strictness margin {min_margin:.3e}"


@pytest.mark.acceptance(3, "sharpened triple inequality")
def test_triples_with_nonneg_parabolic_member():
    worst = -np.inf
    for i in range(1000):
        rng = np.random.default_rng([CFG.seed, 3002, i])
        g = random_in_class(ConjClassSpec.parabolic(True), [CFG.seed, 3003, i])
        l1 = cover.deck(cover.lift_of(g), int(rng.integers(-2, 3)))
        worst = max(worst, _identity_triple_sum(l1, _mixed_lift(rng)))
    assert worst <= 1e-6, f"max rot sum {worst:.3e}"


@pytest.mark.acceptance(4, "three-classes family closed forms")
def test_three_classes_pinned_instance():
    tr = three_classes_triple(2.0, 2.0, 2.0, branch=-1)
    # the free parameter lands in the corner entry as branch * t
    assert tr.g2.m[1, 0] == -4.5
    spec = classify(tr.g0)
    assert spec.kind == "hyperbolic"
    assert abs(spec.value - 2.0) <= 1e-9
    assert tr.defect == -1.0


@pytest.mark.acceptance(4, "three-classes family closed forms")
def test_three_classes_grid():
    rep, _ = _timed_suite("three-classes")
    assert rep["cases"] == 125
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["product_class"]["value"] <= 1e-9
    assert rep["checks"]["t_closed_form"]["value"] == 0.0
    assert rep["checks"]["defect_plus_branch"]["value"] == 0.0


@pytest.mark.acceptance(5, "two-elliptic trace formula")
def test_two_elliptic_sweep():
    rep, _ = _timed_suite("two-elliptic")
    assert rep["cases"] == 1000
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["trace_formula"]["value"] <= 1e-10
    assert rep["checks"]["supremum"]["value"] <= 1e-12


@pytest.mark.acceptance(6, "itinerary paths track their classes")
def test_itinerary_sweep():
    rep, _ = _timed_suite("krein")
    assert rep["config"]["n"] == 1000
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["tracking"]["value"] <= 1e-5
    assert rep["checks"]["cone"]["value"] >= -1e-8
    assert rep["checks"]["monotone"]["satisfied"]
    assert rep["checks"]["plateau"]["satisfied"]


@pytest.mark.acceptance(7, "unit-multiplier path realization")
def test_unit_path_sweep():
    rep, _ = _timed_suite("unit-path")
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["conjugation"]["value"] <= 1e-6
    assert rep["checks"]["trace_identity"]["value"] <= 1e-6
    assert rep["checks"]["ps_positive"]["value"] > 0.0
    assert rep["checks"]["exact_rots"]["value"] == 0.0


@pytest.mark.acceptance(8, "cylinder constructor round-trip")
def test_cylinder_constructor_sweep():
    rep, elapsed = _timed_suite("cylinder-constructor")
    assert rep["config"]["ns"] == 256 and rep["config"]["mt"] == 256
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["round_trip"]["value"] <= 1e-5
    assert rep["checks"]["curvature"]["value"] <= 1e-8
    assert elapsed / rep["cases"] < 30.0


@pytest.mark.acceptance(9, "boundary rot against Euler characteristic")
def test_milnor_wood_sweep():
    rep, _ = _timed_suite("milnor-wood")
    assert rep["cases"] == 3000  # 2000 curved cylinders + 1000 pants
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["cylinder_bound"]["satisfied"]
    assert rep["checks"]["pants_bound"]["satisfied"]


@pytest.mark.acceptance(10, "gauge action and twist shifts")
def test_gauge_shift_sweep():
    rep, _ = _timed_suite("gauge")
    assert rep["cases"] == 100
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["shift"]["value"] == 0.0


@pytest.mark.acceptance(10, "gauge action and twist shifts")
def test_dehn_twist_sweep():
    rep, _ = _timed_suite("dehn-twist")
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["twist"]["value"] == 0.0


@pytest.mark.acceptance(11, "disc model transfer and brackets")
def test_hyperdisc_sweep():
    rep, _ = _timed_suite("hyperdisc")
    assert rep["cases"] == 1150
    assert rep["failures"] == 0, rep["failing_seeds"]
    assert rep["checks"]["cone"]["value"] <= 1e-9
    assert rep["checks"]["hamiltonian_sign"]["value"] >= 0.0
    assert rep["checks"]["poisson"]["value"] <= 1e-5
    assert rep["checks"]["richardson"]["value"] <= 0.2


@pytest.mark.acceptance(12, "closed-form cylinder bounds")
def test_closed_bounds():
    assert abs(hyp_cylinder_max_length(np.e) - np.pi / 2.0) <= 1e-12
    assert abs(elliptic_cylinder_radius_bound(np.pi / 2.0, np.pi / 2.0)
               - 0.5) <= 1e-12

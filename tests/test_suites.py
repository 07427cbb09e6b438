"""Report plumbing for the verification sweeps."""

import json

import numpy as np
import pytest

from sl2rotor import connections as cx, core, suites
from sl2rotor.config import RunConfig
from sl2rotor.serialize import loop_to_obj
from sl2rotor.suites import SUITES, UnknownSuite, run_suite, verify_artifact


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite", RunConfig())


def test_registry_is_complete():
    assert len(SUITES) == 12
    for fn in SUITES.values():
        assert callable(fn)


def test_reports_are_deterministic():
    cfg = RunConfig(seed=99)
    a = json.dumps(run_suite("two-elliptic", cfg), sort_keys=True)
    b = json.dumps(run_suite("two-elliptic", cfg), sort_keys=True)
    assert a == b


def test_report_shape():
    rep = run_suite("three-classes", RunConfig(seed=5))
    assert rep["suite"] == "three-classes"
    assert rep["seed"] == 5
    assert rep["failures"] == len(rep["failing_seeds"])
    for check in rep["checks"].values():
        assert set(check) == {"quantity", "value", "bound", "margin",
                              "convention", "satisfied"}
        assert check["satisfied"] == (check["margin"] >= 0.0)


def test_verify_artifact_claims():
    obj = loop_to_obj(cx.winding_loop(2, np.diag([0.1, -0.1]), 64))
    good = dict(obj, claims={"rot": 2.0})
    assert verify_artifact(good)["passed"] is True
    bad = dict(obj, claims={"rot": 1.0})
    rep = verify_artifact(bad)
    assert rep["passed"] is False
    assert not rep["checks"]["rot"]["satisfied"]


@pytest.mark.parametrize("name", ["krein", "three-classes",
                                  "cylinder-constructor", "gauge",
                                  "dehn-twist"])
def test_tau_class_reaches_every_classify(monkeypatch, name):
    seen = []

    def spy(g, tol=core.TAU_CLASS):
        seen.append(tol)
        return core.classify(g, tol)

    monkeypatch.setattr(suites, "classify", spy)
    monkeypatch.setattr(cx, "classify", spy)
    run_suite(name, RunConfig(tau_class=1e-7))
    assert seen and set(seen) == {1e-7}

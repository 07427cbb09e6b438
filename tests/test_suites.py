"""Report plumbing for the verification sweeps."""

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from sl2rotor import connections as cx, core, suites
from sl2rotor import disc as dsc
from sl2rotor import paths as pth
from sl2rotor.config import RunConfig
from sl2rotor.serialize import dumps_json, loop_to_obj
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
    obj = json.loads(dumps_json(loop_to_obj(cx.winding_loop(
        2, np.diag([0.1, -0.1]), 64))))
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



@pytest.mark.parametrize("name, entry, by, index", [
    ("hamiltonian", 7, -1.0, 1007),     # a cone element's H goes negative
    ("vector_field", 2, -10j, 1002),    # its boundary field turns inward
    ("poisson_defect", 5, 1.0, 1105),   # a pair misses the bracket
    ("flow", 3, 0.1, 1133),             # a flow drifts off its level set
])
def test_hyperdisc_names_failing_cases_in_every_section(monkeypatch, name,
                                                        entry, by, index):
    real = getattr(dsc, name)

    def spoiled(*args):
        out = np.array(real(*args))
        out[entry] += by
        return out

    # the suite sees the spoiled function; the disc module keeps its own
    monkeypatch.setattr(suites, "dsc",
                        SimpleNamespace(**{**vars(dsc), name: spoiled}))
    rep = run_suite("hyperdisc", RunConfig())
    assert rep["passed"] is False
    assert rep["failures"] == 1
    assert rep["failing_seeds"] == [index]


def _rot_plus(by):
    return lambda loop: SimpleNamespace(rot=lambda: loop.rot() + by)


def _reversed(path):
    return pth.GroupPath(path.nodes[::-1])


@pytest.mark.parametrize("suite, module, name, call, spoil, index", [
    # winding covers must hold exactly, so even 1e-7 fails case 7
    ("cover", "cx", "cover", 7, _rot_plus(1e-7), 7),
    ("cover", "cx", "cover", 25, _rot_plus(1.0), 25),
    ("dehn-twist", "cx", "rot_c", 4, lambda v: v + 1.0, 1),   # 3 per case
    ("gauge", "cx", "rot_c", 114, lambda v: v + 1.0, 57),     # 2 per case
    ("unit-path", "pth", "unit_path", 5,
     lambda out: (*out[:2], {**out[2], "k_rot": 1.0}), 5),
    ("krein", "pth", "hyperbolic_itinerary_path", 3, _reversed, 33),
])
def test_loop_suites_name_their_failing_case(monkeypatch, suite, module,
                                             name, call, spoil, index):
    real_module = getattr(suites, module)
    real = getattr(real_module, name)
    calls = itertools.count()

    def spoiled(*args, **kwargs):
        out = real(*args, **kwargs)
        return spoil(out) if next(calls) == call else out

    monkeypatch.setattr(suites, module, SimpleNamespace(
        **{**vars(real_module), name: spoiled}))
    rep = run_suite(suite, RunConfig())
    assert rep["passed"] is False
    assert rep["failures"] == 1
    assert rep["failing_seeds"] == [index]


def test_run_all_suites_compare(tmp_path, monkeypatch, capsys):
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_suites.py"
    main = runpy.run_path(str(script))["main"]

    def run(*argv):
        monkeypatch.setattr("sys.argv", ["run_all_suites.py", *argv])
        code = main()
        return code, capsys.readouterr().out

    only = ["--only", "two-elliptic", "three-classes"]
    assert run(*only, "--out", str(tmp_path))[0] == 0
    code, out = run(*only, "--compare", str(tmp_path))
    assert code == 0 and "0 of 2 reports differ" in out
    ref = tmp_path / "three-classes.json"
    ref.write_text(ref.read_text().replace('"passed": true', '"passed": false'))
    (tmp_path / "two-elliptic.json").unlink()
    code, out = run(*only, "--compare", str(tmp_path))
    assert code == 2
    assert "2 of 2 reports differ" in out and "two-elliptic three-classes" in out


def test_run_all_suites_names_failing_cases(monkeypatch, capsys):
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_suites.py"
    main = runpy.run_path(str(script))["main"]
    monkeypatch.setitem(SUITES, "two-elliptic", lambda cfg: suites._report(
        "two-elliptic", cfg, {"x": suites._check("x", 0.0, 1.0)},
        np.arange(40) % 3 == 1))
    monkeypatch.setattr("sys.argv", ["run_all_suites.py", "--only",
                                     "two-elliptic"])
    assert main() == 1
    out = capsys.readouterr().out
    assert "failures=13" in out
    assert ("failing_seeds: [1, 4, 7, 10, 13, 16, 19, 22, 25, 28] (first 10)"
            in out)


def test_compare_lists_each_differing_field(tmp_path):
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_suites.py"
    describe = runpy.run_path(str(script))["describe_diffs"]
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    old_dir.mkdir()
    new_dir.mkdir()
    old = {"suite": "krein", "cases": 50, "passed": True, "failing_seeds": [],
           "checks": {"tracking": {"value": 1.5e-10, "bound": 1e-5,
                                   "quantity": "max |recovered|",
                                   "satisfied": True}},
           "config": {"n": 1000, "tau_class": 1e-9}}
    new = json.loads(json.dumps(old))
    new["checks"]["tracking"]["value"] = 2.5e-14   # a float moves
    new["cases"] = 49                               # an int moves
    new["checks"]["tracking"]["satisfied"] = False  # a bool moves
    new["checks"]["tracking"]["quantity"] = "other"  # a str moves
    new["failing_seeds"] = [3]                      # a list grows
    del new["config"]["n"]                          # a field goes
    (old_dir / "krein.json").write_text(json.dumps(old, sort_keys=True, indent=1))
    (new_dir / "krein.json").write_text(json.dumps(new, sort_keys=True, indent=1))
    (old_dir / "cover.json").write_text(json.dumps(old, sort_keys=True, indent=1))
    (new_dir / "cover.json").write_text(json.dumps(old, sort_keys=True, indent=1))

    same, flagged = describe(json.loads((old_dir / "cover.json").read_text()),
                             json.loads((new_dir / "cover.json").read_text()))
    assert same == [] and flagged == 0
    lines, flagged = describe(json.loads((old_dir / "krein.json").read_text()),
                              json.loads((new_dir / "krein.json").read_text()))
    assert flagged == 5
    assert [line.split(":")[0].strip() for line in lines] == [
        "! cases", "! checks.tracking.quantity", "! checks.tracking.satisfied",
        "checks.tracking.value", "! config.n", "! failing_seeds"]
    assert lines[3].strip() == ("checks.tracking.value: 1.5e-10 -> 2.5e-14  "
                                "|d| = 1.5e-10")
    assert lines[1].startswith("    ! ") and "(str -> str)" in lines[1]
    assert "(int -> NoneType)" in lines[4]


def test_bochner_sweep_smoke(tmp_path, monkeypatch, capsys):
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "bochner_sweep.py"
    main = runpy.run_path(str(script))["main"]
    csv = tmp_path / "margins.csv"
    monkeypatch.setattr("sys.argv", ["bochner_sweep.py", "--count", "3",
                                     "--csv", str(csv)])
    assert main() == 0
    out = capsys.readouterr().out
    assert "cylinders: n=3 violations=0" in out and "pants: n=3 violations=0" in out
    lines = csv.read_text().splitlines()
    # the sweep reads the suite's own instances
    assert lines[0] == "kind,seed,value,bound,margin"
    assert lines[1:] == [f"{kind},{i},{rep['value']!r},{rep['bound']!r},"
                         f"{rep['margin']!r}"
                         for kind, i, rep
                         in suites.milnor_wood_cases(RunConfig(), 3, 3)]

"""Artifact JSON round-trips and literal parsing."""

import json

import numpy as np
import pytest

from sl2rotor import connections as cx
from sl2rotor.paths import spiral_path
from sl2rotor.serialize import (
    ParseError,
    cylinder_to_obj,
    dump_json,
    load_artifact,
    load_obj,
    loop_to_obj,
    obj_to_artifact,
    parse_matrix_literal,
    path_to_obj,
    report_csv,
)


def test_path_round_trip(tmp_path):
    p = spiral_path(2, np.diag([0.07, -0.07]), n=40)
    f = tmp_path / "p.json"
    dump_json(path_to_obj(p), f)
    back = load_artifact(str(f))
    # the payload is exact; reconstruction renormalizes determinants and
    # may dither the last ulp once, after which it is a fixed point
    assert np.abs(back.nodes - p.nodes).max() < 5e-16
    f2 = tmp_path / "p2.json"
    dump_json(path_to_obj(back), f2)
    again = load_artifact(str(f2))
    assert np.array_equal(again.nodes, back.nodes)


def test_loop_round_trip_is_bit_exact(tmp_path):
    a = cx.winding_loop(1, np.diag([0.1, -0.1]), 48)
    f = tmp_path / "a.json"
    dump_json(loop_to_obj(a), f)
    assert np.array_equal(load_artifact(str(f)).samples, a.samples)


def test_cylinder_round_trip_keeps_frame(tmp_path):
    conn = cx.pullback_flat(cx.winding_loop(1, np.diag([0.1, -0.1]), 64), 24)
    tw = cx.dehn_twist(conn)  # twisting records an s-dependent frame
    f = tmp_path / "c.json"
    obj = cylinder_to_obj(tw)
    assert obj["periodic"] is True
    dump_json(obj, f)
    back = load_artifact(str(f))
    assert np.array_equal(back.grid, tw.grid)
    assert tw.s_frame is not None
    assert np.array_equal(back.s_frame, tw.s_frame)


def test_dump_json_is_deterministic(tmp_path):
    obj = loop_to_obj(cx.constant_loop(np.diag([0.2, -0.2]), 16))
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(obj, f1)
    dump_json(obj, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_obj_to_artifact_rejects_garbage():
    with pytest.raises(ParseError):
        obj_to_artifact({"no": "kind"})
    with pytest.raises(ParseError):
        obj_to_artifact({"kind": "mystery"})
    with pytest.raises(ParseError):
        obj_to_artifact({"kind": "group-path", "n": 3, "data": ["zz"]})
    with pytest.raises(ParseError):
        obj_to_artifact({"kind": "loop-connection", "m": 9,
                         "data": [float(1.0).hex()] * 4})


def test_load_obj_errors(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{ not json")
    with pytest.raises(ParseError):
        load_obj(str(f))
    f.write_text("[1, 2, 3]\n")
    with pytest.raises(ParseError):
        load_obj(str(f))


def test_parse_matrix_literal():
    m = parse_matrix_literal("[[2, 0], [0, 0.5]]")
    assert np.array_equal(m, np.array([[2.0, 0.0], [0.0, 0.5]]))
    for bad in ("[[1, 2], [3]]", "[1, 2, 3, 4]", "nonsense",
                '[["a", 1], [2, 3]]', "[[1, 2], [3, NaN]]"):
        with pytest.raises(ParseError):
            parse_matrix_literal(bad)


def test_report_csv_flattens_with_dotted_keys():
    text = report_csv({"suite": "demo", "checks": {"x": {"value": 1.5}},
                       "seeds": [4, 5]})
    lines = dict(line.split(",", 1) for line in text.strip().split("\n"))
    assert lines["checks.x.value"] == "1.5"
    assert lines["seeds[0]"] == "4"
    assert lines["suite"] == "'demo'"


def test_hex_floats_survive_json_text(tmp_path):
    # the payload must stay exact through an actual text round trip
    vals = np.array([[[np.pi, np.e], [1.0 / 3.0, -np.pi]],
                     [[-0.0, 1e-300], [2.0 ** 53, 0.0]],
                     [[0.1, -7.25], [0.3, -0.1]],
                     [[1e-8, 4.0], [-4.0, -1e-8]]])
    obj = {"kind": "loop-connection", "m": 4, "data":
           [float(v).hex() for v in vals.ravel()]}
    f = tmp_path / "x.json"
    dump_json(obj, f)
    parsed = json.loads(f.read_text())
    back = obj_to_artifact(parsed)
    assert np.array_equal(back.samples, vals)

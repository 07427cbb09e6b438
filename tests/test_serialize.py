"""Artifact JSON round-trips and literal parsing."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2rotor import connections as cx
from sl2rotor import serialize
from sl2rotor.paths import spiral_path
from sl2rotor.serialize import (
    ParseError,
    _decode,
    cylinder_to_obj,
    dump_json,
    dumps_json,
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
    back = obj_to_artifact(load_obj(str(f)))
    # the payload is exact; reconstruction renormalizes determinants and
    # may dither the last ulp once, after which it is a fixed point
    assert np.abs(back.nodes - p.nodes).max() < 5e-16
    f2 = tmp_path / "p2.json"
    dump_json(path_to_obj(back), f2)
    again = obj_to_artifact(load_obj(str(f2)))
    assert np.array_equal(again.nodes, back.nodes)


def test_loop_round_trip_is_bit_exact(tmp_path):
    a = cx.winding_loop(1, np.diag([0.1, -0.1]), 48)
    f = tmp_path / "a.json"
    dump_json(loop_to_obj(a), f)
    back = obj_to_artifact(load_obj(str(f)))
    assert np.array_equal(back.samples, a.samples)


def test_cylinder_round_trip_keeps_frame(tmp_path):
    conn = cx.pullback_flat(cx.winding_loop(1, np.diag([0.1, -0.1]), 64), 24)
    tw = cx.dehn_twist(conn)  # twisting records an s-dependent frame
    f = tmp_path / "c.json"
    obj = cylinder_to_obj(tw)
    assert obj["periodic"] is True
    dump_json(obj, f)
    back = obj_to_artifact(load_obj(str(f)))
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


# ---------------------------------------------------------------------------
# the hex payload writer and the direct JSON writer against the stdlib

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
            2.2250738585072014e-308, -2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0,
            0.5, 2.0 ** -1074 * 12345, 1e-320, 2.0 ** 1023, np.pi]


def float_hex(values) -> list[str]:
    return [float.hex(float(v)) for v in np.asarray(values).ravel()]


def hex_text(values) -> str:
    """The stdlib text of a payload: the list of float.hex strings."""
    return json.dumps({"d": float_hex(values)}, sort_keys=True,
                      indent=1) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=300),
       st.lists(st.sampled_from(EXTREMES), max_size=20))
def test_encode_matches_float_hex(patterns, extremes):
    vals = np.array(patterns, dtype=np.uint64).view(float)
    vals = np.concatenate([vals[np.isfinite(vals)], extremes])
    assert dumps_json({"d": vals}) == hex_text(vals)


def every_exponent():
    """One value per biased exponent 0..2046, both signs, plus zeros."""
    bits = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    vals = (bits | np.uint64(0x000F00000000000A)).view(float)
    return np.concatenate([vals, -vals, [0.0, -0.0]])


def test_encode_covers_every_exponent_and_keeps_shape_order():
    vals = every_exponent()
    assert dumps_json({"d": vals}) == hex_text(vals)
    grid = vals[:24].reshape(2, 3, 2, 2)
    assert dumps_json({"d": grid}) == hex_text(grid)
    assert dumps_json({"d": np.zeros((0, 2, 2))}) == hex_text([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        dumps_json({"d": np.array([1.0, bad, 2.0])})


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_payload_chunks_join_seamlessly(monkeypatch, chunk):
    # chunks of whole leading-axis rows, the last one short, at the
    # indents of artifact payloads and of unit-path payloads one level down
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    vals = every_exponent()
    grid = vals[:4000].reshape(10, 100, 2, 2)
    for arr in (vals, grid, grid[:, :3].transpose(1, 0, 2, 3)):
        assert dumps_json({"d": arr}) == hex_text(arr)
        nested = {"g1": {"data": arr, "n": 1}}
        assert dumps_json(nested) == json.dumps(
            {"g1": {"data": float_hex(arr), "n": 1}}, sort_keys=True,
            indent=1) + "\n"


def test_dump_json_streams_a_large_cylinder(tmp_path):
    # a 1001 x 256 grid is 8 MB of floats and 26 MB of text; written in
    # chunks, neither the text nor a string per float is ever held
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(1001, 256, 2, 2))
    grid[..., 1, 1] = -grid[..., 0, 0]
    obj = cylinder_to_obj(cx.CylinderConnection(grid))
    f = tmp_path / "c.json"
    tracemalloc.start()
    try:
        dump_json(obj, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert np.array_equal(obj_to_artifact(load_obj(str(f))).grid, obj["data"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dump_json_leaves_no_partial_file(tmp_path, monkeypatch, bad):
    # the bad value sits in the fifth chunk, after four have been written
    monkeypatch.setattr(serialize, "_CHUNK", 8)
    f = tmp_path / "a.json"
    f.write_text("old contents\n")
    loop = cx.winding_loop(1, np.diag([0.1, -0.1]), 16)
    samples = loop.samples.copy()
    samples[9, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        dump_json({**loop_to_obj(loop), "data": samples}, f)
    assert f.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


@pytest.mark.parametrize("data, shape, text", [
    (["0x1.0p+0", "zz"], (2,),
     "bad hex float payload: invalid hexadecimal floating-point string"),
    (["0x1.0p+0", 3], (2,),
     "bad hex float payload: bad argument type for built-in operation"),
    (["0x1.0p+0"] * 3, (2, 2), "payload length 3 does not match (2, 2)"),
])
def test_decode_keeps_its_error_texts(data, shape, text):
    with pytest.raises(ParseError) as info:
        _decode(data, shape)
    assert str(info.value) == text


TRICKY = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9",
                          "\u2028", "\U0001f600", "x", " "])
STRINGS = st.text(st.one_of(TRICKY, st.characters()), max_size=8)
PLAIN = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=True, allow_infinity=True),
                    STRINGS)
KEYS = st.one_of(STRINGS, st.integers(), st.floats(), st.booleans())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(PLAIN, max_size=6),
        st.dictionaries(STRINGS, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(st.floats(), children, max_size=4),
        # bool keys sort among ints and are written true and false
        st.dictionaries(st.one_of(st.integers(), st.booleans()), children,
                        max_size=4),
        # mixed key types: sorting them may fail, the same way in both
        st.dictionaries(KEYS, children, max_size=3))


JSON_TREES = st.recursive(SCALARS, containers, max_leaves=25)


def stdlib_text(obj):
    try:
        return json.dumps(obj, sort_keys=True, indent=1) + "\n"
    except TypeError as exc:
        return type(exc)


def writer_text(obj):
    try:
        return dumps_json(obj)
    except TypeError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
def test_dumps_json_matches_json_dumps(obj):
    assert writer_text(obj) == stdlib_text(obj)


UNSUPPORTED = st.sampled_from([object(), {1, 2}, b"bytes", 1j,
                               np.int64(3), np.bool_(True), Ellipsis])


@settings(max_examples=100, deadline=None)
@given(st.recursive(st.one_of(SCALARS, UNSUPPORTED), containers,
                    max_leaves=10))
def test_dumps_json_refuses_what_json_dumps_refuses(obj):
    assert writer_text(obj) == stdlib_text(obj)


@pytest.mark.parametrize("obj", [
    object(), [1, {"a": [object()]}], {(1, 2): 3}, {"a": 1, 2: "b"},
    np.int64(3), {"x": {1, 2}}])
def test_dumps_json_type_errors(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        dumps_json(obj)


# ---------------------------------------------------------------------------
# payload and shape-field types


@pytest.mark.parametrize("obj", [
    # a string payload would parse one character per float
    {"kind": "loop-connection", "m": 4, "data": "0" * 16},
    {"kind": "loop-connection", "m": 1, "data": {"0x0.0p+0": 1}},
    {"kind": "loop-connection", "m": 1, "data": [0, 0, 0, 0]},
    {"kind": "loop-connection", "m": True, "data": ["0x0.0p+0"] * 4},
    {"kind": "loop-connection", "m": 1.0, "data": ["0x0.0p+0"] * 4},
    {"kind": "group-path", "n": True,
     "data": [float(1.0).hex(), "0x0.0p+0", "0x0.0p+0",
              float(1.0).hex()] * 2},
    {"kind": "group-path", "n": "1", "data": ["0x0.0p+0"] * 8},
    {"kind": "cylinder-connection", "ns": True, "mt": 16, "periodic": True,
     "data": ["0x0.0p+0"] * 64, "s_frame": None},
    {"kind": "cylinder-connection", "ns": 1, "mt": False, "periodic": True,
     "data": [], "s_frame": None},
    {"kind": "cylinder-connection", "ns": 2, "mt": 16, "periodic": True,
     "data": ["0x0.0p+0"] * 128, "s_frame": "0" * 128},
], ids=["str-data", "dict-data", "number-data", "bool-m", "float-m",
        "bool-n", "str-n", "bool-ns", "bool-mt", "str-s_frame"])
def test_obj_to_artifact_checks_field_types(obj):
    with pytest.raises(ParseError):
        obj_to_artifact(obj)


def test_well_typed_zero_loop_still_loads():
    obj = {"kind": "loop-connection", "m": 4, "data": ["0x0.0p+0"] * 16}
    assert np.array_equal(obj_to_artifact(obj).samples, np.zeros((4, 2, 2)))

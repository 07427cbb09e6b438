"""JSON artifacts with hex-float payloads, and matrix-literal parsing.

Data arrays are stored as flat row-major lists of C99 hex floats so that
save/load round-trips are bit-exact.  Reports stay in plain decimals for
readability; determinism comes from sorted keys and the absence of
timestamps.  The text of both is `json.dumps(obj, sort_keys=True,
indent=1)` plus a newline, written here directly: under indent the
standard library falls back to its pure-Python encoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .connections import CylinderConnection, LoopConnection
from .paths import GroupPath


class ParseError(ValueError):
    """Malformed matrix literal or artifact file."""


def _exponent_table() -> np.ndarray:
    """Row b: the NUL-padded "p+e" of float.hex for biased exponent b."""
    a = np.arange(1024)
    digits = (np.stack([a // 1000, a // 100, a // 10, a], 1) % 10
              + ord("0")).astype(np.uint8)
    left = np.zeros((1024, 4), np.uint8)   # |e| left-aligned, no zeros
    for lo, hi, skip in ((0, 10, 3), (10, 100, 2), (100, 1000, 1),
                         (1000, 1024, 0)):
        left[lo:hi, :4 - skip] = digits[lo:hi, skip:]
    e = np.maximum(np.arange(2047), 1) - 1023   # subnormals read p-1022
    table = np.zeros((2047, 6), np.uint8)
    table[:, 0] = ord("p")
    table[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    table[:, 2:] = left[np.abs(e)]
    return table


_EXPONENTS = _exponent_table()
_HEX_PAIRS = np.frombuffer(bytes(range(256)).hex().encode(),
                           np.uint8).reshape(256, 2)
_ZERO_TAIL = np.frombuffer(b"p+0".ljust(18, b"\0"), np.uint8)


def _encode(arr: np.ndarray) -> list[str]:
    """float.hex of every entry, row-major, formatted from the bit fields."""
    flat = np.asarray(arr, dtype=float).ravel()
    if not np.isfinite(flat).all():
        raise ValueError("hex float payloads hold finite values only")
    bits = flat.view(np.uint64)
    biased = (bits >> np.uint64(52) & np.uint64(0x7FF)).astype(np.intp)
    # one row per value: sign, "0x1." ("0x0." if subnormal), 13 nibbles,
    # "p+e", newline; NUL bytes pad the row and are dropped before decoding
    rows = np.zeros((flat.size, 25), np.uint8)
    rows[bits >> np.uint64(63) != 0, 0] = ord("-")
    # bytes 1-7 of the big-endian mantissa read as "0" and the 13 nibbles;
    # the "0" falls on the column of the point
    mant = (bits & np.uint64(2**52 - 1)).astype(">u8").view(np.uint8)
    rows[:, 4:18] = _HEX_PAIRS[mant.reshape(-1, 8)[:, 1:]].reshape(-1, 14)
    rows[:, 1:5] = np.frombuffer(b"0x1.", np.uint8)
    rows[biased == 0, 3] = ord("0")
    rows[:, 18:24] = _EXPONENTS[biased]
    rows[flat == 0, 6:24] = _ZERO_TAIL   # ±0 is "0x0.0p+0"
    rows[:, 24] = ord("\n")
    chars = rows.ravel()
    return chars[chars != 0].tobytes().decode("ascii").splitlines()


def _decode(data: list[str], shape: tuple[int, ...]) -> np.ndarray:
    if not isinstance(data, list):
        raise ParseError("hex float payload must be a list of strings, "
                         f"got {type(data).__name__}")
    try:
        flat = np.fromiter(map(float.fromhex, data), float, count=len(data))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad hex float payload: {exc}") from None
    if flat.size != int(np.prod(shape)):
        raise ParseError(f"payload length {flat.size} does not match {shape}")
    return flat.reshape(shape)


def _count(obj: dict, key: str) -> int:
    val = obj[key]
    if type(val) is not int:   # JSON true/false are ints to isinstance
        raise ParseError(f"{key!r} must be an integer, got {val!r}")
    return val


def path_to_obj(p: GroupPath) -> dict:
    return {"kind": "group-path", "n": p.n_steps,
            "data": _encode(p.nodes)}


def loop_to_obj(a: LoopConnection) -> dict:
    return {"kind": "loop-connection", "m": a.m, "data": _encode(a.samples)}


def cylinder_to_obj(c: CylinderConnection) -> dict:
    # "periodic" stays in the format: every cylinder's t-axis is a circle
    obj = {"kind": "cylinder-connection", "ns": c.ns, "mt": c.mt,
           "periodic": True, "data": _encode(c.grid),
           "s_frame": None}
    if c.s_frame is not None:
        obj["s_frame"] = _encode(c.s_frame)
    return obj


def obj_to_artifact(obj: dict):
    """Dispatch a parsed JSON object back to its library type."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("artifact must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "group-path":
            n = _count(obj, "n")
            return GroupPath(_decode(obj["data"], (n + 1, 2, 2)))
        if kind == "loop-connection":
            m = _count(obj, "m")
            return LoopConnection(_decode(obj["data"], (m, 2, 2)))
        if kind == "cylinder-connection":
            if obj["periodic"] is not True:
                raise ParseError("cylinder artifacts must be periodic, got "
                                 f"'periodic': {obj['periodic']!r}")
            shape = (_count(obj, "ns"), _count(obj, "mt"), 2, 2)
            frame = obj.get("s_frame")
            return CylinderConnection(
                _decode(obj["data"], shape),
                s_frame=None if frame is None else _decode(frame, shape))
        if kind == "unit-path":
            if not isinstance(obj["report"], dict):
                raise ParseError("'report' must be a JSON object, got "
                                 f"{obj['report']!r}")
            return {"g1": obj_to_artifact(obj["g1"]),
                    "k": obj_to_artifact(obj["k"]),
                    "report": obj["report"]}
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"malformed {kind} artifact: {exc}") from None
    raise ParseError(f"unknown artifact kind {kind!r}")


def dumps_json(obj) -> str:
    """The one JSON text form of artifacts and reports: sorted keys, indent 1.

    Equal to `json.dumps(obj, sort_keys=True, indent=1) + "\\n"` for every
    JSON value, and a TypeError where that raises one.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(o, nl: str, out: list[str]) -> None:
    """Append the text of `o`, whose line starts with `nl`, to `out`."""
    if not isinstance(o, (list, tuple, dict)):
        # a scalar's text is the same with and without indent; anything
        # else gets json's TypeError
        out.append(json.dumps(o))
        return
    if not o:
        out.append("{}" if isinstance(o, dict) else "[]")
        return
    inner = nl + " "
    if isinstance(o, dict):
        out.append("{")
        for key, val in sorted(o.items()):
            if not isinstance(key, (str, int, float)) and key is not None:
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            out += (inner, _quote(key if isinstance(key, str)
                                  else json.dumps(key)), ": ")
            _write(val, inner, out)
            out.append(",")
        out[-1] = nl + "}"
        return
    try:
        joined = "".join(o)
    except TypeError:
        joined = None
    if (joined is not None and joined.isascii() and joined.isprintable()
            and '"' not in joined and "\\" not in joined):
        # strings that need no escapes, such as the hex payloads
        out += ("[", inner, '"', ('",' + inner + '"').join(o), '"', nl, "]")
        return
    out.append("[")
    for val in o:
        out.append(inner)
        _write(val, inner, out)
        out.append(",")
    out[-1] = nl + "]"


def dump_json(obj, fp_or_path) -> None:
    text = dumps_json(obj)
    if hasattr(fp_or_path, "write"):
        fp_or_path.write(text)
    else:
        with open(fp_or_path, "w") as fh:
            fh.write(text)


def load_obj(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("artifact file must hold a JSON object")
    return obj


def parse_matrix_literal(text: str) -> np.ndarray:
    """JSON 2x2 array literal -> float matrix; ParseError on anything else."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a JSON matrix: {exc}") from None
    arr = np.asarray(raw, dtype=object)
    if arr.shape != (2, 2):
        raise ParseError(f"expected a 2x2 array, got shape {arr.shape}")
    try:
        out = arr.astype(float)
    except (TypeError, ValueError):
        raise ParseError("matrix entries must be numbers") from None
    if not np.all(np.isfinite(out)):
        raise ParseError("matrix entries must be finite")
    return out


def report_csv(report: dict) -> str:
    """Flat key,value lines, sorted; nested dicts/lists use dotted keys."""
    rows: list[tuple[str, str]] = []

    def walk(prefix, val):
        if isinstance(val, dict):
            for k in sorted(val):
                walk(f"{prefix}.{k}" if prefix else str(k), val[k])
        elif isinstance(val, (list, tuple)):
            for i, v in enumerate(val):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append((prefix, "" if val is None else repr(val)
                         if isinstance(val, str) else str(val)))

    walk("", report)
    return "".join(f"{k},{v}\n" for k, v in rows)

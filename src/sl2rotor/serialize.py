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
import os
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .connections import CylinderConnection, LoopConnection
from .paths import GroupPath


class ParseError(ValueError):
    """Malformed matrix literal or artifact file."""


def _exponent_table() -> np.ndarray:
    """Row b: float.hex's "p+e" for biased exponent b and the closing quote,
    NUL-padded into one uint64; row 2047 holds the "p+0" of ±0."""
    e = np.maximum(np.arange(2048), 1) - 1023   # subnormals read p-1022
    e[2047] = 0
    mag = np.abs(e)[:, None]
    table = np.zeros((2048, 8), np.uint8)
    table[:, 0] = ord("p")
    table[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    # four digit places, NUL where a leading zero would stand
    table[:, 2:6] = np.where(mag >= [1000, 100, 10, 0],
                             mag // [1000, 100, 10, 1] % 10 + ord("0"), 0)
    table[:, 7] = ord('"')
    return table.view(np.uint64).ravel()


_EXPONENTS = _exponent_table()
_HEX_PAIRS = np.frombuffer(bytes(range(256)).hex().encode(), np.uint16)
_CHUNK = 65536   # values rendered at a time


def _write_payload(arr: np.ndarray, nl: str, emit) -> None:
    """Emit the row-major list of the float.hex of `arr`'s entries, from
    their bit fields, in chunks along the leading axis."""
    arr = np.atleast_1d(np.asarray(arr, dtype=float))
    if arr.size == 0:
        return emit("[]")
    # a row per value: ",", the indent, '"', the sign, "0x1." ("0x0." if
    # subnormal or zero), 13 nibbles and 'p+e"'; NULs are squeezed out
    head = np.frombuffer((f',{nl} "' + "\0" + "0x1.").encode(), np.uint8)
    p = head.size - 5   # the sign's column
    emit("[")
    step = max(1, _CHUNK // arr[0].size)
    for lo in range(0, len(arr), step):
        flat = arr[lo:lo + step].ravel()
        if not np.isfinite(flat).all():
            raise ValueError("hex float payloads hold finite values only")
        biased = flat.view(np.int64) >> 52 & 0x7FF
        zero = flat == 0
        rows = np.empty((flat.size, p + 26), np.uint8)
        # big-endian bytes 1-7: a nibble on the point's column, 13 nibbles
        big = flat.astype(">f8").view(np.uint8).reshape(-1, 8)
        rows[:, p + 4:p + 18] = np.take(_HEX_PAIRS, big[:, 1:]).view(np.uint8)
        rows[:, :p + 5] = head
        rows[np.signbit(flat), p] = ord("-")
        rows[biased == 0, p + 3] = ord("0")
        rows[zero, p + 6:p + 18] = 0   # "0x0.0p+0"
        rows[:, p + 18:] = np.take(_EXPONENTS, np.where(zero, 2047, biased)
                                   ).view(np.uint8).reshape(-1, 8)
        chars = rows.ravel()
        text = chars[chars != 0].tobytes().decode("ascii")
        emit(text if lo else text[1:])   # no comma before the first item
    emit(nl + "]")


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
    return {"kind": "group-path", "n": p.n_steps, "data": p.nodes}


def loop_to_obj(a: LoopConnection) -> dict:
    return {"kind": "loop-connection", "m": a.m, "data": a.samples}


def cylinder_to_obj(c: CylinderConnection) -> dict:
    # "periodic" stays in the format: every cylinder's t-axis is a circle
    return {"kind": "cylinder-connection", "ns": c.ns, "mt": c.mt,
            "periodic": True, "data": c.grid, "s_frame": c.s_frame}


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
            lam = obj["lam"]
            if type(lam) not in (int, float) or not 1.0 < lam < np.inf:
                raise ParseError(f"'lam' must be a number above 1, got {lam!r}")
            parts = {part: obj_to_artifact(obj[part]) for part in ("g1", "k")}
            for part, path in parts.items():
                if not isinstance(path, GroupPath):
                    raise ParseError(f"unit-path part {part!r} must be a "
                                     f"group-path, got {obj[part]['kind']!r}")
            return {**parts, "lam": lam, "report": obj["report"]}
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"malformed {kind} artifact: {exc}") from None
    raise ParseError(f"unknown artifact kind {kind!r}")


def dumps_json(obj) -> str:
    """The one JSON text form of artifacts and reports: sorted keys, indent 1.

    Equal to `json.dumps(obj, sort_keys=True, indent=1) + "\\n"` for every
    JSON value, and a TypeError where that raises one; an ndarray is
    written as the row-major list of the float.hex of its entries.
    """
    out: list[str] = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(o, nl: str, emit) -> None:
    """Pass the text of `o`, whose line starts with `nl`, to `emit`."""
    if isinstance(o, np.ndarray):
        return _write_payload(o, nl, emit)
    if not isinstance(o, (list, tuple, dict)) or not o:
        # a scalar's text is the same with and without indent; anything
        # else gets json's TypeError
        return emit(json.dumps(o))
    inner = nl + " "
    if isinstance(o, dict):
        sep = "{"
        for key, val in sorted(o.items()):
            if not isinstance(key, (str, int, float)) and key is not None:
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            emit(sep + inner + _quote(key if isinstance(key, str)
                                      else json.dumps(key)) + ": ")
            _write(val, inner, emit)
            sep = ","
        return emit(nl + "}")
    sep = "["
    for val in o:
        emit(sep + inner)
        _write(val, inner, emit)
        sep = ","
    emit(nl + "]")


def dump_json(obj, fp_or_path) -> None:
    """Stream the text of `dumps_json(obj)` into a file object, or into a
    path that is replaced only once the whole text is written."""
    if hasattr(fp_or_path, "write"):
        _write(obj, "\n", fp_or_path.write)
        fp_or_path.write("\n")
        return
    tmp = f"{os.fspath(fp_or_path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x") as fh:
            _write(obj, "\n", fh.write)
            fh.write("\n")
        os.replace(tmp, fp_or_path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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

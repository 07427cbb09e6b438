"""JSON artifacts with hex-float payloads, and matrix-literal parsing.

Data arrays are stored as flat row-major lists of C99 hex floats so that
save/load round-trips are bit-exact.  Reports stay in plain decimals for
readability; determinism comes from sorted keys and the absence of
timestamps.
"""

from __future__ import annotations

import json

import numpy as np

from .connections import CylinderConnection, LoopConnection
from .paths import GroupPath


class ParseError(ValueError):
    """Malformed matrix literal or artifact file."""


def _encode(arr: np.ndarray) -> list[str]:
    return [float(v).hex() for v in np.asarray(arr, dtype=float).ravel()]


def _decode(data: list[str], shape: tuple[int, ...]) -> np.ndarray:
    try:
        flat = np.array([float.fromhex(v) for v in data], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad hex float payload: {exc}") from None
    if flat.size != int(np.prod(shape)):
        raise ParseError(f"payload length {flat.size} does not match {shape}")
    return flat.reshape(shape)


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
            return GroupPath(_decode(obj["data"], (obj["n"] + 1, 2, 2)))
        if kind == "loop-connection":
            return LoopConnection(_decode(obj["data"], (obj["m"], 2, 2)))
        if kind == "cylinder-connection":
            if obj["periodic"] is not True:
                raise ParseError("cylinder artifacts must be periodic, got "
                                 f"'periodic': {obj['periodic']!r}")
            shape = (obj["ns"], obj["mt"], 2, 2)
            frame = obj.get("s_frame")
            return CylinderConnection(
                _decode(obj["data"], shape),
                s_frame=None if frame is None else _decode(frame, shape))
        if kind == "unit-path":
            return {"g1": obj_to_artifact(obj["g1"]),
                    "k": obj_to_artifact(obj["k"]),
                    "report": obj["report"]}
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"malformed {kind} artifact: {exc}") from None
    raise ParseError(f"unknown artifact kind {kind!r}")


def dumps_json(obj) -> str:
    """The one JSON text form of artifacts and reports: sorted keys, indent 1."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


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


def load_artifact(path: str):
    return obj_to_artifact(load_obj(path))


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

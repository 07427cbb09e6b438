"""Per-layer spans around sl2rotor's public calls, patched in from outside.

The tracer replaces each named function or method with a wrapper that
records one span per call: its duration, and the time of the spans it
caused (its children), which gives self time.  Spans are folded into
per-name totals as they close, with a stack of open spans standing in
for the parent links, so a run of 10^6 tiny calls needs no span log.

`from .core import classify` copies the function into the importing
module, so every binding of the original object in every sl2rotor module
(and in module-level dicts such as SUITES) is patched, not only the
defining one.  A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute names to try in order, can nest).
# "can nest" marks spans that may have traced children, so self time
# differs from inclusive time and is reported separately.
TRACED = [
    ("core.sl2_exp", "core", ("sl2_exp",), False),
    ("core.sl2_log", "core", ("sl2_log",), False),
    ("core.classify", "core", ("classify",), False),
    ("core.GroupElement", "core", ("GroupElement.__init__",), False),
    ("cover.eval_lift", "cover", ("eval_lift",), False),
    ("cover.rot", "cover", ("rot",), True),
    ("cover.compose", "cover", ("compose",), True),
    ("cover.inverse", "cover", ("inverse",), True),
    ("cover.sl2_rep", "cover", ("sl2_rep",), True),
    ("cover.lift_of", "cover", ("lift_of",), True),
    ("cover.track_lift_along", "cover", ("track_lift_along",), True),
    ("paths.GroupPath", "paths", ("GroupPath.__init__",), True),
    ("paths.rot_along", "paths", ("rot_along",), True),
    ("paths.spiral_path", "paths", ("spiral_path",), True),
    ("paths.elliptic_itinerary_path", "paths",
     ("elliptic_itinerary_path",), True),
    ("paths.hyperbolic_itinerary_path", "paths",
     ("hyperbolic_itinerary_path",), True),
    ("paths.unit_path", "paths", ("unit_path",), True),
    ("connections.from_nonpositive_path", "connections",
     ("from_nonpositive_path",), True),
    ("connections.dehn_twist", "connections", ("dehn_twist",), True),
    ("connections.rot_c", "connections", ("rot_c",), True),
    ("connections.gauge", "connections", ("gauge",), True),
    ("connections.gauge_crossing_class", "connections",
     ("gauge_crossing_class",), True),
    ("connections.CylinderConnection.rot_boundary", "connections",
     ("CylinderConnection.rot_boundary",), True),
    ("connections.LoopConnection.rot", "connections",
     ("LoopConnection.rot",), True),
    ("connections.milnor_wood_check", "connections",
     ("milnor_wood_check",), True),
    ("serialize.encode", "serialize", ("encode", "_encode"), False),
    ("serialize.dump_json", "serialize", ("dump_json",), False),
    ("serialize.load_obj", "serialize", ("load_obj",), False),
    ("serialize.obj_to_artifact", "serialize", ("obj_to_artifact",), True),
    ("cli.entry", "cli", ("entry",), True),
]

BYTE_COUNTERS = ("serialize.bytes_written", "serialize.bytes_read")


# the twelve suites of the README's table, in its order
SUITE_NAMES = ("quasimorphism", "parity", "krein", "three-classes",
               "two-elliptic", "unit-path", "cylinder-constructor",
               "milnor-wood", "gauge", "dehn-twist", "cover", "hyperdisc")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in order."""
    out = []
    for prefix, _, _, nests in TRACED:
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.s", "s", "lower"))
        if nests:
            out.append((f"{prefix}.self_s", "s", "lower"))
    out += [(name, "B", "lower") for name in BYTE_COUNTERS]
    out += [(f"suites.{name}.s", "s", "lower") for name in SUITE_NAMES]
    out += [("lift.well.op_p50_ms", "ms", "lower"),
            ("lift.wide.op_p50_ms", "ms", "lower"),
            ("trace.coverage_pct", "%", "higher"),
            ("trace.overhead_s", "s", "lower")]
    return out


def _file_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


class Tracer:
    """Aggregated spans: calls, inclusive and self seconds per name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.active = True        # oracles switch recording off
        self.top_s = 0.0          # time under spans that have no parent
        self.absent: list[str] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._open: list[list[float]] = []   # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._open.append(children)
            tracer._depth[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._open.pop()
                tracer._depth[name] -= 1
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - children[0]
                if tracer._depth[name] == 0:   # recursion counts once
                    tracer.incl[name] += dt
                if tracer._open:
                    tracer._open[-1][0] += dt
                else:
                    tracer.top_s += dt
            if after is not None:
                after(*args, **kwargs)
            return out

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def _count_bytes(self, key: str, pos: int):
        def after(*args, **kwargs):
            if len(args) > pos:
                self.counters[key] += _file_size(args[pos])
        return after

    # -- patching --------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _rebind(self, original, wrapper) -> None:
        # every module-level binding and every module-level dict entry
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapper)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._set(val, dkey, wrapper)

    def install(self) -> None:
        pkg = sys.modules["sl2rotor"]
        hooks = {"serialize.dump_json": self._count_bytes(BYTE_COUNTERS[0], 1),
                 "serialize.load_obj": self._count_bytes(BYTE_COUNTERS[1], 0)}
        for prefix, modname, attrs, _ in TRACED:
            mod = getattr(pkg, modname, None)
            target = _resolve(mod, attrs)
            if target is None:
                self.absent.append(prefix)
                continue
            owner, key, fn = target
            wrapper = self._wrap(prefix, fn, hooks.get(prefix))
            if isinstance(owner, type):
                self._set(owner, key, wrapper)
            else:
                self._rebind(fn, wrapper)
        suites = getattr(pkg, "SUITES", {})
        for name in SUITE_NAMES:
            if name in suites:
                self._set(suites, name,
                          self._wrap(f"suites.{name}", suites[name]))
            else:
                self.absent.append(f"suites.{name}")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- report ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, _, _, nests in TRACED:
            out[f"{prefix}.calls"] = self.calls.get(prefix, 0)
            out[f"{prefix}.s"] = self.incl.get(prefix, 0.0)
            if nests:
                out[f"{prefix}.self_s"] = self.self_s.get(prefix, 0.0)
        for key in BYTE_COUNTERS:
            out[key] = self.counters.get(key, 0)
        for name in SUITE_NAMES:
            out[f"suites.{name}.s"] = self.incl.get(f"suites.{name}", 0.0)
        return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sl2rotor"
                                  or name.startswith("sl2rotor."))]


def _resolve(mod, attrs):
    """(owner, key, callable) for the first attribute path that exists."""
    if mod is None:
        return None
    for attr in attrs:
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(mod, cls_name, None)
            if isinstance(cls, type) and meth in cls.__dict__:
                return cls, meth, cls.__dict__[meth]
        elif callable(getattr(mod, attr, None)):
            return mod, attr, getattr(mod, attr)
    return None

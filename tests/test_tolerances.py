"""Every tolerance default in the public API is one of core's named values."""

import importlib
import inspect
import pkgutil

import sl2rotor
from sl2rotor import core

# a float default this small is a tolerance, not a scale or a step size
TOLERANCE_CEILING = 1e-5
# checked by identity: a default must be the named object itself.  Equal
# literals inside core.py compile to that same object, so this guards the
# other modules; core's own signatures name their constants by review.
NAMED = [v for k, v in vars(core).items() if k.isupper() and type(v) is float]


def _public_signatures():
    """(qualified name, callable) for every public function, class and
    method that an sl2rotor module defines."""
    for info in pkgutil.iter_modules(sl2rotor.__path__):
        mod = importlib.import_module(f"sl2rotor.{info.name}")
        for name, obj in vars(mod).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            qual = f"{mod.__name__}.{name}"
            if inspect.isfunction(obj):
                yield qual, obj
            elif inspect.isclass(obj):
                yield qual, obj
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and callable(member):
                        yield f"{qual}.{attr}", member


def test_no_literal_tolerance_defaults():
    literal = []
    for qual, fn in _public_signatures():
        try:
            params = inspect.signature(fn).parameters.values()
        except (TypeError, ValueError):  # builtins without a signature
            continue
        for p in params:
            d = p.default
            if (isinstance(d, float) and abs(d) < TOLERANCE_CEILING
                    and not any(d is v for v in NAMED)):
                literal.append(f"{qual}({p.name}={d!r})")
    assert not literal, ("tolerance defaults written as literals, not as "
                         f"core's named constants: {literal}")

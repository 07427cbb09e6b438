"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

from dataclasses import dataclass

from .core import TAU_CLASS


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260825
    tau_class: float = TAU_CLASS  # class band and parity bound (--tol)
    n: int = 1000             # path resolution
    ns: int = 256             # connection s-resolution
    mt: int = 256             # connection t-resolution
    fmt: str = "json"

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.tau_class <= 0.0:
            raise ValueError("tau_class must be positive")
        for name in ("n", "ns", "mt"):
            if getattr(self, name) < 16:
                raise ValueError(f"{name} must be at least 16")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")

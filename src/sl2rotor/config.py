"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260825
    tau_class: float = 1e-9   # conjugacy-classification band
    eps_eq: float = 1e-9      # equality comparisons
    margin: float = 1e-8      # cone-margin slack
    n: int = 1000             # path resolution
    ns: int = 256             # connection s-resolution
    mt: int = 256             # connection t-resolution
    fmt: str = "json"

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        for name in ("tau_class", "eps_eq", "margin"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("n", "ns", "mt"):
            if getattr(self, name) < 16:
                raise ValueError(f"{name} must be at least 16")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")

    def with_updates(self, **kw) -> "RunConfig":
        return replace(self, **kw)

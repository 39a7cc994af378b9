"""Tolerance policy, the NaN firewall, deterministic sampling and the
number checks of JSON configs.

Values are plain floats in [-inf, +inf].  NaN is banned at every type
boundary: any operation that would produce one raises immediately instead
of letting it propagate into an inequality check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, NanError, ParamOutOfRange


def require_not_nan(x: float, where: str = "value") -> float:
    """NaN firewall used at internal boundaries."""
    if isinstance(x, np.ndarray):
        if np.isnan(x).any():
            raise NanError(f"NaN in {where}")
        return x
    if math.isnan(x):
        raise NanError(f"NaN in {where}")
    return x


def _number(value, what: str) -> float:
    """A JSON config number as a float; anything else is ConfigInvalid."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigInvalid(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise ConfigInvalid(f"{what} is out of range: {value!r}") from exc


def _integer(value, what: str) -> int:
    if not _number(value, what).is_integer():
        raise ConfigInvalid(f"{what} must be an integer, got {value!r}")
    return int(value)  # from value, not the float: seeds reach 2**64 - 1


@dataclass(frozen=True)
class Tolerance:
    """Absolute / relative slack plus the smallest finite-difference step.

    Defaults: abs = 1e-8, rel = 1e-6, h_min = 1e-6.  Differential checkers
    add an extra O(h)-aware budget on top of `abs`; see the analysis module.
    """

    abs: float = 1e-8
    rel: float = 1e-6
    h_min: float = 1e-6

    def __post_init__(self):
        if not (self.abs >= 0 and self.rel >= 0):
            raise ParamOutOfRange("abs and rel must be >= 0")
        if not self.h_min > 0:
            raise ParamOutOfRange("h_min must be > 0")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class SampleSpec:
    """Seeded sample-size request.  Same seed + count => same samples."""

    seed: int
    count: int

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ParamOutOfRange("seed must fit in 64 unsigned bits")
        if int(self.count) <= 0:
            raise ParamOutOfRange("count must be positive")

    def rng(self) -> np.random.Generator:
        """A fresh generator; calling twice yields identical streams."""
        return np.random.default_rng(self.seed)

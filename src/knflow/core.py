"""Tolerance policy, the NaN firewall, deterministic sampling and the
number, pair and list checks of JSON configs.

Values are plain floats in [-inf, +inf].  NaN is banned at every type
boundary: any operation that would produce one raises immediately instead
of letting it propagate into an inequality check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, NanError, ParamOutOfRange, StepUnderflow


def require_not_nan(x: float, where: str = "value") -> float:
    """NaN firewall used at internal boundaries."""
    if np.isnan(x).any() if isinstance(x, np.ndarray) else math.isnan(x):
        raise NanError(f"NaN in {where}")
    return x


def _number(value, what: str) -> float:
    """A JSON config number as a float; anything else, NaN included, is
    ConfigInvalid."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or value != value:
        raise ConfigInvalid(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise ConfigInvalid(f"{what} is out of range: {value!r}") from exc


def _integer(value, what: str) -> int:
    if not _number(value, what).is_integer():
        raise ConfigInvalid(f"{what} must be an integer, got {value!r}")
    return int(value)  # from value, not the float: seeds reach 2**64 - 1


def _pair(value, what: str) -> tuple:
    """A JSON pair [lo, hi] of numbers (or, for boxes on R^n, of lists)."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigInvalid(f"{what} must be a pair [lo, hi], got {value!r}")
    return tuple(_points(v, what, 1) if isinstance(v, list)
                 else _number(v, what) for v in value)


def _points(values, what: str, least: int) -> np.ndarray:
    """A JSON list of at least `least` numbers, none NaN, as a float array."""
    arr = None
    if isinstance(values, (list, tuple)):
        try:
            arr = np.asarray(values)
        except ValueError:  # ragged nesting
            pass
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf" \
            or len(arr) < least or np.isnan(arr).any():
        raise ConfigInvalid(f"{what} must be a list of at least {least} numbers")
    return arr.astype(float)


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


def _halving_steps(h0: float, h_min: float, what: str) -> list:
    """The steps h0 * 2^-k >= h_min of a difference-quotient limit,
    coarsest first: StepUnderflow for h0 below h_min, ParamOutOfRange for
    an h0 that is not finite (`what` names it in the message)."""
    if h0 < h_min:
        raise StepUnderflow(f"{what}={h0} below h_min={h_min}")
    if not h0 < math.inf:
        raise ParamOutOfRange(f"{what}={h0} must be finite")
    hs = h0 * 0.5 ** np.arange(int(math.log2(h0 / h_min)) + 2)
    return hs[hs >= h_min].tolist()


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

"""Model geodesic spaces: real intervals and Euclidean R^n.

Both are uniquely geodesic with straight-segment geodesics, so every
"there exists a geodesic such that ..." quantifier collapses onto THE
segment.  Branching spaces are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import _integer, _number
from .errors import ConfigInvalid, ParamOutOfRange, PointOutsideSpace

Point = Union[float, np.ndarray]


@dataclass(frozen=True)
class Interval:
    """Sub-interval of the reals, possibly unbounded, with open-end flags."""

    a: float = -math.inf
    b: float = math.inf
    open_a: bool = True
    open_b: bool = True

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if math.isnan(a) or math.isnan(b) or not a < b:
            raise ParamOutOfRange(f"need a < b, got a={a}, b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return 1

    def contains(self, x: float) -> bool:
        x = float(x)
        lo_ok = x > self.a if self.open_a else x >= self.a
        hi_ok = x < self.b if self.open_b else x <= self.b
        return lo_ok and hi_ok and math.isfinite(x)

    def contains_closure(self, x: float) -> bool:
        x = float(x)
        return self.a <= x <= self.b and math.isfinite(x)

    def clamp(self, x: float) -> float:
        """Nearest point of the metric completion."""
        return min(max(float(x), self.a), self.b)

    def as_point(self, x) -> float:
        return float(x)


@dataclass(frozen=True)
class EuclideanRn:
    """Euclidean space of dimension n >= 1."""

    n: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise ParamOutOfRange("n must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dim(self) -> int:
        return self.n

    def contains(self, x) -> bool:
        arr = np.asarray(x, dtype=float)
        return arr.shape == (self.n,) and bool(np.isfinite(arr).all())

    def contains_closure(self, x) -> bool:
        return self.contains(x)

    def clamp(self, x):
        return np.asarray(x, dtype=float)

    def as_point(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)


ModelSpace = Union[Interval, EuclideanRn]


def _require_member(space: ModelSpace, x: Point) -> Point:
    if not space.contains(x):
        raise PointOutsideSpace(f"{x!r} not in {space}")
    return space.as_point(x)


def distances(x0, x1, one_d: bool):
    """|x1 - x0| on an interval, sqrt(d.d) over the last axis on R^n, for
    broadcast x0, x1: every distance (and, from 0.0, norm) of the library."""
    d = x1 - x0
    if one_d:
        return np.abs(d)
    return np.sqrt(np.vecdot(d, d))


def dist(space: ModelSpace, x: Point, y: Point) -> float:
    """Euclidean distance between two points of the space."""
    return float(distances(_require_member(space, x), _require_member(space, y),
                           isinstance(space, Interval)))


@dataclass(frozen=True)
class Geodesic:
    """Constant-speed segment t in [0,1] |-> (1-t) p0 + t p1."""

    space: ModelSpace
    p0: Point
    p1: Point

    def __call__(self, t: float) -> Point:
        return geodesic_eval(self, t)

    @property
    def length(self) -> float:
        return dist(self.space, self.p0, self.p1)


def geodesic(space: ModelSpace, x: Point, y: Point) -> Geodesic:
    """The unique straight-segment geodesic from x to y."""
    return Geodesic(space, _require_member(space, x), _require_member(space, y))


def geodesic_eval(g: Geodesic, t: float) -> Point:
    """Point at parameter t in [0,1]."""
    t = float(t)
    if math.isnan(t) or not (0.0 <= t <= 1.0):
        raise ParamOutOfRange(f"t must lie in [0,1], got {t}")
    if isinstance(g.space, Interval):
        return (1.0 - t) * g.p0 + t * g.p1
    return (1.0 - t) * np.asarray(g.p0, float) + t * np.asarray(g.p1, float)


def _endpoint_from_json(v) -> float:
    if isinstance(v, str):
        s = v.strip().lower().replace("−", "-")
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s in ("-inf", "-infinity"):
            return -math.inf
        raise ConfigInvalid(f"bad interval endpoint {v!r}")
    return _number(v, "interval endpoint")


def space_from_json(d: dict) -> ModelSpace:
    """Build a space from its JSON descriptor.

    {"kind":"interval","a":0,"b":"inf","open":[true,false]} or
    {"kind":"euclidean","n":2}.
    """
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigInvalid("space descriptor must be a dict with 'kind'")
    kind = d["kind"]
    if kind == "interval":
        open_flags = d.get("open", [True, True])
        if not (isinstance(open_flags, (list, tuple)) and len(open_flags) == 2
                and all(isinstance(flag, bool) for flag in open_flags)):
            raise ConfigInvalid("'open' must be a pair of booleans")
        return Interval(
            _endpoint_from_json(d.get("a", -math.inf)),
            _endpoint_from_json(d.get("b", math.inf)),
            *open_flags,
        )
    if kind == "euclidean":
        return EuclideanRn(_integer(d.get("n"), "n"))
    raise ConfigInvalid(f"unknown space kind {kind!r}")


def space_to_json(space: ModelSpace) -> dict:
    if isinstance(space, Interval):
        def enc(v):
            if v == math.inf:
                return "inf"
            if v == -math.inf:
                return "-inf"
            return v
        return {"kind": "interval", "a": enc(space.a), "b": enc(space.b),
                "open": [space.open_a, space.open_b]}
    return {"kind": "euclidean", "n": space.n}

"""Model geodesic spaces: real intervals and Euclidean R^n.

Both are uniquely geodesic with straight-segment geodesics, so every
"there exists a geodesic such that ..." quantifier collapses onto THE
segment.  Branching spaces are out of scope.  Each space class is the one
place that knows its geometry: its point shape (a point is a float on an
interval, an array of shape (n,) on R^n), distances over broadcast arrays
(every distance of the library, and from 0.0 every norm), points on a
segment, the closure, and the box the checkers sample in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import _integer, _number
from .errors import ConfigInvalid, EmptyDomain, ParamOutOfRange, PointOutsideSpace

Point = Union[float, np.ndarray]

_BOX_MARGIN = 1e-3  # of the default box, inside open finite ends
_BOX_EXTENT = 3.0  # of the default box, at infinite ends


class _FlatSpace:
    """The rules the two spaces share, written against their point shape."""

    def require_points(self, pts):
        """pts, if points of this space along the first axis (a curve's)."""
        if np.ndim(pts) == 0 or np.shape(pts)[1:] != self.shape:
            raise PointOutsideSpace(f"an array of shape {np.shape(pts)} not in {self}")
        return pts

    def sampling_box(self, box=None):
        """(lo, hi), points of box or of a default compact sub-box; box must
        be a pair of points of the space's shape with lo < hi everywhere."""
        box = self._default_box() if box is None else box
        try:
            arr = np.asarray(box, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numbers
            arr = None
        if arr is None or arr.shape != (2, *self.shape):
            raise ParamOutOfRange(f"a box of {self} is a pair of points of shape "
                                  f"{self.shape}, got {box!r}")
        if not np.all(arr[0] < arr[1]):
            raise EmptyDomain(f"no room to sample in the box {box} of {self}")
        return self.point(arr[0]), self.point(arr[1])


@dataclass(frozen=True)
class Interval(_FlatSpace):
    """Sub-interval of the reals, possibly unbounded, with open-end flags."""

    a: float = -math.inf
    b: float = math.inf
    open_a: bool = True
    open_b: bool = True

    shape = ()
    point = staticmethod(float)

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if math.isnan(a) or math.isnan(b) or not a < b:
            raise ParamOutOfRange(f"need a < b, got a={a}, b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def contains(self, x):
        """Membership, elementwise on arrays."""
        x = np.asarray(x, dtype=float)
        lo_ok = x > self.a if self.open_a else x >= self.a
        hi_ok = x < self.b if self.open_b else x <= self.b
        return lo_ok & hi_ok & np.isfinite(x)

    def closure_point(self, x) -> float:
        """x as a finite float in [a, b]; PointOutsideSpace otherwise."""
        arr = np.asarray(x, dtype=float)
        v = float(arr) if arr.ndim == 0 else math.nan
        if self.a <= v <= self.b and math.isfinite(v):
            return v
        raise PointOutsideSpace(f"{x!r} outside the closure of {self}")

    def distances(self, x0, x1):
        return np.abs(x1 - x0)

    def segment(self, x0, x1, t):
        return (1.0 - t) * x0 + t * x1

    def _default_box(self):
        lo = self.a + _BOX_MARGIN if self.open_a else self.a
        hi = self.b - _BOX_MARGIN if self.open_b else self.b
        lo = lo if math.isfinite(lo) else min(-_BOX_EXTENT, hi - 1.0)
        return lo, hi if math.isfinite(hi) else max(_BOX_EXTENT, lo + 1.0)


@dataclass(frozen=True)
class EuclideanRn(_FlatSpace):
    """Euclidean space of dimension n >= 1."""

    n: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise ParamOutOfRange("n must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    shape = property(lambda self: (self.n,))

    def contains(self, x) -> bool:
        arr = np.asarray(x, dtype=float)  # math.isfinite: cheap on short vectors
        return arr.shape == (self.n,) and all(map(math.isfinite, arr.tolist()))

    def point(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def closure_point(self, x) -> np.ndarray:
        """x as a finite array of shape (n,); PointOutsideSpace otherwise."""
        if self.contains(arr := np.asarray(x, dtype=float)):
            return arr
        raise PointOutsideSpace(f"{x!r} outside the closure of {self}")

    def distances(self, x0, x1):
        d = x1 - x0
        return np.sqrt(np.vecdot(d, d))

    def segment(self, x0, x1, t):
        t = np.asarray(t)[..., None]
        return (1.0 - t) * x0 + t * x1

    def _default_box(self):
        return -_BOX_EXTENT * np.ones(self.n), _BOX_EXTENT * np.ones(self.n)


ModelSpace = Union[Interval, EuclideanRn]


def _require_member(space: ModelSpace, x: Point) -> Point:
    """x as a point of the space: a float on an interval, an array on R^n."""
    if not space.contains(p := space.closure_point(x)):
        raise PointOutsideSpace(f"{x!r} not in {space}")
    return p


def dist(space: ModelSpace, x: Point, y: Point) -> float:
    """Euclidean distance between two points of the space."""
    return float(space.distances(_require_member(space, x), _require_member(space, y)))


@dataclass(frozen=True)
class Geodesic:
    """Constant-speed segment t in [0,1] |-> (1-t) p0 + t p1."""

    space: ModelSpace
    p0: Point
    p1: Point

    length = property(lambda self: dist(self.space, self.p0, self.p1))

    def __call__(self, t: float) -> Point:
        return geodesic_eval(self, t)


def geodesic(space: ModelSpace, x: Point, y: Point) -> Geodesic:
    """The unique straight-segment geodesic from x to y."""
    return Geodesic(space, _require_member(space, x), _require_member(space, y))


def geodesic_eval(g: Geodesic, t: float) -> Point:
    """Point at parameter t in [0,1]."""
    t = float(t)
    if math.isnan(t) or not (0.0 <= t <= 1.0):
        raise ParamOutOfRange(f"t must lie in [0,1], got {t}")
    return g.space.segment(g.p0, g.p1, t)


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


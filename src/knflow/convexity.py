"""Numerical verifiers for convexity inequalities along geodesics.

Two flavors: the classical quadratic-correction inequality with modulus
lambda, and the dimensional inequality in which the endpoint values of the
exponential transform are weighted by distortion ratio coefficients.  On
the model spaces used here geodesics are unique, so the existential
quantifier in both definitions collapses onto the straight segment.

Violations are measured against a scale-aware budget

    residual <= abs + rel * max(value(x0), value(x1), 1)

because the transform spans many orders of magnitude across a domain.  A
`Report` stores the worst excess over that budget plus a reproducible
witness (x0, x1, t).

Both checkers here and the variational-inequality checkers in the analysis
module reduce their residual grids with one kernel, `_grid_report`, which
walks the rows in blocks of at most `_BLOCK_CELLS` cells and returns a
`Report`.  Cells outside a checker's keep mask are vacuous; a kept cell
whose residual is +inf or NaN fails the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coefficients import CurvatureParams, sigma_values
from .core import DEFAULT_TOL, SampleSpec, Tolerance
from .errors import BadBracket, EmptyDomain, ParamOutOfRange, UnboundedAbove
from .functionals import Functional, fN_functional
from .spaces import Interval, distances

T_GRID_SIZE = 33  # t in {k/32}
_BOX_MARGIN = 1e-3
_BOX_EXTENT = 3.0
_BLOCK_CELLS = 1 << 16  # residual-grid cells evaluated at once


@dataclass(frozen=True)
class Report:
    """Outcome of an inequality check on a rows x cols grid of cells.

    The grid is pairs x t for convexity and time samples x reference
    points for the variational inequalities; `tested` cells lie inside the
    check's keep mask, the other rows*cols - tested are vacuous.
    max_violation is the largest excess of a residual over its budget; the
    check passes iff max_violation <= 0.  max_residual keeps the raw,
    un-budgeted worst residual for equality-case asserts.  Both are +inf
    when a tested cell has a +inf or NaN residual.  witness labels the
    first worst cell, (x0, x1, t) or (t, z), and is None when every cell
    is vacuous.
    """

    kind: str
    params: dict
    rows: int
    cols: int
    tested: int
    max_violation: float
    max_residual: float
    witness: Optional[tuple]
    passed: bool

    pairs_tested = t_samples = property(lambda self: self.rows)
    t_grid_size = z_samples = property(lambda self: self.cols)

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.params, "rows": self.rows,
                "cols": self.cols, "tested": self.tested,
                "max_violation": self.max_violation,
                "max_residual": self.max_residual,
                "witness": None if self.witness is None else list(self.witness),
                "pass": bool(self.passed)}


def sampling_box(fn: Functional, margin: float = _BOX_MARGIN,
                 extent: float = _BOX_EXTENT):
    """Compact sub-box of the domain, shrunk by `margin` at open ends."""
    if fn.sample_box is not None:
        return fn.sample_box
    sp = fn.space
    if isinstance(sp, Interval):
        lo = sp.a + margin if sp.open_a else sp.a
        hi = sp.b - margin if sp.open_b else sp.b
        if not math.isfinite(lo):
            lo = -extent
        if not math.isfinite(hi):
            hi = max(extent, lo + 1.0)
        if not lo < hi:
            raise EmptyDomain(f"no room to sample inside {sp}")
        return (lo, hi)
    n = sp.n
    return (-extent * np.ones(n), extent * np.ones(n))


def _draw_points(rng, box, count, dim1: bool):
    lo, hi = box
    if dim1:
        return rng.uniform(float(lo), float(hi), size=count)
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    return rng.uniform(lo, hi, size=(count, lo.size))


def _geodesic_values(fn: Functional, x0, x1, ts, dim1: bool):
    """f at gamma_t for every pair and every t; shape (pairs, t)."""
    if dim1:
        gamma = (1 - ts)[None, :] * x0[:, None] + ts[None, :] * x1[:, None]
    else:
        gamma = ((1 - ts)[None, :, None] * x0[:, None, :]
                 + ts[None, :, None] * x1[:, None, :]).reshape(-1, fn.space.n)
    return fn.values(gamma).reshape(len(x0), len(ts))


def _draw_pairs(fn: Functional, spec: SampleSpec, box, cap: Optional[float]):
    """Seeded pairs from the box, resampling any pair beyond the cap."""
    rng = spec.rng()
    dim1 = isinstance(fn.space, Interval)
    x0 = _draw_points(rng, box, spec.count, dim1)
    x1 = _draw_points(rng, box, spec.count, dim1)
    if cap is not None and math.isfinite(cap):
        for _ in range(1000):
            bad = distances(x0, x1, dim1) >= cap
            if not bad.any():
                break
            k = int(bad.sum())
            x0[bad] = _draw_points(rng, box, k, dim1)
            x1[bad] = _draw_points(rng, box, k, dim1)
        else:
            raise EmptyDomain("could not sample pairs under the distance cap")
    return x0, x1


def _finite_pair_filter(good):
    """The mask of pairs to test; EmptyDomain if it keeps none."""
    if not good.any():
        raise EmptyDomain("no sampled pair has finite values")
    return good


def _row_blocks(n_rows: int, n_cols: int):
    """(lo, hi) row ranges of at most _BLOCK_CELLS cells, one row at least."""
    step = max(1, _BLOCK_CELLS // n_cols)
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _grid_report(kind, params, n_rows: int, n_cols: int, block,
                 label) -> Report:
    """Reduce an n_rows x n_cols residual grid, walked in row blocks.

    block(lo, hi) returns (residual, budget, keep) for rows lo:hi, each
    broadcastable to (hi - lo, n_cols), with residual of full shape.
    Cells outside keep are vacuous (excess -inf).  A kept cell whose
    residual is +inf or NaN fails: its excess and raw residual are +inf.
    The witness is label(row, col) of the first worst cell in row-major
    order, None if every cell is vacuous.
    """
    best, max_res, cell, tested = -math.inf, -math.inf, None, 0
    for lo, hi in _row_blocks(n_rows, n_cols):
        residual, budget, keep = block(lo, hi)
        tested += int(np.count_nonzero(keep)) * ((hi - lo) * n_cols
                                                 // np.size(keep))
        res = np.where(keep, np.where(np.isnan(residual), math.inf, residual),
                       -math.inf)
        with np.errstate(invalid="ignore"):
            excess = np.where(res < math.inf, res - budget, math.inf)
        k = int(np.argmax(excess))
        if excess.flat[k] > best:
            best = float(excess.flat[k])
            cell = (lo + k // n_cols, k % n_cols)
        max_res = max(max_res, float(res.max()))
    return Report(kind, params, n_rows, n_cols, tested, best, max_res,
                  None if cell is None else label(*cell), best <= 0.0)


def check_lambda_convex(fn: Functional, lam: float, spec: SampleSpec,
                        tol: Tolerance = DEFAULT_TOL,
                        box=None) -> Report:
    """Sample-based test of the modulus-lambda convexity inequality."""
    lam = float(lam)
    if math.isnan(lam):
        raise ParamOutOfRange("lambda must be a real number")
    box = box if box is not None else sampling_box(fn)
    dim1 = isinstance(fn.space, Interval)
    x0, x1 = _draw_pairs(fn, spec, box, cap=None)
    f0 = fn.values(x0)
    f1 = fn.values(x1)
    good = _finite_pair_filter(np.isfinite(f0) & np.isfinite(f1))
    x0, x1, f0, f1 = x0[good], x1[good], f0[good], f1[good]
    d = distances(x0, x1, dim1)
    ts = np.linspace(0.0, 1.0, T_GRID_SIZE)
    scale = np.maximum(1.0, np.maximum(np.abs(f0), np.abs(f1)))[:, None]
    budget = tol.abs + tol.rel * scale

    def block(lo, hi):
        fg = _geodesic_values(fn, x0[lo:hi], x1[lo:hi], ts, dim1)
        chord = ((1 - ts)[None, :] * f0[lo:hi, None]
                 + ts[None, :] * f1[lo:hi, None]
                 - 0.5 * lam * (ts * (1 - ts))[None, :] * (d[lo:hi] ** 2)[:, None])
        return fg - chord, budget[lo:hi], True

    return _grid_report("lambda", {"lambda": lam}, len(x0), len(ts), block,
                        lambda i, j: (x0[i].tolist(), x1[i].tolist(), float(ts[j])))


def check_kn_convex(fn: Functional, p: CurvatureParams, spec: SampleSpec,
                    tol: Tolerance = DEFAULT_TOL, box=None,
                    enforce_cap: bool = True) -> Report:
    """Sample-based test of the dimensional convexity inequality.

    Pairs come from the extended domain; for K < 0 they are kept below
    the singular distance cap unless enforce_cap=False (singular cells are
    then vacuously satisfied since the right side is +inf).
    """
    box = box if box is not None else sampling_box(fn)
    dim1 = isinstance(fn.space, Interval)
    cap = p.theta_singular if (enforce_cap and p.K < 0) else None
    x0, x1 = _draw_pairs(fn, spec, box, cap)
    g0 = -fn.values(x0) / p.N
    g1 = -fn.values(x1) / p.N
    good = _finite_pair_filter((g0 < math.inf) & (g1 < math.inf))
    x0, x1, g0, g1 = x0[good], x1[good], g0[good], g1[good]
    with np.errstate(over="ignore"):
        fN0 = np.exp(g0)[:, None]
        fN1 = np.exp(g1)[:, None]
    d = distances(x0, x1, dim1)[:, None]
    ts = np.linspace(0.0, 1.0, T_GRID_SIZE)
    budget = tol.abs + tol.rel * np.maximum(1.0, np.maximum(fN0, fN1))

    def block(lo, hi):
        with np.errstate(over="ignore"):
            lhs = np.exp(-_geodesic_values(fn, x0[lo:hi], x1[lo:hi], ts, dim1)
                         / p.N)
        rhs = (_conv_mul(sigma_values(p, (1 - ts)[None, :], d[lo:hi]), fN0[lo:hi])
               + _conv_mul(sigma_values(p, ts[None, :], d[lo:hi]), fN1[lo:hi]))
        with np.errstate(invalid="ignore"):
            residual = lhs - rhs
        return residual, budget[lo:hi], rhs < math.inf

    return _grid_report("KN", {"K": p.K, "N": p.N}, len(x0), len(ts), block,
                        lambda i, j: (x0[i].tolist(), x1[i].tolist(), float(ts[j])))


def _conv_mul(coef, val):
    """Elementwise coef*val with the conventions 0*inf = inf*0 = 0."""
    with np.errstate(invalid="ignore"):
        out = coef * val
    zero = (coef == 0.0) | (val == 0.0)
    return np.where(zero, 0.0, out)


def check_gluing(fn: Functional, p: CurvatureParams, a: float, b: float,
                 c: float, d: float, tol: Tolerance = DEFAULT_TOL,
                 spec: Optional[SampleSpec] = None) -> bool:
    """Locality of the dimensional inequality on an interval.

    Checks the implication: passing on [a,c] and on [b,d] implies passing
    on [a,d].  Returns the truth value of that implication.
    """
    if not (a < b < c < d):
        raise BadBracket(f"need a<b<c<d, got {(a, b, c, d)}")
    if not isinstance(fn.space, Interval):
        raise ParamOutOfRange("gluing check is for interval functionals")
    if not (fn.space.contains_closure(a) and fn.space.contains_closure(d)):
        raise BadBracket("[a,d] must sit inside the interval domain")
    spec = spec or SampleSpec(seed=20, count=400)
    on_ac = check_kn_convex(fn, p, spec, tol, box=(a, c)).passed
    on_bd = check_kn_convex(fn, p, spec, tol, box=(b, d)).passed
    if not (on_ac and on_bd):
        return True  # implication is vacuous
    return check_kn_convex(fn, p, spec, tol, box=(a, d)).passed


def lifted_modulus(p: CurvatureParams, M) -> float:
    """Convexity modulus inherited by the exponential transform.

    Zero for K >= 0; for K < 0 it is -(K/N) * exp(-M/N) where M bounds the
    functional from above.
    """
    if p.K >= 0:
        return 0.0
    M = float(M)
    if M == math.inf:
        raise UnboundedAbove("K < 0 needs a finite upper bound M")
    if math.isnan(M):
        raise ParamOutOfRange("M must be a real number or +inf")
    return -(p.K / p.N) * math.exp(-M / p.N)


def check_lifting(fn: Functional, p: CurvatureParams, M, spec: SampleSpec,
                  tol: Tolerance = DEFAULT_TOL, box=None) -> Report:
    """Check that the exponential transform is lambda-convex with the
    inherited modulus (0 for K >= 0, -(K/N)e^{-M/N} for K < 0)."""
    lam = lifted_modulus(p, M if M is not None else math.inf)
    gN = fN_functional(fn, p)
    return replace(check_lambda_convex(gN, lam, spec, tol, box=box),
                   kind="lifting",
                   params={"K": p.K, "N": p.N,
                           "M": None if p.K >= 0 else float(M), "lambda": lam})

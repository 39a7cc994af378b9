"""Verification suite for evolution variational inequalities and dissipation.

Checks run over sampled (time, reference point) grids.  A differential
inequality  d+/dt phi(t) <= RHS(t)  is verified in its step-integrated
form on each grid cell,

    [phi(t_{i+1}) - phi(t_i)] / h  <=  [RHS(t_i) + RHS(t_{i+1})] / 2 + budget,

which the inequality implies by integration and which is second-order
accurate; comparing the quotient against the left endpoint alone carries
a first-order bias proportional to the curve's acceleration and produces
false failures exactly at equality configurations.  The budget

    budget = abs + rel * scale + C * h^2 * (1 + L_loc^4)

uses a local Lipschitz estimate L_loc taken from the curve itself, so
genuine violations (wrong parameters, jittered points) exceed it by
orders of magnitude while discretization residue stays inside.

Reference points are sampled in three strata: near the curve (within one
local Lipschitz step), mid-range in the sampling box, and hugging the
domain boundary.  The inequality for curvature K and dimension N < 0 is
checked in three algebraically equivalent forms ("raw" on the squared
half-angle kernel, "i"/"ii" on the squared distance), in an integrated
window form with no differentiation at all, and in a localized form
restricted to balls.

Every check reduces its (time sample x reference point) residual grid with
the convexity module's grid kernel, one block of time samples at a time,
into a `Report` with witness (t, z); reference points are drawn for all
time samples at once, one call per stratum.
Cells with f = +inf at the reference point or past the singular cap are
vacuous, and so is a right-hand side of +inf (its residual is -inf).  A
kept cell whose residual is +inf or NaN fails the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import CurvatureParams, c_values, s_values
from .convexity import Report, _grid_report, _row_blocks, sampling_box
from .core import DEFAULT_TOL, SampleSpec, Tolerance, _halving_steps
from .errors import (
    DisjointWindows,
    KZero,
    ParamOutOfRange,
    PointOutsideDomain,
    TooFewSamples,
)
from .flows import Curve
from .functionals import Functional
from .spaces import Geodesic, Interval, distances

_BOUNDARY_MARGIN = 1e-3
_SUP_LEVELS = 12
_STEP_BIAS_COEFF = 20.0  # C in the step-residual budget


@dataclass
class EnergyAudit:
    """Per-sample dissipation data along a curve.

    residual(t) = -df/dt - speed^2/2 - slope^2/2 (central differences,
    one-sided at the ends); ede_residual integrates the same balance over
    the window.  budget is the discretization-aware per-sample allowance.
    """

    times: np.ndarray
    speed: np.ndarray
    slope: np.ndarray
    energy: np.ndarray
    residual: np.ndarray
    budget: np.ndarray
    ede_residual: float

    @property
    def passes_pointwise_balance(self) -> bool:
        return bool((np.abs(self.residual) <= self.budget).all())

    @property
    def fails_dissipation_inequality(self) -> bool:
        """True when dissipation falls short somewhere beyond the budget."""
        return bool((self.residual < -self.budget).any())


@dataclass(frozen=True)
class Bracket:
    """Supremum of scaled forward difference quotients of d^2 along rays."""

    value: float


@dataclass(frozen=True)
class ContractionRate:
    max_log_slope: float
    fitted_rate: float
    times: np.ndarray
    distances: np.ndarray


# ---------------------------------------------------------------------------
# elementary estimators
# ---------------------------------------------------------------------------

def forward_upper_derivative(g: Callable[[float], float], t: float,
                             tol: Tolerance = DEFAULT_TOL,
                             h0: float = 0.25, tail: int = 3) -> float:
    """limsup of (g(t+h) - g(t))/h as h -> 0+.

    Difference quotients over h = h0 * 2^-k down to tol.h_min; the max of
    the finest `tail` levels estimates the limsup.
    """
    hs = _halving_steps(h0, tol.h_min, "h0")
    g0 = float(g(t))
    quotients = [(float(g(t + h)) - g0) / h for h in hs]
    return float(max(quotients[-tail:]))


def metric_derivative(c: Curve) -> np.ndarray:
    """Central-difference metric speed, one-sided at the ends."""
    if c.n_samples < 3:
        raise TooFewSamples("metric derivative needs >= 3 samples")
    t, x = c.times, c.points
    seg = _interval_speeds(c)
    central = distances(x[:-2], x[2:], c.is_1d) / (t[2:] - t[:-2])
    return np.concatenate((seg[:1], central, seg[-1:]))


def _interval_speeds(c: Curve) -> np.ndarray:
    return distances(c.points[:-1], c.points[1:], c.is_1d) / np.diff(c.times)


def _local_lipschitz(c: Curve, window: int = 3) -> np.ndarray:
    """Per-interval speed bound: max of nearby interval speeds."""
    v = np.pad(_interval_speeds(c), window, constant_values=-math.inf)
    return sliding_window_view(v, 2 * window + 1).max(axis=1)


def _budget_lipschitz(c: Curve, local: np.ndarray,
                      stride: int = 8) -> np.ndarray:
    """Speed estimate feeding the discretization budget.

    The smaller of the local per-cell bound and twice a stride-averaged
    speed.  The two agree on smooth curves; on noisy data the per-cell
    bound inflates like noise/h and would blow the budget up, while the
    stride average stays at the noise/(stride*h) scale, so violations
    introduced by the noise remain visible.
    """
    m = c.n_samples
    i = np.arange(len(local))
    lo = np.maximum(i - stride, 0)
    hi = np.minimum(i + stride, m - 1)
    avg = distances(c.points[lo], c.points[hi], c.is_1d) \
        / (c.times[hi] - c.times[lo])
    return np.minimum(local, 2.0 * avg + 1e-12)


# ---------------------------------------------------------------------------
# reference-point sampling
# ---------------------------------------------------------------------------

def _directions(rng, shape, dim: int) -> np.ndarray:
    """Unit vectors of R^dim, uniform on the sphere, of shape shape + (dim,)."""
    u = rng.normal(size=(*shape, dim))
    return u / np.maximum(distances(0.0, u, False), 1e-300)[..., None]


def _stratified_z(fn: Functional, x_t, steps, rng, n: int) -> np.ndarray:
    """Near-curve / mid-range / near-boundary reference points in the box.

    One row of n points per curve point x_t[k]; its first n // 3 lie
    within steps[k] of x_t[k].  Each stratum is one call for all rows: on
    intervals one rng.random, mapped as low + (high - low) u in the stream
    order of row-by-row rng.uniform calls; on R^n unit directions e, radii
    u, then uniform points for the rest (no boundary stratum), with near
    points x_t[k] + steps[k] u e clipped to the box.
    """
    box = sampling_box(fn)
    n_near = n // 3
    n_mid = n // 3
    n_bnd = n - n_near - n_mid
    if isinstance(fn.space, Interval):
        lo, hi = float(box[0]), float(box[1])
        j1, j2 = n_near, n_near + n_mid
        j3 = j2 + n_bnd // 2
        z = rng.random((len(x_t), n))
        z[:, :j1] = np.clip(x_t[:, None] + steps[:, None] * (-1.0 + 2.0 * z[:, :j1]),
                            lo, hi)
        z[:, j1:j2] = lo + (hi - lo) * z[:, j1:j2]
        z[:, j2:j3] = np.clip(lo + _BOUNDARY_MARGIN * z[:, j2:j3], lo, hi)
        z[:, j3:] = np.clip(hi - _BOUNDARY_MARGIN * z[:, j3:], lo, hi)
        return z
    lo = np.asarray(box[0], float)
    hi = np.asarray(box[1], float)
    rows, dim = len(x_t), lo.size
    dirs = _directions(rng, (rows, n_near), dim)
    near = x_t[:, None, :] + steps[:, None, None] \
        * rng.uniform(0, 1, size=(rows, n_near, 1)) * dirs
    mid = rng.uniform(lo, hi, size=(rows, n - n_near, dim))
    return np.clip(np.concatenate([near, mid], axis=1), lo, hi)


def _time_indices(c: Curve, t_samples: int) -> np.ndarray:
    m = c.n_samples
    if m < 2:
        raise TooFewSamples("need at least two samples for a forward step")
    return np.unique(np.linspace(0, m - 2, min(t_samples, m - 1)).round()
                     .astype(int))


# ---------------------------------------------------------------------------
# variational inequality checks
# ---------------------------------------------------------------------------

def _z_rows(c: Curve, fn: Functional, spec: SampleSpec, z_override):
    """Row drawer for the stratified (or overridden) reference points."""
    def draw(idx, steps):
        if z_override is not None:
            z = np.asarray(z_override, dtype=float)
            return np.broadcast_to(z, (len(idx),) + z.shape)
        return _stratified_z(fn, c.points[idx], steps, spec.rng(), spec.count)
    return draw


def _step_check(form, params, c: Curve, fn: Functional, tol: Tolerance,
                t_samples: int, draw, keep, rhs,
                raw: Optional[CurvatureParams] = None) -> Report:
    """Step-integrated check on the (time sample, reference point) grid.

    draw(idx, steps) gives the reference points of the time samples idx,
    one row each, with near-curve radii steps.  On a cell
    with reference point z, at distances d0, d1 from the step's end
    points, keep(fz, z, d0, d1) says whether the cell is tested, and
    rhs(d, u, fz, f_k) is the right-hand side at the end point with value
    f_k.  The left side is the step quotient of d^2/2, or, when raw holds
    the curvature parameters, of the squared half-angle kernel
    u = s(d/2)^2, which rhs then gets (None otherwise).
    """
    one_d = isinstance(fn.space, Interval)
    idx = _time_indices(c, t_samples)
    local = _local_lipschitz(c)
    # float_power: the same libm pow as a scalar L ** 4
    L4 = np.float_power(_budget_lipschitz(c, local)[idx], 4)[:, None]
    f_curve = fn.values(c.points)
    if not np.isfinite(f_curve[idx]).all() or \
            not np.isfinite(f_curve[idx + 1]).all():
        raise PointOutsideDomain(f"curve leaves the finiteness domain of {fn.name}")
    h = (c.times[idx + 1] - c.times[idx])[:, None]
    zs = draw(idx, np.maximum(local[idx] * h[:, 0], 1e-3))

    def block(lo, hi):
        i, z, hb = idx[lo:hi], zs[lo:hi], h[lo:hi]
        fz = fn.values(z.reshape(-1, *z.shape[2:])).reshape(z.shape[:2])
        d0 = distances(c.points[i, None], z, one_d)
        d1 = distances(c.points[i + 1, None], z, one_d)
        if raw is None:
            u0 = u1 = None
            q = (d1 ** 2 - d0 ** 2) / (2.0 * hb)
            gain = 1.0
        else:
            u0, u1 = (s_values(raw, d / 2.0) ** 2 for d in (d0, d1))
            q = (u1 - u0) / hb
            gain = c_values(raw, d0 / 2.0) ** 2 + abs(raw.K / raw.N) * u0
        rhs0 = rhs(d0, u0, fz, f_curve[i, None])
        rhs1 = rhs(d1, u1, fz, f_curve[i + 1, None])
        with np.errstate(invalid="ignore"):
            residual = q - 0.5 * (rhs0 + rhs1)
            scale = np.maximum(1.0, np.where(np.isfinite(rhs0),
                                             np.abs(rhs0), 1.0))
        budget = tol.abs + tol.rel * scale \
            + _STEP_BIAS_COEFF * gain * hb * hb * (1.0 + L4[lo:hi])
        return residual, budget, keep(fz, z, d0, d1)

    return _grid_report(form, params, len(idx), zs.shape[1], block,
                        lambda i, j: (float(c.times[idx[i]]), zs[i, j].tolist()))


def check_evi_lambda(c: Curve, gn: Functional, lam: float, spec: SampleSpec,
                     tol: Tolerance = DEFAULT_TOL, t_samples: int = 50,
                     z_override=None) -> Report:
    """Step-integrated check of the modulus-lambda variational inequality."""
    return _step_check(
        "evi_lambda", {"lambda": lam}, c, gn, tol, t_samples,
        _z_rows(c, gn, spec, z_override),
        keep=lambda gz, z, d0, d1: np.isfinite(gz),
        rhs=lambda d, u, gz, g_k: gz - g_k - 0.5 * lam * d ** 2)


EVI_KN_FORMS = ("raw", "i", "ii")


def _kn_rhs(form, p, d, u, ratio):
    """Right-hand side of the chosen form, with u = s(d/2)^2 in the raw
    form; d/s(d) and d s(d/2)^2/s(d) take their limit values 1 and 0 at
    d = 0."""
    if form == "raw":
        return 0.5 * p.N * (1.0 - ratio) - p.K * u
    pos = d > 0
    s = s_values(p, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(s != 0, s, 1.0)
        dos = np.where(pos, d / s, 1.0)
        if form == "i":
            half = np.where(pos, d * s_values(p, d / 2.0) ** 2 / s, 0.0)
            return p.N * dos * (1.0 - ratio) - 2.0 * p.K * half
    return p.N * dos * (c_values(p, d) - ratio)


def check_evi_kn(c: Curve, fn: Functional, p: CurvatureParams, form: str,
                 spec: SampleSpec, tol: Tolerance = DEFAULT_TOL,
                 t_samples: int = 50, z_domain: str = "extended",
                 z_override=None) -> Report:
    """Step-integrated check of the dimensional variational inequality.

    form "raw" tests the inequality on the squared half-angle kernel;
    forms "i" and "ii" test the equivalent inequalities on the squared
    distance.  For K < 0, reference points beyond the singular distance
    cap are skipped at each time sample.  z ranges over the extended
    domain (f < +inf) by default, or over finite-f points with
    z_domain="closure".
    """
    if form not in EVI_KN_FORMS:
        raise ParamOutOfRange(f"form must be one of {EVI_KN_FORMS}")
    if z_domain not in ("extended", "closure"):
        raise ParamOutOfRange("z_domain must be 'extended' or 'closure'")
    cap = p.theta_singular

    def keep(fz, z, d0, d1):
        out = fz < math.inf if z_domain == "extended" else np.isfinite(fz)
        return out & (d0 < cap) & (d1 < cap)

    def rhs(d, u, fz, f_k):
        g_k = -f_k / p.N
        with np.errstate(over="ignore"):
            ratio = np.exp(-fz / p.N - g_k)
        return _kn_rhs(form, p, d, u, ratio)

    return _step_check(f"evi_kn_{form}", {"K": p.K, "N": p.N}, c, fn, tol,
                       t_samples, _z_rows(c, fn, spec, z_override), keep, rhs,
                       raw=p if form == "raw" else None)


def _first_exits(points, zs, cap: float, one_d: bool) -> np.ndarray:
    """Per reference point, the first curve index at distance >= cap
    (len(points) if the curve stays closer)."""
    out = np.full(len(zs), len(points))
    for lo, hi in _row_blocks(len(points), len(zs)):
        far = distances(points[lo:hi, None], zs, one_d) >= cap
        new = far.any(axis=0) & (out == len(points))
        out[new] = lo + far[:, new].argmax(axis=0)
    return out


def check_evi_integrated(c: Curve, fn: Functional, p: CurvatureParams,
                         spec: SampleSpec, tol: Tolerance = DEFAULT_TOL,
                         t_samples: int = 50) -> Report:
    """Integrated window form of the dimensional inequality (K != 0 only).

    Compares exponential-window gains of the squared half-angle kernel
    against the transform ratio at the window end; no numerical
    differentiation is involved.
    """
    if p.K == 0:
        raise KZero("the integrated form needs K != 0")
    one_d = isinstance(fn.space, Interval)
    if c.n_samples < 2:
        raise TooFewSamples("need at least two samples")
    rng = spec.rng()
    zs = _stratified_z(fn, c.points[:1], np.array([0.5]), rng, spec.count)[0]
    fz = fn.values(zs)
    f_curve = fn.values(c.points)
    if not np.isfinite(f_curve).all():
        raise PointOutsideDomain("curve leaves the finiteness domain of f")
    u_start = s_values(p, distances(c.points[:1, None], zs, one_d)
                       / 2.0) ** 2
    idx = np.unique(np.linspace(1, c.n_samples - 1,
                                min(t_samples, c.n_samples - 1)).round()
                    .astype(int))
    # math.exp, as for a scalar window length: np.exp may differ in the
    # last bit
    ekt = np.array([math.exp(p.K * t) for t in c.times[idx] - c.times[0]])[:, None]
    exits = _first_exits(c.points, zs, p.theta_singular, one_d)

    def block(lo, hi):
        i, e = idx[lo:hi], ekt[lo:hi]
        u = s_values(p, distances(c.points[i, None], zs, one_d) / 2.0) ** 2
        with np.errstate(over="ignore"):
            ratio = np.exp((-fz + f_curve[i, None]) / p.N)
        rhs_gain = p.N * (e - 1.0) / (2.0 * p.K) * (1.0 - ratio)
        with np.errstate(invalid="ignore"):
            residual = e * u - u_start - rhs_gain
        scale = np.maximum(1.0, np.where(np.isfinite(rhs_gain),
                                         np.abs(rhs_gain), 1.0))
        return residual, tol.abs + tol.rel * scale, \
            (fz < math.inf) & (i[:, None] < exits)

    return _grid_report("evi_integrated", {"K": p.K, "N": p.N}, len(idx),
                        len(zs), block,
                        lambda i, j: (float(c.times[idx[i]]), zs[j].tolist()))


def check_evi_local(c: Curve, gn: Functional, lam: float, radius: float,
                    spec: SampleSpec, tol: Tolerance = DEFAULT_TOL,
                    t_samples: int = 50,
                    z_filter: Optional[Callable] = None) -> Report:
    """Localized version: reference points restricted to balls around the
    curve (optionally filtered further, e.g. to a sublevel set)."""
    if not radius > 0:
        raise ParamOutOfRange("radius must be > 0")
    one_d = isinstance(gn.space, Interval)
    box = sampling_box(gn)

    def draw(idx, steps):
        rng = spec.rng()
        x_t = c.points[idx]
        if one_d:  # rng.uniform(lo, hi) row by row, as one batch
            lo = np.maximum(float(box[0]), x_t - radius)[:, None]
            hi = np.minimum(float(box[1]), x_t + radius)[:, None]
            return lo + (hi - lo) * rng.random((len(idx), spec.count))
        shape, dim = (len(idx), spec.count), gn.space.n
        dirs = _directions(rng, shape, dim)
        radii = radius * rng.uniform(0, 1, size=(*shape, 1)) ** (1.0 / dim)
        return np.clip(x_t[:, None, :] + radii * dirs,
                       np.asarray(box[0]), np.asarray(box[1]))

    def keep(gz, z, d0, d1):
        out = np.isfinite(gz)
        if z_filter is not None:
            pts = z.reshape(-1, *z.shape[2:])
            out &= np.asarray([bool(z_filter(z_k)) for z_k in pts]).reshape(gz.shape)
        return out

    return _step_check(
        "evi_local", {"lambda": lam, "radius": radius}, c, gn, tol, t_samples,
        draw, keep, rhs=lambda d, u, gz, g_k: gz - g_k - 0.5 * lam * d ** 2)


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------

def _in_interval(sp: Interval, z: np.ndarray) -> np.ndarray:
    """Elementwise ``sp.contains``: finite and inside, per the open ends."""
    return np.isfinite(z) & (z > sp.a if sp.open_a else z >= sp.a) \
        & (z < sp.b if sp.open_b else z <= sp.b)


def _definition_slopes(fn: Functional, ys: np.ndarray, fys: np.ndarray,
                       r0s: np.ndarray, levels: int,
                       spec: Optional[SampleSpec]) -> np.ndarray:
    """Definition slopes at the points ys, whose values are fys.

    Difference quotients (f(y) - f(y + r u)) / r are taken along
    directions u at the two finest radii, r0 2^-(levels-2) and
    r0 2^-(levels-1), of the halving sequence from r0: u = +-1 on
    intervals, dropping probes outside the interval, and on R^n 32 random
    unit vectors drawn once from spec.  The limit along each direction is
    Richardson-extrapolated from the two radii: exact for quotients
    linear in the radius, and the identity at kinks, where quotients are
    radius-independent.  Keeping the raw finest quotient as well would
    reintroduce the O(radius) bias on directions with concave profiles.
    A direction whose coarser probe is outside uses its finest quotient;
    one with no probe inside counts as 0.  Negative parts are floored at
    zero.
    """
    r = r0s[:, None] * np.array([0.5 ** (levels - 2), 0.5 ** (levels - 1)])
    if isinstance(fn.space, Interval):
        probes = ys[:, None, None] + np.array([1.0, -1.0])[None, :, None] \
            * r[:, None, :]
        inside = _in_interval(fn.space, probes)
        vals = np.full(probes.shape, math.nan)
        vals[inside] = fn.values(probes[inside])
    else:
        dim = fn.space.n
        dirs = _directions((spec or SampleSpec(seed=0, count=32)).rng(), (32,),
                           dim)
        probes = ys[:, None, None, :] + r[:, None, :, None] \
            * dirs[None, :, None, :]
        vals = fn.values(probes.reshape(-1, dim)).reshape(probes.shape[:3])
        inside = np.ones(vals.shape, dtype=bool)
    quot = (fys[:, None, None] - vals) / r[:, None, :]
    prev = np.where(inside[..., 0], quot[..., 0], quot[..., 1])
    ext = np.where(inside[..., 1], 2.0 * quot[..., 1] - prev, 0.0)
    return np.max(np.maximum(ext, 0.0), axis=1)


def slope(fn: Functional, y, method: str, spec: Optional[SampleSpec] = None,
          p: Optional[CurvatureParams] = None, R: Optional[float] = None,
          r0: Optional[float] = None, levels: int = _SUP_LEVELS) -> float:
    """Descending slope at y.

    "definition": limsup of the negative part of difference quotients,
    estimated over geometrically shrinking radii with direction-wise
    extrapolation at the finest levels.  "formula": the kernel-weighted
    supremum over a ball of radius R, which needs curvature parameters
    and, for K < 0, R below the singular distance cap.
    """
    fy = fn.value(y)
    if not math.isfinite(fy):
        raise PointOutsideDomain(f"f({y!r}) = {fy}")
    if method == "definition":
        y0 = np.asarray(y, float)
        norm = float(distances(0.0, y0, isinstance(fn.space, Interval)))
        r_start = r0 if r0 is not None else 0.0625 * (1.0 + norm)
        return float(_definition_slopes(fn, y0[None], np.array([fy]),
                                        np.array([r_start]), levels, spec)[0])
    if method == "formula":
        if p is None or R is None:
            raise ParamOutOfRange("formula method needs p=(K,N) and R")
        if p.K < 0 and R >= p.theta_singular:
            raise ParamOutOfRange("R must be below the singular distance cap")
        if not isinstance(fn.space, Interval):
            raise ParamOutOfRange("formula slope implemented on intervals")
        y = float(y)
        radii = R * 0.5 ** np.arange(levels)
        parts = [y + radii, y - radii]
        if spec is not None:
            parts.append(y + R * spec.rng().uniform(-1, 1, size=spec.count))
        zs = np.concatenate(parts)
        zs = zs[_in_interval(fn.space, zs) & (zs != y)]
        if len(zs) == 0:
            return 0.0
        fz = fn.values(zs)
        keep = fz < math.inf
        zs, fz = zs[keep], fz[keep]
        d = distances(y, zs, True)
        with np.errstate(over="ignore"):
            ratio = np.exp((-fz + fy) / p.N)
        expr = p.N / s_values(p, d) * (1.0 - ratio) \
            - p.K * s_values(p, d / 2.0) / c_values(p, d / 2.0)
        return float(np.max(np.maximum(-expr, 0.0)))
    raise ParamOutOfRange("method must be 'definition' or 'formula'")


# ---------------------------------------------------------------------------
# energy audit
# ---------------------------------------------------------------------------

def energy_audit(c: Curve, fn: Functional, tol: Tolerance = DEFAULT_TOL,
                 slope_r0: float = 1e-3,
                 spec: Optional[SampleSpec] = None) -> EnergyAudit:
    """Dissipation balance along a curve.

    Central differences for -df/dt and the metric speed; the slope uses
    the definition estimator started at a small radius.  The budget per
    sample covers the quadratic bias of the central differences plus the
    slope estimator's resolution floor.
    """
    if c.n_samples < 3:
        raise TooFewSamples("energy audit needs >= 3 samples")
    energy = fn.values(c.points)
    if not np.isfinite(energy).all():
        raise PointOutsideDomain("curve leaves the finiteness domain")
    speed = metric_derivative(c)
    norms = distances(0.0, c.points, c.is_1d)
    slopes = _definition_slopes(fn, c.points, energy, slope_r0 * (1.0 + norms),
                                _SUP_LEVELS, spec)
    t = c.times
    dfdt = np.empty(c.n_samples)
    dfdt[1:-1] = (energy[2:] - energy[:-2]) / (t[2:] - t[:-2])
    dfdt[0] = (energy[1] - energy[0]) / (t[1] - t[0])
    dfdt[-1] = (energy[-1] - energy[-2]) / (t[-1] - t[-2])
    residual = -dfdt - 0.5 * speed ** 2 - 0.5 * slopes ** 2
    h = np.empty(c.n_samples)
    h[1:-1] = 0.5 * (t[2:] - t[:-2])
    h[0] = t[1] - t[0]
    h[-1] = t[-1] - t[-2]
    r_fin = slope_r0 * 0.5 ** (_SUP_LEVELS - 1)
    budget = (tol.abs + 4.0 * h ** 2 * (1.0 + speed ** 6)
              + 1e-4 * r_fin * (1.0 + np.abs(slopes) ** 3)
              + tol.rel * (1.0 + speed ** 2 + slopes ** 2))
    # the two window ends use one-sided differences (first-order bias);
    # pointwise balance is judged on interior samples only
    budget[0] = budget[-1] = math.inf
    dissipation = 0.5 * speed ** 2 + 0.5 * slopes ** 2
    ede = abs(energy[-1] - energy[0] + np.trapezoid(dissipation, t))
    return EnergyAudit(times=t, speed=speed, slope=slopes, energy=energy,
                       residual=residual, budget=budget,
                       ede_residual=float(ede))


# ---------------------------------------------------------------------------
# bracket against geodesics
# ---------------------------------------------------------------------------

def bracket(c: Curve, t0: float, g: Geodesic,
            levels: int = _SUP_LEVELS) -> Bracket:
    """Sup over ray parameters s of the scaled forward quotient of d^2.

    Estimates sup_s (1/2s) d+/dt d^2(y_t, z_s) at a grid time t0 with the
    time derivative at the curve's grid resolution; ray parameters are
    kept well above the grid step, where the scaled quotient is
    resolution-limited.
    """
    i = int(np.argmin(np.abs(c.times - t0)))
    if abs(c.times[i] - t0) > 1e-9 * (1.0 + abs(t0)):
        raise ParamOutOfRange(f"t0={t0} is not a grid time")
    if i >= c.n_samples - 1:
        raise ParamOutOfRange("t0 must have a forward neighbor")
    one_d = c.is_1d
    x0, x1 = c.points[i], c.points[i + 1]
    p0, p1 = np.asarray(g.p0, float), np.asarray(g.p1, float)
    # |x0| as the distance from the origin
    if distances(x0, p0, one_d) > 1e-9 * (1.0 + distances(0.0, x0, one_d)):
        raise ParamOutOfRange("geodesic must emanate from the curve point")
    h = c.times[i + 1] - c.times[i]
    s = 0.5 ** np.arange(max(levels, 1))
    s = s[s >= min(0.25, 256.0 * h)]  # keeps s = 1
    z = (1.0 - s) * p0 + s * p1 if one_d else \
        (1.0 - s)[:, None] * p0 + s[:, None] * p1
    q = (distances(x1, z, one_d) ** 2 - distances(x0, z, one_d) ** 2) \
        / h / (2.0 * s)
    return Bracket(value=float(np.max(q)))


# ---------------------------------------------------------------------------
# contraction certificates
# ---------------------------------------------------------------------------

def contraction_rate(c1: Curve, c2: Curve, r: float,
                     s_grid=None) -> ContractionRate:
    """Measured upper bound for the exponential rate between two curves.

    Reports the max over grid times s > r of (log d(s) - log d(r))/(s - r)
    plus a least-squares fitted rate of log d(s) over [r, end].
    """
    lo = max(c1.times[0], c2.times[0])
    hi = min(c1.times[-1], c2.times[-1])
    if not lo < hi:
        raise DisjointWindows(f"windows {c1.window} and {c2.window}")
    if s_grid is None:
        s_grid = c1.times[(c1.times >= lo) & (c1.times <= hi)]
    s_grid = np.asarray(s_grid, dtype=float)
    if len(s_grid) < 2:
        raise DisjointWindows("common window holds fewer than two samples")
    if not (lo - 1e-12 <= r <= hi):
        raise ParamOutOfRange(f"r={r} outside the common window [{lo}, {hi}]")
    d = np.maximum(distances(c2.at(s_grid), c1.at(s_grid), c1.is_1d), 1e-300)
    log_d = np.log(d)
    dr = float(np.interp(r, s_grid, log_d))
    after = s_grid > r + 1e-12
    if not after.any():
        raise ParamOutOfRange("no grid times after r")
    slopes = (log_d[after] - dr) / (s_grid[after] - r)
    sel = s_grid >= r - 1e-12
    A = np.vstack([s_grid[sel], np.ones(int(sel.sum()))]).T
    fit = np.linalg.lstsq(A, log_d[sel], rcond=None)[0][0]
    return ContractionRate(max_log_slope=float(np.max(slopes)),
                           fitted_rate=float(fit),
                           times=s_grid, distances=d)

"""Time changes between gradient curves of f and of its transform f_N.

The forward change integrates -N/f_N along the curve (trapezoid on the
curve's own grid, keeping the new grid exactly monotone); the backward
change integrates -f_N/N.  Both carry the same points to a new grid, which
realizes the composition with the inverse map by construction.  Class
membership:

* C'   : energy f non-increasing along the curve;
* C''_N: additionally the integral of f_N over the window (capped at 1)
         is finite and stable under grid refinement.

Curves that reach extinction (f_N -> 0) are truncated at the last sample
with f_N above 1e-12 before the forward change; past that the 1/f_N
integrand diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CurvatureParams
from .core import DEFAULT_TOL, Tolerance
from .errors import (
    DivergentIntegrand,
    NotInCPrime,
    NotInCsecondN,
    ParamOutOfRange,
)
from .flows import Curve
from .functionals import Functional, fN_values

_FN_FLOOR = 1e-12


@dataclass(frozen=True)
class Membership:
    in_C: bool
    in_Cprime: bool
    in_CsecondN: bool


def class_membership(c: Curve, fn: Functional, p: CurvatureParams,
                     tol: Tolerance = DEFAULT_TOL) -> Membership:
    """Report-style membership test for C, C' and C''_N."""
    fs = fn.values(c.points)
    in_c = bool(np.isfinite(fs).all())
    in_cprime = in_c and bool((np.diff(fs) <= tol.abs).all())

    in_csecond = False
    if in_cprime:
        t_end = min(c.times[-1], c.times[0] + 1.0)
        idx = c.times <= t_end + 1e-15
        times = c.times[idx]
        if len(times) >= 2:
            fN = np.exp(-fs[idx] / p.N)
            if np.isfinite(fN).all():
                coarse = float(np.trapezoid(fN, times))
                # refine by 2: midpoints of the piecewise-linear curve
                mid_t = 0.5 * (times[1:] + times[:-1])
                mid_x = c.at(mid_t)
                mid_fN = np.exp(-fn.values(mid_x) / p.N)
                t2 = np.sort(np.concatenate([times, mid_t]))
                fine_vals = np.empty(len(times) + len(mid_t))
                fine_vals[0::2] = fN
                fine_vals[1::2] = mid_fN
                fine = float(np.trapezoid(fine_vals, t2))
                stable = abs(fine - coarse) <= tol.rel * max(abs(coarse), 1.0)
                in_csecond = bool(math.isfinite(coarse) and stable)
    return Membership(in_C=in_c, in_Cprime=in_cprime, in_CsecondN=in_csecond)


def _truncate_before_extinction(c: Curve, fN: np.ndarray):
    alive = fN > _FN_FLOOR
    if alive.all():
        return c, fN
    # keep the leading run of alive samples only
    n_keep = int(np.argmin(alive))  # first False
    if n_keep < 2:
        raise DivergentIntegrand("f_N vanishes at the start of the window")
    if not alive[n_keep:].any():
        trimmed = Curve(c.times[:n_keep], c.points[:n_keep],
                        stop_time=c.stop_time, meta=dict(c.meta))
        return trimmed, fN[:n_keep]
    raise DivergentIntegrand("f_N vanishes inside the window")


def r1(c: Curve, fn: Functional, p: CurvatureParams,
       tol: Tolerance = DEFAULT_TOL) -> Curve:
    """Forward time change: new grid s = alpha(t), same points.

    alpha integrates -N/f_N by trapezoid on the curve's grid; an initial
    rectangle accounts for (0, t_0) when the grid starts after 0.
    """
    c, fN = _truncate_before_extinction(c, fN_values(fn, p, c.points))
    member = class_membership(c, fn, p, tol)
    if not member.in_Cprime:
        raise NotInCPrime(f"energy not non-increasing along {c.meta}")
    return _time_change(c, -p.N / fN, "r1")


def r2(c: Curve, fn: Functional, p: CurvatureParams,
       tol: Tolerance = DEFAULT_TOL) -> Curve:
    """Backward time change: new grid t = beta(s), same points."""
    member = class_membership(c, fn, p, tol)
    if not member.in_CsecondN:
        raise NotInCsecondN(f"integral of f_N not finite/stable along {c.meta}")
    return _time_change(c, fN_values(fn, p, c.points) / (-p.N), "r2")


def _time_change(c: Curve, rate: np.ndarray, tag: str) -> Curve:
    """The curve's points on the grid integrating rate: a rectangle over
    (0, t_0), then the cumulative trapezoid on the curve's grid."""
    inc = 0.5 * (rate[1:] + rate[:-1]) * np.diff(c.times)
    new_times = float(c.times[0] * rate[0]) + np.concatenate(([0.0], np.cumsum(inc)))
    return Curve(new_times, c.points.copy(), stop_time=None,
                 meta={**c.meta, "reparam": tag})


def roundtrip_error(c: Curve, fn: Functional, p: CurvatureParams,
                    tol: Tolerance = DEFAULT_TOL, order: str = "auto") -> float:
    """Sup distance between a curve and its double reparametrization.

    Uses r2(r1(c)) for curves in C' and r1(r2(c)) for curves in C''_N
    (order="auto" prefers the former).  The result is the sup over grid
    points of the spatial mismatch plus the sup time-grid discrepancy.
    """
    member = class_membership(c, fn, p, tol)
    if order == "auto":
        order = "r2r1" if member.in_Cprime else "r1r2"
    if order == "r2r1":
        if not member.in_Cprime:
            raise NotInCPrime("curve not in C'")
        rt = r2(r1(c, fn, p, tol), fn, p, tol)
    elif order == "r1r2":
        if not member.in_CsecondN:
            raise NotInCsecondN("curve not in C''_N")
        rt = r1(r2(c, fn, p, tol), fn, p, tol)
    else:
        raise ParamOutOfRange("order must be 'auto', 'r2r1' or 'r1r2'")
    m = rt.n_samples  # truncation may have dropped a tail
    times = c.times[:m]
    time_gap = float(np.max(np.abs(rt.times - times)))
    lo = max(times[0], rt.times[0])
    hi = min(times[-1], rt.times[-1])
    inside = (times >= lo) & (times <= hi)
    diff = c.points[:m][inside] - rt.at(times[inside])
    # vecdot: bit for bit the np.linalg.norm of each row
    gaps = np.abs(diff) if c.is_1d else np.sqrt(np.vecdot(diff, diff))
    return float(np.max(gaps, initial=0.0)) + time_gap

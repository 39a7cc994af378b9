"""Gradient-curve generation: closed forms, ODE integration, proximal steps.

Three independent routes produce curves:

* ``oracle_flow``   - registered closed-form solutions (exact);
* ``ode_flow``      - Dormand-Prince 5(4) integration of dy/dt = -grad f(y);
* ``minimizing_movement`` - the implicit Euler / proximal-point scheme
  U^n = argmin d^2(U^{n-1}, .)/(2 tau) + f(.).

When a trajectory reaches the boundary of the finiteness domain the curve
is continued constantly at the boundary point and the hitting time is
recorded in ``stop_time``.

The proximal step :func:`prox` (a bracketed search for the root of
(w - v)/tau + f'(w) by Newton steps on intervals; damped Newton with numpy's
LAPACK ``gesv`` on R^n) needs ``Functional.grad`` and ``Functional.hess``,
the ODE route ``grad`` only.  On intervals a minimizing movement evaluates
f in one array call at 512, 1024, ... steps, after a step past a jump of f'
and at the end; the first iterate where f is not finite stops it and decides
its error.  On R^n each step hands f and grad f at its output to the next.

Solver totals go into ``Curve.meta`` (``ode_nfev``/``ode_status``,
``prox_psi_evals``/``prox_hess_evals``/``prox_expansions``) and to the
``knflow`` logger at DEBUG level, with the accepted and rejected ODE steps.
``ode_flow`` runs SciPy's RK45 (Dormand-Prince 5(4), error-per-step control,
Shampine's dense output) on numpy alone: knflow needs numpy only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.linalg._umath_linalg import solve1  # np.linalg.solve's gesv for a 1-d b

from .coefficients import CurvatureParams
from .core import DEFAULT_TOL, Tolerance, require_not_nan
from .errors import (
    BasePointOutsideDomain,
    BlowUp,
    NanError,
    NoOracle,
    NotBoundedBelow,
    ParamOutOfRange,
    PointOutsideSpace,
)
from .functionals import Functional, _exp_clip
from .spaces import EuclideanRn, Interval

logger = logging.getLogger("knflow")


@dataclass
class Curve:
    """Sampled curve: strictly increasing time grid plus points.

    points has shape (m,) on intervals and (m, n) on R^n.  stop_time, when
    set, is the time the trajectory reached the domain boundary; the curve
    is constant from there on.
    """

    times: np.ndarray
    points: np.ndarray
    stop_time: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.points, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ParamOutOfRange("times must be a nonempty 1-d grid")
        if x.ndim not in (1, 2) or len(t) != len(x):
            raise ParamOutOfRange("points must have shape (m,) or (m, n), m times")
        if t[0] < 0:
            raise ParamOutOfRange("time grid must start at t >= 0")
        if len(t) > 1 and not (np.diff(t) > 0).all():
            raise ParamOutOfRange("time grid must be strictly increasing")
        require_not_nan(t, "curve times")
        require_not_nan(x, "curve points")
        if not np.isfinite(x).all():
            raise ParamOutOfRange("curve points must be finite")
        self.times = t
        self.points = x

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def space(self):
        """The flat space of the points: Interval() or EuclideanRn(k)."""
        return Interval() if self.points.ndim == 1 else EuclideanRn(self.points.shape[1])

    @property
    def window(self) -> tuple:
        return float(self.times[0]), float(self.times[-1])

    def at(self, t):
        """Piecewise-linear interpolation (clamped outside the window)."""
        t = np.asarray(t, dtype=float)
        cols = self.points.reshape(len(self.times), -1).T
        out = np.stack([np.interp(t, self.times, col) for col in cols], axis=-1)
        return out.reshape(t.shape + self.points.shape[1:])[()]  # 0-d: a scalar

    def segment(self, t_lo: float, t_hi: float) -> "Curve":
        """Sub-curve of the grid points with t_lo <= t <= t_hi."""
        mask = (self.times >= t_lo - 1e-15) & (self.times <= t_hi + 1e-15)
        if not mask.any():
            raise ParamOutOfRange("empty segment window")
        stop = self.stop_time
        if stop is not None and stop > t_hi:
            stop = None
        return Curve(self.times[mask], self.points[mask], stop, dict(self.meta))


def _as_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2:
        raise ParamOutOfRange("grid must contain at least two times")
    if g[0] < 0 or not (np.diff(g) > 0).all():
        raise ParamOutOfRange("grid must be nonnegative and strictly increasing")
    return g


def time_grid(t0: float, t1: float, n: int) -> np.ndarray:
    return _as_grid(np.linspace(float(t0), float(t1), int(n)))


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def oracle_flow(name: str, p: Optional[CurvatureParams], y0, grid,
                c: float = 1.0, a: float = 1.0) -> Curve:
    """Exact samples of a registered closed-form gradient flow."""
    grid = _as_grid(grid)
    meta = {"method": "oracle", "functional": name,
            "K": None if p is None else p.K, "N": None if p is None else p.N}
    if name == "log-x":
        if p is None:
            raise NoOracle("log-x oracle needs curvature parameters")
        y0 = Interval(0.0, math.inf).closure_point(y0)
        stop = -y0 * y0 / (2.0 * p.N)
        ys = np.sqrt(np.maximum(y0 * y0 + 2.0 * p.N * grid, 0.0))
        return Curve(grid, ys, stop_time=stop, meta=meta)
    if name == "log-cosh":
        if p is None or p.K <= 0:
            raise NoOracle("log-cosh oracle needs K > 0")
        w = math.sqrt(-p.K / p.N)
        y = w * Interval().closure_point(y0)
        try:
            ys = np.arcsinh(math.sinh(y) * np.exp(-p.K * grid)) / w
        except OverflowError:
            # log domain: L = log|sinh y| - K t and, for L > 0,
            # asinh(e^L) = L + log1p(sqrt(1 + e^{-2L}))
            ay = abs(y)
            L = ay + math.log1p(-math.exp(-2.0 * ay)) - math.log(2.0) - p.K * grid
            big = L + np.log1p(np.sqrt(1.0 + _exp_clip(-2.0 * L)))
            small = np.arcsinh(_exp_clip(L))
            ys = math.copysign(1.0, y) * np.where(L > 0, big, small) / w
        return Curve(grid, ys, stop_time=None, meta=meta)
    if name == "log-cos":
        if p is None or p.K >= 0:
            raise NoOracle("log-cos oracle needs K < 0")
        w = math.sqrt(p.K / p.N)
        half = 0.5 * math.pi / w
        y0 = Interval(-half, half).closure_point(y0)
        s0 = math.sin(w * y0)
        if s0 == 0.0:
            return Curve(grid, np.zeros_like(grid), stop_time=None, meta=meta)
        sgn = math.copysign(1.0, s0)
        # >= 0 as K < 0 and |s0| <= 1; + 0.0 turns log(1)/K = -0.0 into +0.0
        stop = math.log(abs(s0)) / p.K + 0.0
        m = np.minimum(abs(s0) * _exp_clip(-p.K * grid), 1.0)
        ys = sgn * np.arcsin(m) / w
        return Curve(grid, ys, stop_time=stop, meta=meta)
    if name == "quadratic":
        y0 = np.asarray(y0, dtype=float)
        decay = _exp_clip(-float(c) * grid)
        ys = np.multiply.outer(decay, y0)
        meta["c"] = float(c)
        return Curve(grid, ys, stop_time=None, meta=meta)
    if name == "fN-linear":
        y0 = Interval(0.0, math.inf).closure_point(y0)
        a = float(a)
        ys = np.maximum(y0 - a * grid, 0.0)
        stop = y0 / a if a > 0 else None
        meta["a"] = a
        return Curve(grid, ys, stop_time=stop, meta=meta)
    raise NoOracle(f"no closed form registered under {name!r}")


# ---------------------------------------------------------------------------
# smooth ODE route
# ---------------------------------------------------------------------------

_MAX_ODE_NFEV = 100_000  # right-hand-side evaluations of one solve
_EPS4 = 4 * 2.0 ** -52  # four ulps of 1: the relative stops of the root searches

# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980): nodes C, stages A,
# 5th-order weights B, error weights E (the last on f(t + h, y_new)); P:
# Shampine's (Math. Comp. 46, 1986) interpolant y_old + h K^T P (x, .., x^4).
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
                  [44/45, -56/15, 32/9, 0, 0],
                  [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
                  [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _brentq(f, xpre: float, xcur: float) -> float:
    """Brent's root of f between xpre and xcur: SciPy's brentq (xtol = rtol
    = 4 eps, 100 iterations) line for line; xcur where f has no sign change."""
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0 or (fpre < 0) == (fcur < 0):
        return xpre if fpre == 0 else xcur
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (_EPS4 + _EPS4 * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect, unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


def _rk45(fn: Functional, rhs, grid, y, rtol: float, atol: float, events) -> tuple:
    """Dormand-Prince 5(4) from (grid[0], y) to grid[-1], operation for operation
    SciPy's RK45 under ``solve_ivp(dense_output=True)``.  An event (end,
    inward, edge) stops it where inward (y - edge) falls to <= 0 from >= 0,
    at the Brent root on the step's interpolant.  Returns (points at the grid
    times reached, shape (m, n); (event time, end) or None; evaluations;
    accepted and rejected steps).  Over _MAX_ODE_NFEV evaluations or a step
    under 10 ulps of t raise BlowUp."""
    nfev = 0

    def rms(x):
        return math.sqrt(x.dot(x)) / x.size ** 0.5

    def fun(t, y):  # at a kink of f the steps collapse without end
        nonlocal nfev
        nfev += 1
        if nfev > _MAX_ODE_NFEV:
            raise BlowUp(f"ode_flow {fn.name}: over {_MAX_ODE_NFEV} evaluations at t={t}")
        return rhs(y)

    def dense(s):  # the step's interpolant at a time s, or the grid times s past its start
        x = (s - t_old) / h
        y = h * np.dot(Q, np.cumprod(np.tile(x, (4, 1) if np.ndim(s) else 4), axis=0))
        y += y_old[:, None] if y.ndim == 2 else y_old
        return y

    t, t_end, y = float(grid[0]), float(grid[-1]), np.atleast_1d(np.asarray(y, dtype=float))
    f = fun(t, y)  # the first step: Hairer, Norsett & Wanner, Sec. II.4
    scale = atol + np.abs(y) * rtol
    d0, d1 = rms(y / scale), rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs, K = min(100 * h0, h1, t_end - t), np.empty((7, y.size))
    g = [inward * (y[0] - edge) for _, inward, edge in events]
    out, i, steps, rejected, stop = [], 0, 0, 0, None
    while stop is None and t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, retry = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise BlowUp("integration failed: Required step size is less "
                             "than spacing between numbers.")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _DP_C[s] * h, y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[6] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = rms(np.dot(K.T, _DP_E) * h / scale)
            if err < 1:  # accept; the next step is 0.9 err^(-1/5) <= 10 times this one
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if retry else factor  # no growth after a retry
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)  # reject: retry at least 0.2 times as long
            retry, rejected = True, rejected + 1
        steps, t_old, y_old, t, y, f = steps + 1, t, y, t_new, y_new, f_new
        Q = K.T.dot(_DP_P)
        if events:
            g, g_old = [inward * (y[0] - edge) for _, inward, edge in events], g
            stop = min(((_brentq(lambda s: inward * (dense(s)[0] - edge), t_old, t), end)
                        for (end, inward, edge), g0, g1 in zip(events, g_old, g)
                        if g0 >= 0 >= g1), default=None)
        j = int(np.searchsorted(grid, t if stop is None else stop[0], side="right"))
        if j > i:
            out.append(dense(grid[i:j]))
            i = j
    return np.hstack(out).T, stop, nfev, steps, rejected


def ode_flow(fn: Functional, y0, grid, rtol: float = 1e-9) -> Curve:
    """Integrate dy/dt = -grad f(y) by Dormand-Prince 5(4) steps, each taken
    where its RMS error over atol + rtol |y| is < 1, the next one scaled by
    0.9 err^(-1/5) within [0.2, 10]; Shampine's dense output is resampled
    onto the grid.  On intervals, approach to a finite boundary stops the
    integration and sets stop_time; the curve is continued constantly at the
    boundary.  meta carries the right-hand-side evaluations ``ode_nfev`` and
    exit ``ode_status`` (0: end of the grid reached, 1: a boundary event
    stopped it).  A solve that needs more than 100000 evaluations raises
    :class:`BlowUp`.  y0 may lie in the closure; f(y0) = +inf raises
    :class:`BasePointOutsideDomain`, and from f(y0) = -inf the flow is
    extinct: the constant curve, stopped at grid[0].
    """
    if fn.grad is None:
        raise ParamOutOfRange(f"{fn.name} has no analytic gradient")
    grid = _as_grid(grid)
    y0 = fn.space.closure_point(y0)
    meta = {"method": "ode", "functional": fn.name, "rtol": rtol}
    f0 = fn.value(y0)
    if f0 == math.inf:
        raise BasePointOutsideDomain(f"{fn.name} is +inf at the start point {y0}")
    if f0 == -math.inf:
        meta.update(ode_nfev=0, ode_status=1)
        ys = np.full((len(grid),) + np.shape(y0), y0)
        return Curve(grid, ys, stop_time=float(grid[0]), meta=meta)
    # rtol is a global target; local per-step tolerances sit well below it
    loc_rtol = max(1e-13, 1e-2 * rtol)
    loc_atol = max(1e-15, 1e-4 * rtol)

    one_d = isinstance(fn.space, Interval)
    events = []
    if one_d:
        a, b = fn.space.a, fn.space.b
        pad = 1e-13 * (1.0 + abs(y0))

        def rhs(y):
            return np.array([-float(fn.grad(min(max(y[0], a + pad), b - pad)))])

        # the margin keeps the event ahead of the step-size collapse at a
        # gradient blow-up; crossing the last 1e-6 takes O(1e-12) time
        events = [(end, inward, end + inward * 1e-6 * (1.0 + abs(end)))
                  for end, inward in ((a, 1.0), (b, -1.0)) if math.isfinite(end)]
    else:
        def rhs(y):
            return -np.asarray(fn.grad(y), dtype=float)

    ys, stop, nfev, steps, rejected = _rk45(fn, rhs, grid, y0, loc_rtol, loc_atol, events)
    meta["ode_nfev"], meta["ode_status"] = nfev, int(stop is not None)
    logger.debug("ode_flow %s: nfev=%d steps=%d rejected=%d status=%d", fn.name, nfev,
                 steps, rejected, meta["ode_status"])
    if stop is not None:  # a terminal event fired: continue at the boundary
        stop, edge = stop
        ys = np.concatenate([ys, np.full((len(grid) - len(ys), 1), edge)])
    if one_d:
        ys = np.clip(ys[:, 0], a, b)
    require_not_nan(ys, "ode trajectory")
    return Curve(grid, ys, stop_time=stop, meta=meta)


# ---------------------------------------------------------------------------
# proximal step and minimizing movements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProxStep:
    """One proximal step.  f_output is f(output), which a step from output
    can take instead of evaluating f again.  psi_evals counts the prox
    objective's gradient calls, expansions the 1-d search's doublings and
    hess_evals the calls of ``fn.hess`` (f'' or the exact Hessian)."""

    tau: float
    input: object
    output: object
    objective: float
    f_output: float
    psi_evals: int = 0
    expansions: int = 0
    hess_evals: int = 0


_MAX_EXPANSIONS = 200


def _prox_args(fn: Functional, tau, v, horizon=None) -> tuple:
    tau = float(tau)
    if not tau > 0:
        raise ParamOutOfRange("tau must be > 0")
    n_steps = 1 if horizon is None else int(math.floor(float(horizon) / tau + 1e-9))
    if n_steps < 1:
        raise ParamOutOfRange("horizon shorter than one step")
    if fn.grad is None or fn.hess is None:
        raise ParamOutOfRange(f"prox of {fn.name} needs an analytic gradient and Hessian")
    return tau, fn.space.closure_point(v), isinstance(fn.space, Interval), n_steps


def prox(fn: Functional, tau: float, v) -> ProxStep:
    """One proximal step: minimize d^2(v, .)/(2 tau) + f over the closure.

    fn needs grad and hess (else :class:`ParamOutOfRange`).  v must lie in
    the closure; f(v) = +inf raises :class:`BasePointOutsideDomain`, and
    f(v) = -inf or an objective of -inf at the output :class:`NotBoundedBelow`.
    1-d: a root of psi(w) = (w - v)/tau + f'(w) downhill from v: the minimizer
    for lambda-convex f with 1 + lambda tau > 0, else not always the first.
    Each pass takes a Newton trial, from the nearer of the last two once psi
    has changed sign, and stops at a step and a chord from v both under tol =
    1e-16 (1 + |v|) + 4 eps |w|, else at a bracket under tol, returning its
    end b past the root (a kink or pole of f').  It keeps the trial only
    strictly inside (a, far), a the last point short of the root and far b or,
    before the sign change, the next step from tau|f'(v)| doubling; else it
    bisects, or doubles.  No Newton trial where psi' = 1/tau + f'' is not
    finite and > 0; 600 passes raise BlowUp.  A search still descending at a
    finite end of the closure stops there; it raises NotBoundedBelow where
    f = -inf there or after 200 doublings, and evaluates f only there.
    R^n: damped Newton with an Armijo line search on f, none once the
    decrement -step.g/2 is under 4 eps (|obj| + 1); grad f is called at v
    and after each line search.  The matrix I/tau + ``fn.hess(x)`` goes to
    numpy's ``gesv`` (bitwise ``np.linalg.solve``); a singular one (a NaN
    step), a decrement <= 0 or a non-finite step (only checked if the
    decrement is not finite) takes the gradient step; a failed line search
    where |g|^2 overflows raises NotBoundedBelow, as do 100 iterations
    without a stop where the last decrement is +inf (else BlowUp).  f skips
    the closure test where |x - v|^2 is finite.
    """
    tau, v, one_d, _ = _prox_args(fn, tau, v)
    fv = fn.value(v)
    if fv == math.inf:
        raise BasePointOutsideDomain("f(v) = +inf")
    if fv == -math.inf:
        raise NotBoundedBelow(f"prox objective of {fn.name} is -inf at {v}")
    if not one_d:
        with np.errstate(over="ignore", invalid="ignore"):  # see _prox_rn
            x, obj, fx, _, evals, n_hess = _prox_rn(fn, tau, v, fv, np.eye(v.size) / tau)
        return ProxStep(tau, v.copy(), x, obj, fx, evals, hess_evals=n_hess)
    w, evals, k, _ = _prox_1d(fn, tau, v)
    fw = fn.value(w)
    if fw == -math.inf:
        raise NotBoundedBelow(f"prox objective of {fn.name} is -inf at {w}")
    return ProxStep(tau, v, w, 0.5 * (w - v) ** 2 / tau + fw, fw, evals, k,
                    hess_evals=evals - 1)


def _step(x: float, s: float, d: float) -> float:
    """Newton's root estimate from x, where psi = s and psi' = d; NaN where
    d is not finite and > 0."""
    return x - s / d if 0.0 < d < math.inf else math.nan


def _prox_1d(fn: Functional, tau: float, v: float) -> tuple:
    """(output, psi evaluations, expansions, whether the output is the end of
    a collapsed bracket: past a kink or a pole of f') of the search from v;
    f'' is called with f' at each trial point."""
    g = float(fn.grad(v))  # psi(v) = f'(v): its sign is the uphill direction
    down, bound = (-1.0, fn.space.a) if g > 0 else (1.0, fn.space.b)
    if g == 0.0 or v == bound:  # at the end, descending out of the closure
        return v, 1, 0, False
    # psi(a) has g's sign, psi(b) not; x0, x1: the last two trials, d0, d1: psi' there
    a, b, x1, s1, d1, evals, k = v, None, v, g, math.nan, 1, 0
    grad, hess, ag, h = fn.grad, fn.hess, abs(g), max(tau * abs(g), math.ulp(v))
    for _ in range(3 * _MAX_EXPANSIONS):
        tol = 1e-16 * (1.0 + abs(v)) + _EPS4 * abs(x1)
        if b is not None:  # far is b; step from the trial nearer the root
            if abs(s0) < abs(s1):
                x0, s0, d0, x1, s1, d1 = x1, s1, d1, x0, s0, d0
            far = b
        elif k == _MAX_EXPANSIONS:
            break
        else:  # far is the next doubling point, clamped to the end of the closure
            far = v + down * h
            if not math.isfinite(far):
                raise NotBoundedBelow(
                    f"prox objective of {fn.name} decreases without bound")
            far = bound if down * (far - bound) >= 0 else far
        w = _step(x1, s1, d1)  # NaN at the first pass: d1 is NaN
        if abs(w - x1) < tol and abs(s1 * (x1 - v)) < tol * ag:
            return w, evals, k, False  # the chord from v agrees: no jump in psi
        if b is not None and abs(b - a) < tol:  # psi jumps at a kink or a pole of f'
            return b, evals, k, True
        if not (w - a) * (far - w) > 0:  # keep only a trial strictly inside (a, far)
            w = far if b is None else 0.5 * (a + b)  # else double, or bisect
        if b is None and w == bound:
            f_end = fn.value(bound)
            if f_end == -math.inf:
                raise NotBoundedBelow(
                    f"prox objective of {fn.name} diverges to -inf at the boundary")
            if f_end == math.inf:
                raise BasePointOutsideDomain(
                    f"{fn.name} is +inf at the end {bound} of the prox search")
        s, evals = (w - v) / tau + float(grad(w)), evals + 1
        d = 1.0 / tau + float(hess(w))
        if s == 0.0 or (s > 0) != (g > 0):
            b = w
        elif b is not None or w != far:  # in the bracket, or a Newton trial
            a = w
        elif w == bound:  # still descending at the end of the closure
            return w, evals, k, False
        else:
            a, h, k = w, 2.0 * h, k + 1
        x0, s0, d0, x1, s1, d1 = x1, s1, d1, w, s, d
    if b is None:  # after 200 doublings, or 600 passes without a bracket
        raise NotBoundedBelow(f"prox objective of {fn.name} keeps "
                              f"descending after {k} expansions")
    raise BlowUp(f"prox of {fn.name} made {3 * _MAX_EXPANSIONS} passes without a stop")


def _prox_rn(fn: Functional, tau: float, v, fv: float, eye_tau, gv=None) -> tuple:
    """(x, objective, f(x), grad f(x) or None, grad f calls, hess calls) of
    Newton from v; eye_tau is I/tau, gv grad f(v) if known.  Run under
    errstate(over="ignore", invalid="ignore"): |g|^2 and dec may overflow,
    and ``solve1`` flags a singular matrix invalid as it returns NaN."""
    evals, n_hess = int(gv is None), 0
    gx = np.asarray(fn.grad(v), dtype=float) if gv is None else gv
    x, obj, fx, g = v, fv, fv, gx + 0.0  # bitwise psi(v) = (v - v)/tau + gx
    for _ in range(100):
        gnorm = math.sqrt(g.dot(g))  # spaces.distances from 0, bit for bit
        if gnorm <= 1e-12 * (1.0 + 1.0 / tau):
            break
        H, n_hess = eye_tau + fn.hess(x), n_hess + 1
        step = solve1(H, -g)  # NaN where H is singular
        dec = -0.5 * float(step.dot(g))  # the Newton decrement
        # a finite decrement implies a finite step; only dec = inf or NaN scans it
        if dec <= 0 or not (dec < math.inf or np.isfinite(step).all()):
            step, dec = -g, math.nan
        # a decrease below the objective's rounding: one step, no search
        t, stop = 1.0, dec <= _EPS4 * (abs(obj) + 1.0)
        for _ in range(50):
            x_new = x + step if t == 1.0 else x + t * step
            d = x_new - v
            dd = float(d.dot(d))  # finite: so is x_new; f skips the closure test
            f_new = fn._value_at(x_new, x_new) if dd < math.inf else fn.value(x_new)
            obj_new = 0.5 * dd / tau + f_new
            if stop or obj_new < obj - 1e-4 * t * min(gnorm ** 2, abs(obj) + 1.0):
                break
            t *= 0.5
        else:
            if gnorm == math.inf:  # a fallback step of 0 would return x
                raise NotBoundedBelow(
                    f"prox objective of {fn.name} leaves the double range")
            # gradient-descent fallback with a conservative step
            x_new = x - min(1.0 / (1.0 + gnorm), tau) * g
            d, f_new = x_new - v, fn.value(x_new)
            obj_new = 0.5 * float(d.dot(d)) / tau + f_new
            if obj_new >= obj:
                break
        x, obj, fx = x_new, obj_new, f_new
        if stop:  # the next step evaluates grad f(x) if it needs it
            return x, float(obj), fx, None, evals, n_hess
        if math.sqrt(x.dot(x)) > 1e9 or obj < -1e15:
            raise NotBoundedBelow(f"prox objective of {fn.name} diverges")
        gx, evals = np.asarray(fn.grad(x), dtype=float), evals + 1
        g = d / tau + gx
    else:
        if dec == math.inf:  # the Newton model's minimum is past the double range
            raise NotBoundedBelow(f"prox objective of {fn.name} leaves the double range")
        raise BlowUp(f"prox of {fn.name} made 100 Newton iterations without a stop")
    return x, float(obj), fx, gx, evals, n_hess


def minimizing_movement(fn: Functional, tau: float, y0, horizon: float,
                        tol: Tolerance = DEFAULT_TOL) -> Curve:
    """Implicit Euler scheme: prox steps up to the horizon, sampled at the
    step boundaries n*tau (including t = 0).

    The arguments are checked once (fn needs grad and hess), then each step
    runs the search of :func:`prox`; its errors are re-raised with the step
    index.  On intervals f is evaluated in one call at 512 steps, at each
    doubling of that, after a step that ends on a collapsed bracket (a kink
    or a pole of f') and at the end (on R^n each step passes f and grad f
    on); a call with f not finite stops the steps, and the first iterate u_k
    where f is not finite fails as in a loop of prox calls, also if a later
    step raised: -inf with :class:`NotBoundedBelow` at step max(k, 1), +inf
    with :class:`BasePointOutsideDomain` at step k + 1 (none after the
    last), NaN with :class:`NanError`.  meta has ``prox_psi_evals``
    (gradient calls: f' at each 1-d trial point; on R^n one at y0 and one
    per Newton iterate), ``prox_hess_evals`` (``fn.hess`` calls: f'' with
    each f' but the steps' first, or one per Newton iteration) and
    ``prox_expansions`` (doublings).  tol is not read; ``perfbench/jobs.py``
    passes it by position.
    """
    tau, k, us, fs, err, one_d = float(tau), 1, [], [], None, False
    psi_evals = expansions = hess_evals = 0

    def finite_f():  # 1-d: f on the iterates past fs in one call; all finite?
        new = np.asarray(fn.fvec(np.asarray(us[len(fs):], dtype=float)))
        fs.extend(new.tolist())
        return np.isfinite(new).all()
    try:
        tau, u, one_d, n_steps = _prox_args(fn, tau, y0, horizon)
        us.append(u)
        rn = None
        if not one_d:  # each step passes f and grad f on; none runs from a bad f(y0)
            fs, gu, eye_tau, rn = [fn.value(u)], None, np.eye(u.size) / tau, "ignore"
        with np.errstate(over=rn, invalid=rn):  # see _prox_rn
            for k in range(1, n_steps + 1 if one_d or math.isfinite(fs[0]) else 1):
                if one_d:
                    u, evals, doublings, jump = _prox_1d(fn, tau, u)
                    expansions, hess_evals = expansions + doublings, hess_evals + evals - 1
                else:
                    u, _, fu, gu, evals, n_hess = _prox_rn(fn, tau, u, fs[-1], eye_tau, gu)
                    fs.append(fu)
                    hess_evals += n_hess
                us.append(u)
                psi_evals += evals
                if one_d and (jump or k >= 512 and k & (k - 1) == 0) and not finite_f():
                    break  # a bad u_j found past a jump of f' or at 512, 1024, ... steps
    except Exception as exc:
        err = exc
    if one_d and len(us) > len(fs):
        finite_f()
    f = np.append(fs, 0.0)
    j = int(np.isfinite(f).argmin())  # the first f not finite, if any (f ends in 0.0)
    if math.isnan(f[j]):
        raise NanError(f"NaN in {fn.name}({us[j]!r})")
    if f[j] == -math.inf:
        k, err = max(j, 1), NotBoundedBelow(
            f"prox objective of {fn.name} is -inf at {us[j]}")
    elif f[j] == math.inf and j < n_steps:
        k, err = j + 1, BasePointOutsideDomain("f(v) = +inf")
    if isinstance(err, (NotBoundedBelow, BasePointOutsideDomain, PointOutsideSpace,
                        BlowUp)):
        raise type(err)(f"prox failed at step {k} (t={k * tau}): {err}") from err
    if err is not None:
        raise err
    logger.debug("minimizing_movement %s: %d steps, prox_psi_evals=%d prox_hess_evals=%d "
                 "prox_expansions=%d", fn.name, n_steps, psi_evals, hess_evals,
                 expansions)
    pts = np.asarray(us, dtype=float)
    stop = None
    if one_d:  # the first step ending within 1e-12 of a finite end
        edge = np.minimum(abs(pts - fn.space.a), abs(pts - fn.space.b))[1:] <= 1e-12
        stop = (int(edge.argmax()) + 1) * tau if edge.any() else None
    return Curve(tau * np.arange(n_steps + 1), pts, stop_time=stop,
                 meta={"method": "mms", "tau": tau, "functional": fn.name,
                       "prox_psi_evals": psi_evals, "prox_hess_evals": hess_evals,
                       "prox_expansions": expansions})

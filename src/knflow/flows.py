"""Gradient-curve generation: closed forms, ODE integration, proximal steps.

Three independent routes produce curves:

* ``oracle_flow``   - registered closed-form solutions (exact);
* ``ode_flow``      - adaptive Runge-Kutta integration of dy/dt = -grad f(y);
* ``minimizing_movement`` - the implicit Euler / proximal-point scheme
  U^n = argmin d^2(U^{n-1}, .)/(2 tau) + f(.).

When a trajectory reaches the boundary of the finiteness domain the curve
is continued constantly at the boundary point and the hitting time is
recorded in ``stop_time``.

On intervals the proximal step solves the optimality condition
psi(w) = (w - v)/tau + f'(w) = 0: from v it doubles its step along the
descent direction -sign f'(v) until psi changes sign, then solves on that
bracket with ``brentq``.  For lambda-convex f with 1 + lambda tau > 0 the
objective is strictly convex and the root is its unique minimizer; in
general it is the first local minimizer downhill from v.  Several
functionals of interest are not coercive (the proximal objective can be
unbounded below): the search raises :class:`NotBoundedBelow` when it
reaches an end of the closure where f = -inf, or after 200 doublings,
rather than returning a diverging iterate.  On R^n the proximal step is a
damped Newton iteration whose matrix is I/tau + ``Functional.hess`` when
the functional carries an analytic Hessian, and a finite-difference
Jacobian of the objective's gradient otherwise.  Both the proximal step
and the ODE route need the analytic gradient ``Functional.grad``.

A minimizing movement evaluates f once per step: each step returns f at
its output, and the next step takes that value as f(U^{n-1}) instead of
evaluating it again.

Solver totals go into ``Curve.meta`` (``ode_nfev``/``ode_status``,
``prox_psi_evals``/``prox_expansions``) and to the ``knflow`` logger at
DEBUG level.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

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
from .functionals import Functional
from .spaces import Interval

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
        if len(t) != len(x):
            raise ParamOutOfRange("times and points must have equal length")
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
    def is_1d(self) -> bool:
        return self.points.ndim == 1

    @property
    def window(self) -> tuple:
        return float(self.times[0]), float(self.times[-1])

    def point(self, i: int):
        return self.points[i] if self.is_1d else self.points[i].copy()

    def at(self, t):
        """Piecewise-linear interpolation (clamped outside the window)."""
        t = np.asarray(t, dtype=float)
        if self.is_1d:
            return np.interp(t, self.times, self.points)
        cols = [np.interp(t, self.times, self.points[:, j])
                for j in range(self.points.shape[1])]
        return np.stack(cols, axis=-1)

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
        y0 = float(y0)
        if y0 < 0:
            raise PointOutsideSpace("log-x flow needs y0 >= 0")
        stop = -y0 * y0 / (2.0 * p.N)
        ys = np.sqrt(np.maximum(y0 * y0 + 2.0 * p.N * grid, 0.0))
        return Curve(grid, ys, stop_time=stop, meta=meta)
    if name == "log-cosh":
        if p is None or p.K <= 0:
            raise NoOracle("log-cosh oracle needs K > 0")
        w = math.sqrt(-p.K / p.N)
        y = w * float(y0)
        try:
            ys = np.arcsinh(math.sinh(y) * np.exp(-p.K * grid)) / w
        except OverflowError:
            # log domain: L = log|sinh y| - K t and, for L > 0,
            # asinh(e^L) = L + log1p(sqrt(1 + e^{-2L}))
            ay = abs(y)
            L = ay + math.log1p(-math.exp(-2.0 * ay)) - math.log(2.0) - p.K * grid
            with np.errstate(over="ignore"):
                big = L + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * L)))
                small = np.arcsinh(np.exp(L))
            ys = math.copysign(1.0, y) * np.where(L > 0, big, small) / w
        return Curve(grid, ys, stop_time=None, meta=meta)
    if name == "log-cos":
        if p is None or p.K >= 0:
            raise NoOracle("log-cos oracle needs K < 0")
        w = math.sqrt(p.K / p.N)
        half = 0.5 * math.pi / w
        y0 = float(y0)
        if not abs(y0) < half:
            raise PointOutsideSpace(f"y0 must lie in (-{half}, {half})")
        s0 = math.sin(w * y0)
        if s0 == 0.0:
            return Curve(grid, np.zeros_like(grid), stop_time=None, meta=meta)
        sgn = math.copysign(1.0, s0)
        stop = math.log(abs(s0)) / p.K  # positive: K < 0, |s0| < 1
        m = np.minimum(abs(s0) * np.exp(-p.K * grid), 1.0)
        ys = sgn * np.arcsin(m) / w
        meta = dict(meta)
        return Curve(grid, ys, stop_time=stop, meta=meta)
    if name == "quadratic":
        y0 = np.asarray(y0, dtype=float)
        decay = np.exp(-float(c) * grid)
        ys = y0 * decay if y0.ndim == 0 else y0[None, :] * decay[:, None]
        meta["c"] = float(c)
        return Curve(grid, ys, stop_time=None, meta=meta)
    if name == "fN-linear":
        y0 = float(y0)
        if y0 < 0:
            raise PointOutsideSpace("fN-linear flow needs y0 >= 0")
        a = float(a)
        ys = np.maximum(y0 - a * grid, 0.0)
        stop = y0 / a if a > 0 else None
        meta["a"] = a
        return Curve(grid, ys, stop_time=stop, meta=meta)
    raise NoOracle(f"no closed form registered under {name!r}")


# ---------------------------------------------------------------------------
# smooth ODE route
# ---------------------------------------------------------------------------

def ode_flow(fn: Functional, y0, grid, rtol: float = 1e-9) -> Curve:
    """Integrate dy/dt = -grad f(y) with an embedded adaptive RK pair.

    Dense output is resampled onto the grid.  On intervals, approach to a
    finite boundary stops the integration and sets stop_time; the curve is
    continued constantly at the boundary.  meta carries the solver's
    right-hand-side evaluations ``ode_nfev`` and exit ``ode_status`` (0: end
    of the grid reached, 1: a boundary event stopped it).
    """
    if fn.grad is None:
        raise ParamOutOfRange(f"{fn.name} has no analytic gradient")
    grid = _as_grid(grid)
    meta = {"method": "ode", "functional": fn.name, "rtol": rtol}
    # rtol is a global target; local per-step tolerances sit well below it
    loc_rtol = max(1e-13, 1e-2 * rtol)
    loc_atol = max(1e-15, 1e-4 * rtol)

    if isinstance(fn.space, Interval):
        a, b = fn.space.a, fn.space.b
        pad = 1e-13 * (1.0 + abs(float(y0)))

        def rhs(t, y):
            yy = min(max(y[0], a + pad), b - pad)
            return [-float(fn.grad(yy))]

        # the margin keeps the event ahead of the step-size collapse at a
        # gradient blow-up; crossing the last 1e-6 takes O(1e-12) time
        events = []
        if math.isfinite(a):
            eps = 1e-6 * (1.0 + abs(a))

            def hit_a(t, y, _eps=eps):
                return y[0] - (a + _eps)
            hit_a.terminal = True
            hit_a.direction = -1
            events.append(hit_a)
        if math.isfinite(b):
            eps = 1e-6 * (1.0 + abs(b))

            def hit_b(t, y, _eps=eps):
                return (b - _eps) - y[0]
            hit_b.terminal = True
            hit_b.direction = -1
            events.append(hit_b)

        sol = solve_ivp(rhs, (grid[0], grid[-1]), [float(y0)], method="RK45",
                        rtol=loc_rtol, atol=loc_atol, dense_output=True,
                        events=events)
        if sol.status == -1:
            raise BlowUp(f"integration failed: {sol.message}")
        _record_ode(meta, sol)
        stop = None
        boundary_val = None
        if sol.status == 1:  # a terminal event fired
            times = [float(te[0]) for te in sol.t_events if len(te)]
            stop = min(times)
            y_end = float(sol.sol(stop)[0])
            boundary_val = a if abs(y_end - a) < abs(y_end - b) else b
        t_end = sol.t[-1]
        ys = np.empty_like(grid)
        before = grid <= t_end
        ys[before] = sol.sol(grid[before])[0]
        ys[~before] = boundary_val if boundary_val is not None else ys[before][-1]
        ys = np.clip(ys, a, b)
        require_not_nan(ys, "ode trajectory")
        return Curve(grid, ys, stop_time=stop, meta=meta)

    y0 = np.asarray(y0, dtype=float)

    def rhs(t, y):
        return -np.asarray(fn.grad(y), dtype=float)

    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, method="RK45",
                    rtol=loc_rtol, atol=loc_atol, dense_output=True)
    if sol.status != 0:
        raise BlowUp(f"integration failed: {sol.message}")
    _record_ode(meta, sol)
    ys = sol.sol(grid).T
    require_not_nan(ys, "ode trajectory")
    return Curve(grid, ys, stop_time=None, meta=meta)


def _record_ode(meta: dict, sol) -> None:
    meta["ode_nfev"] = int(sol.nfev)
    meta["ode_status"] = int(sol.status)
    logger.debug("ode_flow %s: nfev=%d status=%d", meta["functional"],
                 sol.nfev, sol.status)


# ---------------------------------------------------------------------------
# proximal step and minimizing movements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProxStep:
    """One proximal step.  f_output is f(output), which a step from output
    can take instead of evaluating f again.  psi_evals counts evaluations
    of the gradient of the prox objective; expansions counts doublings of
    the 1-d search."""

    tau: float
    input: object
    output: object
    objective: float
    f_output: float
    psi_evals: int = 0
    expansions: int = 0


_MAX_EXPANSIONS = 200


def prox(fn: Functional, tau: float, v, tol: Tolerance = DEFAULT_TOL,
         fv: Optional[float] = None) -> ProxStep:
    """One proximal step: minimize d^2(v, .)/(2 tau) + f over the closure.

    fv is f(v) when the caller already has it (``minimizing_movement``
    passes on the previous step's ``f_output``); otherwise it is evaluated
    here.  Either way v must lie in the closure, f(v) = +inf raises
    :class:`BasePointOutsideDomain` and f(v) = -inf :class:`NotBoundedBelow`.
    Each step then evaluates f once more, at its output.

    1-d: the root of psi(w) = (w - v)/tau + f'(w) along the descent
    direction -sign f'(v).  From v the search doubles its step (the first
    is tau|f'(v)|) until psi changes sign, then ``brentq`` solves on that
    bracket; a search still descending at a finite end of the closure
    returns that end.  It raises :class:`NotBoundedBelow` when it reaches
    an end where f = -inf or doubles 200 times.  For lambda-convex f with
    1 + lambda tau > 0 the root is the unique minimizer; otherwise it is
    the first local minimizer downhill from v.
    R^n: damped Newton with gradient-descent fallback.  The Newton matrix
    is I/tau + ``fn.hess(x)`` when the functional has an analytic Hessian,
    else a central finite-difference Jacobian of the objective's gradient
    (2n more gradient calls per iteration).
    Both need the analytic gradient ``fn.grad``.
    """
    tau = float(tau)
    if not tau > 0:
        raise ParamOutOfRange("tau must be > 0")
    if fn.grad is None:
        raise ParamOutOfRange(f"prox of {fn.name} needs an analytic gradient")
    one_d = isinstance(fn.space, Interval)
    v = float(v) if one_d else np.asarray(v, dtype=float)
    if not fn.space.contains_closure(v):
        raise PointOutsideSpace(f"{v} outside the closure of {fn.space}")
    if fv is None:
        fv = fn.value(v)
    elif math.isnan(fv):
        raise NanError(f"NaN passed as {fn.name}({v})")
    if fv == math.inf:
        raise BasePointOutsideDomain("f(v) = +inf")
    if fv == -math.inf:
        raise NotBoundedBelow(f"prox objective of {fn.name} is -inf at {v}")
    if one_d:
        return _prox_1d(fn, tau, v, float(fv))
    return _prox_rn(fn, tau, v, float(fv))


def _prox_1d(fn: Functional, tau: float, v: float, fv: float) -> ProxStep:
    sp = fn.space
    evals = 0

    def psi(w):
        nonlocal evals
        evals += 1
        return (w - v) / tau + float(fn.grad(w))

    g = psi(v)  # f'(v): its sign is the uphill direction
    if g == 0.0:
        return ProxStep(tau, v, v, fv, fv, evals, 0)
    down = -1.0 if g > 0 else 1.0
    bound = sp.a if g > 0 else sp.b
    last, h = v, max(tau * abs(g), math.ulp(v))  # the first trial must move
    for k in range(_MAX_EXPANSIONS):
        w = v + down * h
        if not math.isfinite(w):
            raise NotBoundedBelow(
                f"prox objective of {fn.name} decreases without bound")
        if down * (w - bound) >= 0:
            f_end = fn.value(bound)
            if f_end == -math.inf:
                raise NotBoundedBelow(
                    f"prox objective of {fn.name} diverges to -inf at the boundary")
            if f_end == math.inf:
                raise BasePointOutsideDomain(
                    f"{fn.name} is +inf at the end {bound} of the prox search")
            w = bound
        s = psi(w)
        if s == 0.0 or (s > 0) != (g > 0):
            break
        if w == bound:  # still descending at the end of the closure
            return ProxStep(tau, v, w, 0.5 * (w - v) ** 2 / tau + f_end, f_end,
                            evals, k)
        last, h = w, 2.0 * h
    else:
        raise NotBoundedBelow(
            f"prox objective of {fn.name} keeps descending after "
            f"{_MAX_EXPANSIONS} expansions")
    if s != 0.0:
        w = brentq(psi, min(last, w), max(last, w), xtol=1e-16 * (1.0 + abs(v)))
    fw = fn.value(w)
    obj = 0.5 * (w - v) ** 2 / tau + fw
    if obj == -math.inf:
        raise NotBoundedBelow(f"prox objective of {fn.name} is -inf at {w}")
    return ProxStep(tau, v, w, obj, fw, evals, k)


def _prox_rn(fn: Functional, tau: float, v: np.ndarray, fv: float) -> ProxStep:
    n = v.size
    evals = 0

    def phi(w):  # (prox objective, f) at w
        fw = fn.value(w)
        return 0.5 * float(np.dot(w - v, w - v)) / tau + fw, fw

    def grad_phi(w):
        nonlocal evals
        evals += 1
        return (w - v) / tau + np.asarray(fn.grad(w), dtype=float)

    x, obj, fx = v.copy(), fv, fv
    h = 1e-6 * (1.0 + float(np.linalg.norm(v)))
    for _ in range(100):
        g = grad_phi(x)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-12 * (1.0 + 1.0 / tau):
            break
        if fn.hess is not None:
            H = np.eye(n) / tau + fn.hess(x)
        else:  # finite-difference Jacobian of grad_phi, symmetrized
            H = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                H[:, j] = (grad_phi(x + e) - grad_phi(x - e)) / (2 * h)
            H = 0.5 * (H + H.T)
        try:  # damped Newton
            step = np.linalg.solve(H, -g)
            if not np.isfinite(step).all() or float(np.dot(step, g)) >= 0:
                step = -g
        except np.linalg.LinAlgError:
            step = -g
        t = 1.0
        for _ in range(50):
            x_new = x + t * step
            obj_new, f_new = phi(x_new)
            if obj_new < obj - 1e-4 * t * min(gnorm ** 2, abs(obj) + 1.0):
                break
            t *= 0.5
        else:
            # gradient-descent fallback with a conservative step
            x_new = x - min(1.0 / (1.0 + gnorm), tau) * g
            obj_new, f_new = phi(x_new)
            if obj_new >= obj:
                break
        x, obj, fx = x_new, obj_new, f_new
        if float(np.linalg.norm(x)) > 1e9 or obj < -1e15:
            raise NotBoundedBelow(f"prox objective of {fn.name} diverges")
    return ProxStep(tau, v.copy(), x, float(obj), fx, evals)


def minimizing_movement(fn: Functional, tau: float, y0, horizon: float,
                        tol: Tolerance = DEFAULT_TOL) -> Curve:
    """Implicit Euler scheme: iterate prox steps up to the horizon.

    Emits the piecewise-constant interpolant sampled at the step
    boundaries n*tau (including t = 0).  Step n takes f(U^{n-1}) from step
    n-1, so f is evaluated n_steps + 1 times when no search reaches an end
    of the closure.  Proximal failures are re-raised with the failing step
    index.  meta carries the solver totals ``prox_psi_evals`` (evaluations
    of the prox objective's gradient; on R^n this includes the 2n per
    Newton iteration of a finite-difference Hessian) and
    ``prox_expansions`` (doublings of the 1-d bracket search; 0 on R^n).
    """
    tau = float(tau)
    if not tau > 0:
        raise ParamOutOfRange("tau must be > 0")
    n_steps = int(math.floor(float(horizon) / tau + 1e-9))
    if n_steps < 1:
        raise ParamOutOfRange("horizon shorter than one step")
    one_d = isinstance(fn.space, Interval)
    u = float(y0) if one_d else np.asarray(y0, dtype=float)
    us = [u]
    fu = None  # f(u), carried from one step to the next
    stop = None
    psi_evals = expansions = 0
    for k in range(1, n_steps + 1):
        try:
            step = prox(fn, tau, u, tol, fu)
        except (NotBoundedBelow, BasePointOutsideDomain, PointOutsideSpace) as exc:
            raise type(exc)(f"prox failed at step {k} (t={k * tau}): {exc}") from exc
        u, fu = step.output, step.f_output
        us.append(u)
        psi_evals += step.psi_evals
        expansions += step.expansions
        if stop is None and one_d:
            sp = fn.space
            at_edge = (math.isfinite(sp.a) and abs(u - sp.a) <= 1e-12) or \
                      (math.isfinite(sp.b) and abs(u - sp.b) <= 1e-12)
            if at_edge:
                stop = k * tau
    logger.debug("minimizing_movement %s: %d steps, prox_psi_evals=%d "
                 "prox_expansions=%d", fn.name, n_steps, psi_evals, expansions)
    times = tau * np.arange(n_steps + 1)
    pts = np.asarray(us, dtype=float)
    return Curve(times, pts, stop_time=stop,
                 meta={"method": "mms", "tau": tau, "functional": fn.name,
                       "prox_psi_evals": psi_evals, "prox_expansions": expansions})

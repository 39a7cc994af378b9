"""Gradient-curve generation: closed forms, ODE integration, proximal steps.

Three independent routes produce curves:

* ``oracle_flow``   - registered closed-form solutions (exact);
* ``ode_flow``      - adaptive Runge-Kutta integration of dy/dt = -grad f(y);
* ``minimizing_movement`` - the implicit Euler / proximal-point scheme
  U^n = argmin d^2(U^{n-1}, .)/(2 tau) + f(.).

When a trajectory reaches the boundary of the finiteness domain the curve
is continued constantly at the boundary point and the hitting time is
recorded in ``stop_time``.

The proximal step :func:`prox` solves (w - v)/tau + f'(w) = 0 on intervals
and runs damped Newton on R^n; both need ``Functional.grad``, as does the
ODE route, and raise :class:`NotBoundedBelow` where the proximal objective
is unbounded below.  On intervals a minimizing movement evaluates f on all
its iterates in one array call; the first where f is not finite decides
its error.

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

    one_d = isinstance(fn.space, Interval)
    events = []
    if one_d:
        a, b = fn.space.a, fn.space.b
        pad = 1e-13 * (1.0 + abs(float(y0)))
        y0 = [float(y0)]

        def rhs(t, y):
            yy = min(max(y[0], a + pad), b - pad)
            return [-float(fn.grad(yy))]

        # the margin keeps the event ahead of the step-size collapse at a
        # gradient blow-up; crossing the last 1e-6 takes O(1e-12) time
        for end, inward in ((a, 1.0), (b, -1.0)):
            if math.isfinite(end):
                def hit(t, y, _edge=end + inward * 1e-6 * (1.0 + abs(end)),
                        _inward=inward):
                    return _inward * (y[0] - _edge)
                hit.terminal = True
                hit.direction = -1
                events.append(hit)
    else:
        y0 = np.asarray(y0, dtype=float)

        def rhs(t, y):
            return -np.asarray(fn.grad(y), dtype=float)

    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, method="RK45",
                    rtol=loc_rtol, atol=loc_atol, dense_output=True,
                    events=events or None)
    if sol.status == -1:
        raise BlowUp(f"integration failed: {sol.message}")
    meta["ode_nfev"] = int(sol.nfev)
    meta["ode_status"] = int(sol.status)
    logger.debug("ode_flow %s: nfev=%d status=%d", fn.name, sol.nfev, sol.status)
    before = grid <= sol.t[-1]
    ys = sol.sol(grid[before]).T
    stop = None
    if sol.status == 1:  # a terminal event fired: continue at the boundary
        stop = min(float(te[0]) for te in sol.t_events if len(te))
        y_end = float(sol.sol(stop)[0])
        edge = a if abs(y_end - a) < abs(y_end - b) else b
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


def _prox_args(fn: Functional, tau, v, horizon=None) -> tuple:
    tau = float(tau)
    if not tau > 0:
        raise ParamOutOfRange("tau must be > 0")
    n_steps = 1 if horizon is None else int(math.floor(float(horizon) / tau + 1e-9))
    if n_steps < 1:
        raise ParamOutOfRange("horizon shorter than one step")
    if fn.grad is None:
        raise ParamOutOfRange(f"prox of {fn.name} needs an analytic gradient")
    one_d = isinstance(fn.space, Interval)
    v = float(v) if one_d else np.asarray(v, dtype=float)
    if not fn.space.contains_closure(v):
        raise PointOutsideSpace(f"{v} outside the closure of {fn.space}")
    return tau, v, one_d, n_steps


def prox(fn: Functional, tau: float, v, tol: Tolerance = DEFAULT_TOL,
         fv: Optional[float] = None) -> ProxStep:
    """One proximal step: minimize d^2(v, .)/(2 tau) + f over the closure.

    fv is f(v) if the caller has it, else it is evaluated here.  v must lie
    in the closure; f(v) = +inf raises :class:`BasePointOutsideDomain`, and
    f(v) = -inf or an objective of -inf at the output :class:`NotBoundedBelow`.
    1-d: the first root of psi(w) = (w - v)/tau + f'(w) downhill from v
    (the minimizer for lambda-convex f with 1 + lambda tau > 0), bracketed
    by doubling steps from tau|f'(v)| and solved with ``brentq``.  A search
    still descending at a finite end of the closure stops there; it raises
    NotBoundedBelow where f = -inf at that end or after 200 doublings.  It
    evaluates f only at such an end.  R^n: damped Newton with an Armijo
    line search on f; the matrix is I/tau + ``fn.hess(x)``, or a central
    finite-difference Jacobian (2n more gradient calls per iteration).
    tol is not read; it keeps its position ahead of fv, where callers pass
    it, as ``perfbench/jobs.py`` does in :func:`minimizing_movement`.
    """
    tau, v, one_d, _ = _prox_args(fn, tau, v)
    if fv is None:
        fv = fn.value(v)
    elif math.isnan(fv):
        raise NanError(f"NaN passed as {fn.name}({v})")
    if fv == math.inf:
        raise BasePointOutsideDomain("f(v) = +inf")
    if fv == -math.inf:
        raise NotBoundedBelow(f"prox objective of {fn.name} is -inf at {v}")
    if not one_d:
        x, obj, fx, evals = _prox_rn(fn, tau, v, float(fv), np.eye(v.size) / tau)
        return ProxStep(tau, v.copy(), x, obj, fx, evals)
    w, evals, k = _prox_1d(fn, tau, v)
    fw = fn.value(w)
    if fw == -math.inf:
        raise NotBoundedBelow(f"prox objective of {fn.name} is -inf at {w}")
    return ProxStep(tau, v, w, 0.5 * (w - v) ** 2 / tau + fw, fw, evals, k)


def _prox_1d(fn: Functional, tau: float, v: float) -> tuple:
    """(output, psi evaluations, expansions) of the 1-d search from v."""
    evals = 0

    def psi(w):
        nonlocal evals
        evals += 1
        return (w - v) / tau + float(fn.grad(w))

    g = psi(v)  # f'(v): its sign is the uphill direction
    if g == 0.0:
        return v, evals, 0
    down = -1.0 if g > 0 else 1.0
    bound = fn.space.a if g > 0 else fn.space.b
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
            return w, evals, k
        last, h = w, 2.0 * h
    else:
        raise NotBoundedBelow(
            f"prox objective of {fn.name} keeps descending after "
            f"{_MAX_EXPANSIONS} expansions")
    if s != 0.0:
        w = brentq(psi, min(last, w), max(last, w), xtol=1e-16 * (1.0 + abs(v)))
    return w, evals, k


def _prox_rn(fn: Functional, tau: float, v, fv: float, eye_tau) -> tuple:
    """(output, objective, f there, grad_phi calls); eye_tau is I/tau."""
    n = v.size
    evals = 0

    def phi(w):  # (prox objective, f) at w
        fw = fn.value(w)
        return 0.5 * float(np.dot(w - v, w - v)) / tau + fw, fw

    def grad_phi(w):
        nonlocal evals
        evals += 1
        return (w - v) / tau + np.asarray(fn.grad(w), dtype=float)

    def norm(w):  # spaces.distances from 0 of one vector, as a float
        return math.sqrt(float(np.dot(w, w)))

    x, obj, fx = v.copy(), fv, fv
    h = 1e-6 * (1.0 + norm(v))
    for _ in range(100):
        g = grad_phi(x)
        gnorm = norm(g)
        if gnorm <= 1e-12 * (1.0 + 1.0 / tau):
            break
        if fn.hess is not None:
            H = eye_tau + fn.hess(x)
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
        if norm(x) > 1e9 or obj < -1e15:
            raise NotBoundedBelow(f"prox objective of {fn.name} diverges")
    return x, float(obj), fx, evals


def minimizing_movement(fn: Functional, tau: float, y0, horizon: float,
                        tol: Tolerance = DEFAULT_TOL) -> Curve:
    """Implicit Euler scheme: prox steps up to the horizon, sampled at the
    step boundaries n*tau (including t = 0).

    The arguments are checked once, then each step runs the search of
    :func:`prox`; its errors are re-raised with the step index.  On
    intervals f is then evaluated on all iterates in one call (on R^n each
    step passes it on), and the first iterate u_k where f is not finite
    fails as in a loop of prox calls, also if a later step raised: -inf
    with :class:`NotBoundedBelow` at step max(k, 1), +inf with
    :class:`BasePointOutsideDomain` at step k + 1 (none after the last),
    NaN with :class:`NanError`.  meta has ``prox_psi_evals`` (prox-objective
    gradient evaluations; 2n more per Newton iteration with a
    finite-difference Hessian) and ``prox_expansions`` (1-d doublings).
    tol is not read; ``perfbench/jobs.py`` passes it by position.
    """
    tau, k, us, fs, err = float(tau), 1, [], [], None
    psi_evals = expansions = 0
    try:
        tau, u, one_d, n_steps = _prox_args(fn, tau, y0, horizon)
        us.append(u)
        if not one_d:
            fs, eye_tau = [fn.value(u)], np.eye(u.size) / tau
        for k in range(1, n_steps + 1):
            if one_d:
                u, evals, doublings = _prox_1d(fn, tau, u)
                expansions += doublings
            else:
                u, _, fu, evals = _prox_rn(fn, tau, u, fs[-1], eye_tau)
                fs.append(fu)
            us.append(u)
            psi_evals += evals
    except Exception as exc:
        err = exc
    f = np.append(fn.fvec(np.asarray(us, dtype=float)) if us and one_d else fs, 0.0)
    j = int(np.isfinite(f).argmin())  # the first f not finite, if any (f ends in 0.0)
    if math.isnan(f[j]):
        raise NanError(f"NaN in {fn.name}({us[j]!r})")
    if f[j] == -math.inf:
        k, err = max(j, 1), NotBoundedBelow(
            f"prox objective of {fn.name} is -inf at {us[j]}")
    elif f[j] == math.inf and j < n_steps:
        k, err = j + 1, BasePointOutsideDomain("f(v) = +inf")
    if isinstance(err, (NotBoundedBelow, BasePointOutsideDomain, PointOutsideSpace)):
        raise type(err)(f"prox failed at step {k} (t={k * tau}): {err}") from err
    if err is not None:
        raise err
    logger.debug("minimizing_movement %s: %d steps, prox_psi_evals=%d "
                 "prox_expansions=%d", fn.name, n_steps, psi_evals, expansions)
    pts = np.asarray(us, dtype=float)
    stop = None
    if one_d:  # the first step ending within 1e-12 of a finite end
        edge = np.minimum(abs(pts - fn.space.a), abs(pts - fn.space.b))[1:] <= 1e-12
        stop = (int(edge.argmax()) + 1) * tau if edge.any() else None
    return Curve(tau * np.arange(n_steps + 1), pts, stop_time=stop,
                 meta={"method": "mms", "tau": tau, "functional": fn.name,
                       "prox_psi_evals": psi_evals, "prox_expansions": expansions})

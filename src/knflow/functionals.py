"""Functionals with values in [-inf, +inf] and their log-domain transform.

A functional f: X -> [-inf, +inf], valued in plain floats, is stored
together with its log-domain companion g = -f/N, so that the exponential
transform f_N = exp(g) never has to be formed for unboundedly negative f.
The conventions are

    f = -inf  <=>  g = -inf  <=>  f_N = 0,
    f = +inf  <=>  g = +inf  <=>  f_N = +inf.

The closed-form library collects the standard one-dimensional examples
whose transform satisfies the dimensional convexity inequality with
equality, plus quadratic / linear plumbing examples.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coefficients import CurvatureParams
from .core import (DEFAULT_TOL, Tolerance, _halving_steps, _integer, _number,
                   _pair, require_not_nan)
from .errors import (
    BasePointOutsideDomain,
    ExpressionError,
    IncompatibleSign,
    NanError,
)
from .spaces import EuclideanRn, Geodesic, Interval, ModelSpace, Point


@dataclass(frozen=True)
class Functional:
    """Function with values in [-inf, +inf] on a model space.

    fvec evaluates a batch of points (shape (m,) on intervals, (m, n) on
    R^n) and may return +-inf entries; NaN is rejected at the scalar
    boundary.  grad and hess are the analytic gradient (a float on
    intervals, a vector on R^n) and f'' (a float) or Hessian ((n, n) array)
    at interior smooth points; every library and expression functional has
    both.  ode_flow needs grad, the proximal steps grad and hess.
    """

    space: ModelSpace
    fvec: Callable[[np.ndarray], np.ndarray]
    name: str
    params: Optional[CurvatureParams] = None
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    upper_bound: Optional[float] = None
    sample_box: Optional[tuple] = None
    meta: dict = field(default_factory=dict)

    def value(self, x: Point) -> float:
        """f(x); +-inf allowed, NaN raises.  x must lie in the closure."""
        return self._value_at(np.asarray(self.space.closure_point(x)), x)

    def _value_at(self, pt: np.ndarray, x: Point) -> float:
        """f(pt), pt an array in the closure; x as given, for the NaN message."""
        v = float(self.fvec(pt[None])[0])
        if math.isnan(v):  # x is formatted only here: repr of an array is slow
            raise NanError(f"NaN in {self.name}({x!r})")
        return v

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Batch evaluation; caller guarantees points in the closure."""
        out = np.asarray(self.fvec(np.asarray(xs, dtype=float)), dtype=float)
        return require_not_nan(out, f"{self.name} batch")


# ---------------------------------------------------------------------------
# exponential transform, log-domain
# ---------------------------------------------------------------------------

def log_fN(fn: Functional, p: CurvatureParams, x: Point) -> float:
    """g(x) = -f(x)/N, the log of the exponential transform."""
    return -fn.value(x) / p.N


def _exp_clip(g):
    """exp(g), saturating to +inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.exp(g)


def fN_values(fn: Functional, p: CurvatureParams, xs) -> np.ndarray:
    """Batch f_N = exp(-f/N); overflow saturates to +inf."""
    return _exp_clip(-fn.values(xs) / p.N)


def fN_ratio_values(fn: Functional, p: CurvatureParams, zs, y: Point) -> np.ndarray:
    """f_N(z)/f_N(y) = exp(g(z) - g(y)) over a batch of z; f(y) must be
    finite."""
    gy = log_fN(fn, p, y)
    if not math.isfinite(gy):
        raise BasePointOutsideDomain(f"f({y!r}) is not finite")
    return _exp_clip(-fn.values(zs) / p.N - gy)


# ---------------------------------------------------------------------------
# closed-form library
# ---------------------------------------------------------------------------

def _log_pos(v):
    """log with the domain conventions log(+-0) = -inf, log(v<0) = +inf
    (also for NaN)."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(v)
    return np.where(v >= 0, out, math.inf)


_LOG2 = math.log(2.0)


def _log_hyperbolic(y, sign: float):
    """log cosh y (sign 1) or log sinh y for y >= 0 (sign -1, log sinh 0 =
    -inf); where cosh or sinh overflows, |y| + log1p(sign e^{-2|y|}) - log 2."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        out = np.asarray(np.log(np.cosh(y) if sign > 0 else np.sinh(y)))
    big = (out == math.inf) & np.isfinite(y)
    if big.any():
        a = np.abs(y[big])
        out[big] = a + np.log1p(sign * np.exp(-2.0 * a)) - _LOG2
    return out


def _sech2_csch2(y: float, sign: float) -> float:
    """sech^2 y (sign 1) or csch^2 y for y > 0 (sign -1) as 4e / (1 + sign
    e)^2, e = exp(-2|y|), which is 0 where cosh or sinh overflows."""
    e = math.exp(-2.0 * abs(y))
    d = 1.0 + e if sign > 0 else -math.expm1(-2.0 * y)
    return 4.0 * e / d / d


def library(name: str, p: CurvatureParams, *, c: float = 1.0, a: float = 1.0,
            dim: int = 1) -> Functional:
    """Closed-form example functionals with their natural domains.

    log-cosh (K>0) on R, log-sinh (K>0) on (0,inf), log-x (K=0) on (0,inf),
    log-cos (K<0) on a symmetric bounded interval, plus quadratic c*x^2/2
    and linear a*x plumbing examples, each with grad and hess in closed
    form.  Sign mismatches raise :class:`IncompatibleSign`.
    """
    K, N = p.K, p.N
    if name == "log-cosh":
        if K <= 0:
            raise IncompatibleSign("log-cosh needs K > 0")
        w = math.sqrt(-K / N)
        return Functional(
            space=Interval(),
            fvec=lambda x: -N * _log_hyperbolic(w * x, 1.0),
            grad=lambda x: -N * w * math.tanh(w * float(x)),
            hess=lambda x: K * _sech2_csch2(w * float(x), 1.0),  # -N w^2 = K
            name="log-cosh", params=p, sample_box=(-3.0 / w, 3.0 / w),
        )
    if name == "log-sinh":
        if K <= 0:
            raise IncompatibleSign("log-sinh needs K > 0")
        w = math.sqrt(-K / N)
        return Functional(
            space=Interval(0.0, math.inf),
            fvec=lambda x: -N * _log_hyperbolic(w * np.maximum(x, 0.0), -1.0),
            grad=lambda x: -N * w / math.tanh(w * float(x)),
            hess=lambda x: -K * _sech2_csch2(w * float(x), -1.0),
            name="log-sinh", params=p, sample_box=(1e-3 / w, 3.0 / w),
        )
    if name == "log-x":
        if K != 0:
            raise IncompatibleSign("log-x needs K = 0")
        return Functional(
            space=Interval(0.0, math.inf),
            fvec=lambda x: -N * _log_pos(x),
            grad=lambda x: -N / float(x),
            hess=lambda x: N / float(x) / float(x),  # x*x underflows first
            name="log-x", params=p, sample_box=(1e-3, 4.0),
        )
    if name == "log-cos":
        if K >= 0:
            raise IncompatibleSign("log-cos needs K < 0")
        w = math.sqrt(K / N)
        half = 0.5 * math.pi / w
        # mask closure boundary: cos(pi/2) rounds to 6e-17, not exactly 0
        return Functional(
            space=Interval(-half, half),
            fvec=lambda x: -N * _log_pos(
                np.where(np.abs(x) < half, np.cos(w * np.minimum(np.abs(x), half)), 0.0)),
            grad=lambda x: N * w * math.tan(w * float(x)),
            hess=lambda x: K / math.cos(w * float(x)) ** 2,
            name="log-cos", params=p, upper_bound=0.0,
            sample_box=(-half + 1e-3, half - 1e-3),
        )
    if name == "quadratic":
        c = float(c)
        if dim == 1:
            return Functional(
                space=Interval(),
                fvec=lambda x: 0.5 * c * x * x,
                grad=lambda x: c * float(x),
                hess=lambda x: c,
                name=f"quadratic({c})", params=p, sample_box=(-3.0, 3.0),
                meta={"c": c},
            )
        space = EuclideanRn(dim)  # ParamOutOfRange for dim < 1, before np.eye
        hess = c * np.eye(dim)
        hess.flags.writeable = False
        return Functional(
            space=space,
            fvec=lambda x: 0.5 * c * (x * x).sum(axis=-1),
            grad=lambda x: c * np.asarray(x, dtype=float),
            hess=lambda x: hess,
            name=f"quadratic({c})", params=p,
            sample_box=(-3.0 * np.ones(dim), 3.0 * np.ones(dim)),
            meta={"c": c},
        )
    if name == "linear":
        a = float(a)
        return Functional(
            space=Interval(0.0, math.inf, open_a=False),
            fvec=lambda x: a * x,
            grad=lambda x: a,
            hess=lambda x: 0.0,
            name=f"linear({a})", params=p, sample_box=(0.0, 4.0),
            meta={"a": a},
        )
    raise IncompatibleSign(f"unknown library functional {name!r}")


def fN_functional(fn: Functional, p: CurvatureParams) -> Functional:
    """The exponential transform of fn as a functional in its own right."""
    def fvec(xs):
        return _exp_clip(-fn.fvec(xs) / p.N)

    grad = hess = None
    if fn.grad is not None:
        point = fn.space.point  # a float on an interval

        def grad(x):  # chain rule through the log domain
            g = _exp_clip(-fn.value(x) / p.N)
            return point(-(1.0 / p.N) * g * np.asarray(fn.grad(x)))

        if fn.hess is not None:
            def hess(x):  # g'' = -(g/N) (f'' - f' f'^T / N)
                g, df = _exp_clip(-fn.value(x) / p.N), np.asarray(fn.grad(x), dtype=float)
                return point(-(g / p.N) * (fn.hess(x) - np.multiply.outer(df, df) / p.N))

    ub = None if fn.upper_bound is None else float(_exp_clip(-fn.upper_bound / p.N))
    return Functional(
        space=fn.space, fvec=fvec, name=f"{fn.name}_N", params=p, grad=grad, hess=hess,
        upper_bound=ub, sample_box=fn.sample_box, meta=dict(fn.meta),
    )


# ---------------------------------------------------------------------------
# directional derivative (liminf estimator)
# ---------------------------------------------------------------------------

def directional_derivative(fn: Functional, g: Geodesic,
                           tol: Tolerance = DEFAULT_TOL,
                           t0: float = 0.25) -> float:
    """liminf of (f(gamma_t) - f(gamma_0))/t as t -> 0+.

    Difference quotients are taken on the finest four levels of the
    geometric sequence t_k = t0 * 2^-k down to tol.h_min; their minimum
    estimates the liminf.  +-inf results are legitimate.  A t0 below
    tol.h_min raises StepUnderflow, one that is not finite ParamOutOfRange.
    """
    f0 = fn.value(g.p0)
    if not math.isfinite(f0):
        raise BasePointOutsideDomain(f"f(gamma(0)) = {f0}")
    quotients = []
    for t in _halving_steps(t0, tol.h_min, "t0")[-4:]:
        ft = fn.value(g(t))
        quotients.append((ft - f0) / t if math.isfinite(ft) else ft)
    return float(min(quotients))


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

# Forward mode to second order: a compiled node maps an environment of
# (value, tangent, Hessian) triples to the triple of its subexpression.
# A tangent or Hessian of None is an exact zero, so plain evaluation does no
# derivative work and a constant exponent never differentiates through
# log of the base (pow(x, 2) has tangent 2x also at x < 0).  Constants are
# Python floats: every rule divides and raises to a power through numpy.

def _tsum(*terms):  # the sum from the left of the terms that are not None
    terms = [t for t in terms if t is not None]
    return sum(terms[1:], terms[0]) if terms else None


def _scale(c, t):
    return None if t is None else c * t


def _outer(da, db):
    return None if da is None or db is None else np.multiply.outer(da, db)


def _sym(da, db):  # da db^T + db da^T, exactly symmetric
    s = _outer(da, db)
    return None if s is None else s + s.T


def _add(a, da, ha, b, db, hb):
    return np.add(a, b), _tsum(da, db), _tsum(ha, hb)


def _sub(a, da, ha, b, db, hb):
    return np.subtract(a, b), _tsum(da, _scale(-1.0, db)), _tsum(ha, _scale(-1.0, hb))


def _mul(a, da, ha, b, db, hb):
    return np.multiply(a, b), _tsum(_scale(b, da), _scale(a, db)), \
        _tsum(_scale(b, ha), _scale(a, hb), _sym(da, db))


def _div(a, da, ha, b, db, hb):
    # b q = a: q' = (a' - q b') / b and q'' = (a'' - q b'' - q'b'^T - b'q'^T) / b
    q = np.true_divide(a, b)
    dq = _tsum(None if da is None else da / b, None if db is None else -q / b * db)
    hq = _tsum(ha, _scale(-q, hb), _scale(-1.0, _sym(dq, db)))
    return q, dq, None if hq is None else np.true_divide(hq, b)


def _pow(a, da, ha, b, db, hb):
    # a negative base with a fractional exponent is off the domain: +inf,
    # as for log of a negative number
    p = np.where((a < 0) & (np.mod(b, 1.0) > 0), math.inf, np.power(a, b))
    pa = paa = pb = pbb = pab = None  # the partials of p
    if da is not None:
        a1 = np.power(a, b - 1.0)
        pa, paa = b * a1, b * (b - 1.0) * np.power(a, b - 2.0)
    if db is not None:
        log_a = np.log(a)
        pb, pbb = p * log_a, p * log_a * log_a
        pab = None if da is None else a1 * (1.0 + b * log_a)
    return p, _tsum(_scale(pa, da), _scale(pb, db)), _tsum(
        _scale(paa, _outer(da, da)), _scale(pab, _sym(da, db)),
        _scale(pbb, _outer(db, db)), _scale(pa, ha), _scale(pb, hb))


_BINOPS = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div,
           ast.Pow: _pow}

# name -> (f, f', f'' from (f, f'))
_FUNCS = {
    "log": (_log_pos, lambda a: 1.0 / a, lambda f, d: -d * d),
    "exp": (_exp_clip, _exp_clip, lambda f, d: d),
    "sin": (np.sin, np.cos, lambda f, d: -f),
    "cos": (np.cos, lambda a: -np.sin(a), lambda f, d: -f),
    "sinh": (np.sinh, np.cosh, lambda f, d: f), "cosh": (np.cosh, np.sinh, lambda f, d: f),
}

_CONSTS = {"pi": math.pi, "e": math.e}


def _compile_node(node, var_names):
    if isinstance(node, ast.Expression):
        return _compile_node(node.body, var_names)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"constant {node.value!r} not allowed")
        try:
            v = float(node.value)
        except OverflowError as exc:
            raise ExpressionError("integer constant too large for a float") from exc
        return lambda env: (v, None, None)
    if isinstance(node, ast.Name):
        if node.id in var_names:
            key = node.id
            return lambda env: env[key]
        if node.id in _CONSTS:
            v = _CONSTS[node.id]
            return lambda env: (v, None, None)
        raise ExpressionError(f"unknown name {node.id!r}")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        sub = _compile_node(node.operand, var_names)
        if isinstance(node.op, ast.UAdd):
            return sub

        def neg(env):
            a, da, ha = sub(env)
            return np.negative(a), _scale(-1.0, da), _scale(-1.0, ha)
        return neg
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        rule = _BINOPS[type(node.op)]
        left = _compile_node(node.left, var_names)
        right = _compile_node(node.right, var_names)
        return lambda env: rule(*left(env), *right(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or \
                node.func.id not in _FUNCS and node.func.id != "pow":
            raise ExpressionError("only log/exp/sin/cos/sinh/cosh/pow calls allowed")
        if node.keywords:
            raise ExpressionError("keyword arguments not allowed")
        fname = node.func.id
        want = 2 if fname == "pow" else 1
        if len(node.args) != want:
            raise ExpressionError(f"{fname} takes {want} argument(s)")
        args = [_compile_node(a, var_names) for a in node.args]
        if fname == "pow":
            base, expo = args
            return lambda env: _pow(*base(env), *expo(env))
        f, df, d2f = _FUNCS[fname]
        (arg,) = args

        def call(env):  # (f o a)'' = f''(a) a'a'^T + f'(a) a''
            a, da, ha = arg(env)
            if da is None:
                return f(a), None, None
            fa, d1 = f(a), df(a)
            return fa, d1 * da, _tsum(_scale(d2f(fa, d1), _outer(da, da)), _scale(d1, ha))
        return call
    raise ExpressionError(f"expression node {type(node).__name__} not allowed")


def expression_functional(expr: str, space: Optional[ModelSpace] = None,
                          name: Optional[str] = None,
                          params: Optional[CurvatureParams] = None,
                          sample_box: Optional[tuple] = None) -> Functional:
    """Build a functional from a small arithmetic expression.

    Grammar: + - * / and the calls log, exp, sin, cos, sinh, cosh, pow;
    constants (incl. pi, e); variable x on intervals, x1..xn on R^n.
    grad and hess come from forward mode to second order.
    """
    space = space if space is not None else Interval()
    names = [f"x{i + 1}" for i in range(space.n)] if space.shape else ["x"]
    try:
        body = _compile_node(ast.parse(expr, mode="eval"), set(names))
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # deep nesting overflows the parser's or the compiler's stack
        raise ExpressionError(f"cannot parse {expr[:80]!r}: "
                              f"{str(exc) or 'nested too deeply'}") from exc
    name = name or f"expr:{expr}"
    n, basis = len(names), np.eye(len(names))  # the tangents of the variables

    def evaluate(xs, tangents):  # the last axis of xs holds the variables
        env = {key: (xs[..., i], tangents[i], None) for i, key in enumerate(names)}
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            try:
                return body(env)
            except RecursionError as exc:  # a deeper caller's stack
                raise ExpressionError(f"{name} is nested too deeply") from exc

    def fvec(xs):  # the point axes as one axis of the variables
        arr = np.asarray(xs, dtype=float)
        arr = arr.reshape(*arr.shape[:arr.ndim - len(space.shape)], n)
        v = evaluate(arr, [None] * n)[0]
        return np.broadcast_to(np.asarray(v, dtype=float), arr.shape[:-1]).copy()

    def derivative(order, what):  # the gradient (order 1) or the Hessian (2)
        def d(x):
            out = evaluate(np.asarray(x, dtype=float).reshape(n), basis)[order]
            out = np.zeros((n,) * order) if out is None \
                else require_not_nan(np.array(out, dtype=float), f"{what} of {name}")
            return space.point(out.reshape(space.shape * order))
        return d

    return Functional(space=space, fvec=fvec, name=name, params=params,
                      grad=derivative(1, "gradient"), hess=derivative(2, "Hessian"),
                      sample_box=sample_box, meta={"expr": expr})


def functional_from_json(d: dict) -> Functional:
    """Build a functional from its JSON descriptor.

    Either {"library":"log-cos","K":-1,"N":-1,...} or
    {"expr":"log(cos(x))","domain":{...},"K":...,"N":...}.
    """
    from .spaces import space_from_json  # local to avoid cycle at import time
    from .errors import ConfigInvalid

    if not isinstance(d, dict):
        raise ConfigInvalid("functional descriptor must be a dict")
    if "library" in d:
        p = CurvatureParams(_number(d.get("K", 0.0), "K"),
                            _number(d.get("N", -1.0), "N"))
        kwargs = {key: _number(d[key], key) for key in ("c", "a") if key in d}
        if "dim" in d:
            kwargs["dim"] = _integer(d["dim"], "dim")
        return library(d["library"], p, **kwargs)
    if "expr" in d:
        if not isinstance(d["expr"], str):
            raise ConfigInvalid(f"expr must be a string, got {d['expr']!r}")
        space = space_from_json(d["domain"]) if "domain" in d else Interval()
        p = (CurvatureParams(_number(d["K"], "K"), _number(d["N"], "N"))
             if "K" in d and "N" in d else None)
        box = (_pair(d["sample_box"], "sample_box") if "sample_box" in d
               else None)
        return expression_functional(d["expr"], space, params=p, sample_box=box)
    raise ConfigInvalid("functional descriptor needs 'library' or 'expr'")

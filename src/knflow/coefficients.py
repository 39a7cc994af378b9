"""Trigonometric / hyperbolic kernels and distortion ratio coefficients.

For curvature K and negative dimension N the two kernels are

    s(theta) = sin(theta*w)/w   (K < 0),   theta        (K = 0),
               sinh(theta*w)/w  (K > 0),       w = sqrt(|K/N|),
    c(theta) = cos(theta*w),    1,    cosh(theta*w)   respectively,

and the distortion coefficient sigma^(t)(theta) is the ratio
s(t*theta)/s(theta), equal to t when K*theta^2 = 0 and +inf in the singular
regime K*theta^2 <= N*pi^2 (only reachable for K < 0).  Below the
crossover w*theta = 1e-4, s uses a 5-term Taylor series of sin(x)/x or
sinh(x)/x; the array form evaluates sin or sinh on the whole array and
overwrites the entries below the crossover, if any, with the series.

Each kernel has an array form (``s_values``, ``c_values``, ``sigma_values``)
and a scalar form (``s_kn``, ``c_kn``, ``sigma``, ``sigma_rate_limits``) that
works on Python floats with ``math`` and returns plain floats.  Both take
the same branches; they agree to a few ulp (``math`` and numpy may round
sin, sinh, cosh and pow differently), and bitwise in the K > 0 branch where
sinh(w*theta) overflows, which the scalar ``sigma`` hands to
``sigma_values``.  At theta = +inf: s = c = +inf for K > 0, sigma is 0 for
t < 1 and 1 at t = 1; for K < 0 sin and cos have no limit and both forms
of s and c raise ``ParamOutOfRange``.  NaN raises in both forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NanError, NegativeTheta, ParamOutOfRange, SingularTheta

# Below this value of theta*w the kernels switch to a 5-term Taylor series;
# keeps ratios like theta/s(theta) cancellation-free.
_SERIES_CROSSOVER = 1e-4


@dataclass(frozen=True)
class CurvatureParams:
    """Curvature K (any real) and dimension parameter N < 0."""

    K: float
    N: float

    def __post_init__(self):
        K, N = float(self.K), float(self.N)
        if not (math.isfinite(K) and math.isfinite(N)):
            raise ParamOutOfRange("K and N must be finite")
        if N >= 0:
            raise ParamOutOfRange(f"N must be negative, got {N}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "N", N)

    @property
    def omega(self) -> float:
        """Frequency sqrt(|K/N|); zero when K = 0."""
        return math.sqrt(abs(self.K / self.N))

    @property
    def theta_singular(self) -> float:
        """Smallest theta with K*theta^2 <= N*pi^2 (+inf when K >= 0)."""
        if self.K >= 0:
            return math.inf
        return math.pi * math.sqrt(self.N / self.K)


def _series(x2, sign):
    """Five Taylor terms of sin(x)/x (sign -1) or sinh(x)/x (sign +1), x2 = x*x."""
    return (1.0 + sign * (x2 / 6.0) + x2**2 / 120.0 + sign * (x2**3 / 5040.0)
            + x2**4 / 362880.0)


def _ratio(x, sign):
    """sin(x)/x (sign -1) or sinh(x)/x (sign +1) on the whole array, then
    the series on the entries below the crossover, if there are any."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # 0/0 at x = 0
        out = (np.sinh if sign > 0 else np.sin)(x, out=np.empty_like(x))
        out /= x
    small = np.abs(x) < _SERIES_CROSSOVER
    if small.any():
        out[small] = _series(np.square(x[small]), sign)
    if sign > 0:  # sinh(+-inf)/+-inf is NaN; the limit is inf
        np.copyto(out, np.inf, where=np.isinf(x))
    return out


def _omega_theta_values(p: CurvatureParams, theta: np.ndarray) -> np.ndarray:
    """w*theta for the array kernels; NaN, -inf and (for K < 0) +inf raise."""
    with np.errstate(over="ignore", invalid="ignore"):  # 0*inf when K = 0
        x = theta * p.omega
    if not np.isfinite(x).all():
        if np.isnan(theta).any():
            raise NanError("theta must not be NaN")
        if (theta == -math.inf).any() or (x == -math.inf).any():
            raise NegativeTheta("theta must be >= 0")
        if p.K < 0:
            raise ParamOutOfRange("sin and cos have no limit at theta*w = +inf")
    return x


def s_values(p: CurvatureParams, theta) -> np.ndarray:
    """Vectorized kernel s(theta); theta array-like, >= 0 assumed."""
    theta = np.asarray(theta, dtype=float)
    x = _omega_theta_values(p, theta)
    if p.K == 0:
        return theta.copy()
    # sinh(x)/x finite but theta times it past the double range: +inf
    with np.errstate(over="ignore"):
        return theta * _ratio(x, math.copysign(1.0, p.K))


def c_values(p: CurvatureParams, theta) -> np.ndarray:
    """Vectorized kernel c(theta)."""
    theta = np.asarray(theta, dtype=float)
    x = _omega_theta_values(p, theta)
    if p.K == 0:
        return np.ones_like(theta)
    if p.K < 0:
        return np.cos(x)
    with np.errstate(over="ignore"):
        return np.cosh(x)


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if math.isnan(theta) or theta < 0:
        raise NegativeTheta(f"theta must be >= 0, got {theta}")
    return theta


def _omega_theta(p: CurvatureParams, theta: float) -> float:
    """w*theta for the scalar kernels; for K < 0 it must be finite."""
    x = theta * p.omega
    if x == math.inf and p.K < 0:
        raise ParamOutOfRange(f"sin and cos have no limit at theta*w = +inf "
                              f"(theta={theta})")
    return x


def _s_scalar(p: CurvatureParams, theta: float) -> float:
    """s(theta) on floats with the branches of s_values; +inf past sinh's range."""
    if p.K == 0:
        return theta
    x = _omega_theta(p, theta)
    if x < _SERIES_CROSSOVER:
        return theta * _series(x * x, math.copysign(1.0, p.K))
    if p.K < 0:
        return theta * (math.sin(x) / x)
    if x == math.inf:
        return math.inf
    try:
        return theta * (math.sinh(x) / x)
    except OverflowError:
        return math.inf


def s_kn(p: CurvatureParams, theta: float) -> float:
    """Kernel s(theta) for theta >= 0."""
    return _s_scalar(p, _check_theta(theta))


def c_kn(p: CurvatureParams, theta: float) -> float:
    """Kernel c(theta) for theta >= 0."""
    theta = _check_theta(theta)
    if p.K == 0:
        return 1.0
    x = _omega_theta(p, theta)
    if p.K < 0:
        return math.cos(x)
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def is_singular(p: CurvatureParams, theta: float) -> bool:
    """True when K*theta^2 <= N*pi^2 (closed condition)."""
    return p.K * theta * theta <= p.N * math.pi**2


def sigma_values(p: CurvatureParams, t, theta) -> np.ndarray:
    """Vectorized distortion coefficients; +inf in the singular regime.

    t and theta broadcast against each other; t in [0,1], theta >= 0.  A
    NaN t or theta raises NanError.  For K != 0 with no singular entry
    the kernels run on the broadcast inputs (flat entries set to t
    afterwards), else on copies of the entries neither flat nor singular.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(t).all():
        bad = NanError if np.isnan(t).any() else ParamOutOfRange
        raise bad("t must be finite")
    t, theta = np.broadcast_arrays(t, theta)
    with np.errstate(over="ignore", invalid="ignore"):  # 0*inf when K = 0
        k_theta2 = p.K * theta * theta
    live = k_theta2 > p.N * math.pi**2  # not singular; a NaN fails too
    whole = p.K != 0 and live.all()  # K = 0: all flat, nothing to evaluate
    if not whole and not (theta > -math.inf).all():
        bad = NanError if np.isnan(theta).any() else ParamOutOfRange
        raise bad("theta must not be NaN or -inf")
    sel = ... if whole else live & (k_theta2 != 0.0)  # t[...] is a view
    ts, th = t[sel], theta[sel]
    with np.errstate(over="ignore", invalid="ignore"):  # 0*inf, inf/inf and
        x, tth = th * p.omega, ts * th                  # 0/0: patched below
        den = th * _ratio(x, math.copysign(1.0, p.K))
        ratio = _ratio(tth * p.omega, math.copysign(1.0, p.K))
        ratio *= tth
        ratio /= den
        big = np.isinf(den)  # sinh(w theta) overflowed (K > 0 only)
        if big.any():
            xb, tb = x[big], ts[big]
            if (xb < 0).any():  # theta = -inf, or negative past sinh's range
                raise ParamOutOfRange("theta must be >= 0")
            scaled = (np.exp(-xb * (1.0 - tb)) * np.expm1(-2.0 * tb * xb)
                      / np.expm1(-2.0 * xb))
            # at w theta = +inf the limit is 0 for t < 1 and 1 at t = 1
            ratio[big] = np.where(xb == np.inf, tb == 1.0, scaled)
    if whole:
        np.copyto(ratio, t, where=k_theta2 == 0.0)  # flat: sigma = t
        return ratio
    out = t.copy()  # covers K*theta^2 == 0, and NaN (K = 0, theta = +inf)
    out[sel] = ratio
    out[k_theta2 <= p.N * math.pi**2] = math.inf
    return out


def sigma(p: CurvatureParams, t: float, theta: float) -> float:
    """Distortion coefficient sigma^(t)(theta); +inf in the singular regime."""
    t = float(t)
    theta = float(theta)
    if math.isnan(t) or not (0.0 <= t <= 1.0):
        raise ParamOutOfRange(f"t must lie in [0,1], got {t}")
    if math.isnan(theta) or theta < 0:
        raise ParamOutOfRange(f"theta must be >= 0, got {theta}")
    k_theta2 = p.K * theta * theta
    if p.K == 0 or k_theta2 == 0.0:
        return t
    if k_theta2 <= p.N * math.pi**2:
        return math.inf
    den = _s_scalar(p, theta)
    if den == math.inf:
        # sinh(w theta) overflowed: sigma_values' scaled form, bit for bit
        return float(sigma_values(p, t, theta))
    return _s_scalar(p, t * theta) / den


def sigma_rate_limits(p: CurvatureParams, theta: float) -> tuple[float, float]:
    """Small-t rates of the distortion coefficients at fixed theta > 0.

    Returns (lim sigma^(t)/t, lim (sigma^(1-t) - 1)/t) as t -> 0, i.e.
    (theta/s(theta), -theta*c(theta)/s(theta)): with x = w*theta,
    (x/sin x, -x/tan x) for K < 0 and (x/sinh x, -x/tanh x) for K > 0,
    which stay finite where sinh(x) overflows; (1, -1) for K = 0.
    """
    theta = _check_theta(theta)
    if theta == 0:
        raise NegativeTheta("theta must be > 0")
    if is_singular(p, theta):
        raise SingularTheta(f"theta={theta} is in the singular regime")
    x = theta * p.omega
    if p.K == 0 or x == 0.0:  # x == 0 also when w*theta underflows
        return 1.0, -1.0
    if p.K < 0:
        return x / math.sin(x), -x / math.tan(x)
    if x == math.inf:
        return 0.0, -math.inf
    try:
        rate0 = x / math.sinh(x)
    except OverflowError:
        rate0 = 0.0
    return rate0, -x / math.tanh(x)

"""Trigonometric / hyperbolic kernels and distortion ratio coefficients.

For curvature K and negative dimension N the two kernels are

    s(theta) = sin(theta*w)/w   (K < 0),   theta        (K = 0),
               sinh(theta*w)/w  (K > 0),       w = sqrt(|K/N|),
    c(theta) = cos(theta*w),    1,    cosh(theta*w)   respectively,

and the distortion coefficient sigma^(t)(theta) is the ratio
s(t*theta)/s(theta), equal to t when K*theta^2 = 0 and +inf in the singular
regime K*theta^2 <= N*pi^2 (only reachable for K < 0).

The array forms ``s_values``, ``c_values`` and ``sigma_values`` hold every
edge rule; below the crossover w*theta = 1e-4, s is a 5-term Taylor series
of sin(x)/x or sinh(x)/x.  The scalar forms ``s_kn``, ``c_kn`` and
``sigma`` return floats from ``math`` on the regular range alone: K != 0,
1e-4 <= w*theta < inf (0 < w*theta for c) with no overflow and, for
sigma, t in [0, 1], w*t*theta >= 1e-4, theta neither flat nor singular and
s(theta) finite.  There the two forms agree to a few ulp (``math`` and
numpy may round sin, sinh and cosh differently); elsewhere a scalar form
returns its array form's 0-d value.  At theta = +inf: s = c = +inf for
K > 0, sigma is 0 for t < 1 and 1 at t = 1; for K < 0 sin and cos have
no limit and s and c raise ``ParamOutOfRange``.  A NaN raises
``NanError`` everywhere, ``is_singular`` and ``sigma_rate_limits``
included; theta < 0 (-0.0 passes) raises ``NegativeTheta``, except in
sigma, which raises ``ParamOutOfRange`` for it and for t outside [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NanError, NegativeTheta, ParamOutOfRange, SingularTheta

_SERIES_CROSSOVER = 1e-4  # w*theta below which s(theta)/theta is a series
_PI2 = math.pi**2  # the singular regime is K*theta^2 <= N*_PI2


@dataclass(frozen=True)
class CurvatureParams:
    """Curvature K (any real) and dimension parameter N < 0; the frequency
    ``omega`` = sqrt(|K/N|) is set at construction and is not a field."""

    K: float
    N: float

    def __post_init__(self):
        K, N = float(self.K), float(self.N)
        if not (math.isfinite(K) and math.isfinite(N)):
            raise ParamOutOfRange("K and N must be finite")
        if N >= 0:
            raise ParamOutOfRange(f"N must be negative, got {N}")
        if abs(K / N) == math.inf:  # omega = +inf: s(0) and c(0) would be NaN
            raise ParamOutOfRange(f"|K/N| overflows at K = {K}, N = {N}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "omega", math.sqrt(abs(K / N)))

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
    """w*theta for the array kernels; raises NanError on a NaN, NegativeTheta
    on theta < 0 (-0.0 passes) and, for K < 0, ParamOutOfRange at +inf."""
    if not theta.min(initial=0.0) >= 0:  # min carries a NaN, which fails
        bad = NanError if np.isnan(theta).any() else NegativeTheta
        raise bad("theta must be >= 0 and not NaN")
    with np.errstate(over="ignore", invalid="ignore"):  # 0*inf when K = 0
        x = theta * p.omega
    if p.K < 0 and not x.max(initial=0.0) < math.inf:
        raise ParamOutOfRange("sin and cos have no limit at theta*w = +inf")
    return x


def s_values(p: CurvatureParams, theta) -> np.ndarray:
    """Vectorized kernel s(theta); theta array-like, NegativeTheta if < 0."""
    theta = np.asarray(theta, dtype=float)
    x = _omega_theta_values(p, theta)
    if p.K == 0:
        return theta.copy()
    # sinh(x)/x finite but theta times it past the double range: +inf
    with np.errstate(over="ignore"):
        return theta * _ratio(x, math.copysign(1.0, p.K))


def c_values(p: CurvatureParams, theta) -> np.ndarray:
    """Vectorized kernel c(theta); theta array-like, NegativeTheta if < 0."""
    theta = np.asarray(theta, dtype=float)
    x = _omega_theta_values(p, theta)
    if p.K == 0:
        return np.ones_like(theta)
    if p.K < 0:
        return np.cos(x)
    with np.errstate(over="ignore"):
        return np.cosh(x)


def s_kn(p: CurvatureParams, theta: float) -> float:
    """Kernel s(theta) for theta >= 0."""
    theta = float(theta)
    x = theta * p.omega
    if _SERIES_CROSSOVER <= x < math.inf:  # K != 0 and theta > 0
        try:
            return theta * ((math.sinh if p.K > 0 else math.sin)(x) / x)
        except OverflowError:
            pass
    return float(s_values(p, theta))


def c_kn(p: CurvatureParams, theta: float) -> float:
    """Kernel c(theta) for theta >= 0."""
    theta = float(theta)
    x = theta * p.omega
    if 0.0 < x < math.inf:  # c has no series branch
        try:
            return (math.cosh if p.K > 0 else math.cos)(x)
        except OverflowError:
            pass
    return float(c_values(p, theta))


def is_singular(p: CurvatureParams, theta: float) -> bool:
    """True when K*theta^2 <= N*pi^2 (closed condition), for theta >= 0."""
    if not theta >= 0:
        bad = NanError if math.isnan(theta) else NegativeTheta
        raise bad(f"theta must be >= 0 and not NaN, got {theta}")
    return p.K * theta * theta <= p.N * _PI2


def sigma_values(p: CurvatureParams, t, theta) -> np.ndarray:
    """Vectorized distortion coefficients; +inf in the singular regime.

    t and theta broadcast against each other.  A NaN raises NanError, a t
    outside [0,1] or a theta < 0 (-0.0 passes) ParamOutOfRange.
    The regime masks and s(theta) are computed on theta's own shape, only
    s(t*theta) on the broadcast one; flat entries (K*theta^2 = 0, all when
    K = 0) are then set to t and singular ones to +inf.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    # one reduction per bound: min and max carry a NaN, which fails the test
    if not (t.min(initial=0.0) >= 0 and t.max(initial=1.0) <= 1
            and theta.min(initial=0.0) >= 0):
        bad = NanError if np.isnan(t).any() or np.isnan(theta).any() else ParamOutOfRange
        raise bad("t must lie in [0,1] and theta be >= 0, neither NaN")
    if p.K == 0:  # every entry flat: sigma = t
        return np.broadcast_to(t, np.broadcast_shapes(t.shape, theta.shape)).copy()
    sign = math.copysign(1.0, p.K)
    with np.errstate(all="ignore"):  # 0/0, inf/inf, 0*inf: patched below
        k_theta2 = p.K * theta * theta
        flat, singular = k_theta2 == 0.0, k_theta2 <= p.N * _PI2
        del k_theta2  # full-size when theta is: not kept to the peak
        x = theta * p.omega
        den = theta * _ratio(x, sign)
        big = np.isinf(den)  # sinh(w theta) overflowed (K > 0 only)
        tth = t * theta
        ratio = _ratio(tth * p.omega, sign)
        ratio *= tth
        ratio /= den
        if big.any():
            big, xb, tb = np.broadcast_arrays(big, x, t)
            xb, tb = xb[big], tb[big]
            scaled = (np.exp(-xb * (1.0 - tb)) * np.expm1(-2.0 * tb * xb)
                      / np.expm1(-2.0 * xb))
            # at w theta = +inf the limit is 0 for t < 1 and 1 at t = 1
            ratio[big] = np.where(xb == np.inf, tb == 1.0, scaled)
    np.copyto(ratio, t, where=flat)
    np.copyto(ratio, math.inf, where=singular)
    return ratio


def sigma(p: CurvatureParams, t: float, theta: float) -> float:
    """Distortion coefficient sigma^(t)(theta); +inf in the singular regime."""
    t, theta = float(t), float(theta)
    x, tx, k_theta2 = theta * p.omega, t * theta * p.omega, p.K * theta * theta
    # neither flat nor singular, w*t*theta past the series crossover
    if (0.0 <= t <= 1.0 and _SERIES_CROSSOVER <= tx and x < math.inf
            and k_theta2 != 0.0 and k_theta2 > p.N * _PI2):
        kernel = math.sinh if p.K > 0 else math.sin
        try:
            den = theta * (kernel(x) / x)
            if den < math.inf:
                return t * theta * (kernel(tx) / tx) / den
        except OverflowError:
            pass
    return float(sigma_values(p, t, theta))


def sigma_rate_limits(p: CurvatureParams, theta: float) -> tuple[float, float]:
    """Small-t rates of the distortion coefficients at fixed theta > 0.

    Returns (lim sigma^(t)/t, lim (sigma^(1-t) - 1)/t) as t -> 0, i.e.
    (theta/s(theta), -theta*c(theta)/s(theta)): with x = w*theta,
    (x/sin x, -x/tan x) for K < 0 and (x/sinh x, -x/tanh x) for K > 0,
    which stay finite where sinh(x) overflows; (1, -1) for K = 0.
    """
    theta = float(theta)
    if is_singular(p, theta):  # NegativeTheta for theta < 0, NanError
        raise SingularTheta(f"theta={theta} is in the singular regime")
    if theta == 0:
        raise NegativeTheta("theta must be > 0")
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

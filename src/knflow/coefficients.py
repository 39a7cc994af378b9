"""Trigonometric / hyperbolic kernels and distortion ratio coefficients.

For curvature K and negative dimension N the two kernels are

    s(theta) = sin(theta*w)/w   (K < 0),   theta        (K = 0),
               sinh(theta*w)/w  (K > 0),       w = sqrt(|K/N|),
    c(theta) = cos(theta*w),    1,    cosh(theta*w)   respectively,

and the distortion coefficient sigma^(t)(theta) is the ratio
s(t*theta)/s(theta), equal to t when K*theta^2 = 0 and +inf in the singular
regime K*theta^2 <= N*pi^2 (only reachable for K < 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExtReal, POS_INF
from .errors import NegativeTheta, ParamOutOfRange, SingularTheta

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


@dataclass(frozen=True)
class SigmaValue:
    """Distortion coefficient value in [0, +inf]."""

    value: ExtReal

    @property
    def is_singular(self) -> bool:
        return self.value.is_pos_inf

    def __float__(self) -> float:
        return float(self.value)


def _sin_ratio(x):
    """sin(x)/x, series below the crossover.  Vectorized."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CROSSOVER
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2**2 / 120.0 - x2**3 / 5040.0 + x2**4 / 362880.0
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    return np.where(small, series, exact)


def _sinh_ratio(x):
    """sinh(x)/x, series below the crossover.  Vectorized."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CROSSOVER
    x2 = x * x
    series = 1.0 + x2 / 6.0 + x2**2 / 120.0 + x2**3 / 5040.0 + x2**4 / 362880.0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        exact = np.where(x == 0.0, 1.0, np.sinh(x) / np.where(x == 0.0, 1.0, x))
    return np.where(small, series, exact)


def s_values(p: CurvatureParams, theta) -> np.ndarray:
    """Vectorized kernel s(theta); theta array-like, >= 0 assumed."""
    theta = np.asarray(theta, dtype=float)
    if p.K == 0:
        return theta.copy()
    x = theta * p.omega
    ratio = _sin_ratio(x) if p.K < 0 else _sinh_ratio(x)
    return theta * ratio


def c_values(p: CurvatureParams, theta) -> np.ndarray:
    """Vectorized kernel c(theta)."""
    theta = np.asarray(theta, dtype=float)
    if p.K == 0:
        return np.ones_like(theta)
    x = theta * p.omega
    if p.K < 0:
        return np.cos(x)
    with np.errstate(over="ignore"):
        return np.cosh(x)


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if math.isnan(theta) or theta < 0:
        raise NegativeTheta(f"theta must be >= 0, got {theta}")
    return theta


def s_kn(p: CurvatureParams, theta: float) -> float:
    """Kernel s(theta) for theta >= 0."""
    return float(s_values(p, _check_theta(theta)))


def c_kn(p: CurvatureParams, theta: float) -> float:
    """Kernel c(theta) for theta >= 0."""
    return float(c_values(p, _check_theta(theta)))


def is_singular(p: CurvatureParams, theta: float) -> bool:
    """True when K*theta^2 <= N*pi^2 (closed condition)."""
    return p.K * theta * theta <= p.N * math.pi**2


def sigma_values(p: CurvatureParams, t, theta) -> np.ndarray:
    """Vectorized distortion coefficients; +inf in the singular regime.

    t and theta broadcast against each other; t in [0,1], theta >= 0.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    t, theta = np.broadcast_arrays(t, theta)
    k_theta2 = p.K * theta * theta
    out = np.array(t, dtype=float, copy=True)  # covers K*theta^2 == 0
    if p.K != 0:
        generic = k_theta2 != 0.0
        singular = k_theta2 <= p.N * math.pi**2
        safe = generic & ~singular
        if safe.any():
            num = s_values(p, t[safe] * theta[safe])
            den = s_values(p, theta[safe])
            with np.errstate(invalid="ignore"):
                ratio = num / den
            big = np.isinf(den)  # sinh(w theta) overflowed (K > 0 only)
            if big.any():
                x, tb = p.omega * theta[safe][big], t[safe][big]
                ratio[big] = (np.exp(-x * (1.0 - tb)) * np.expm1(-2.0 * tb * x)
                              / np.expm1(-2.0 * x))
            out[safe] = ratio
        out[singular] = math.inf
    return out


def sigma(p: CurvatureParams, t: float, theta: float) -> SigmaValue:
    """Distortion coefficient sigma^(t)(theta)."""
    t = float(t)
    theta = float(theta)
    if math.isnan(t) or not (0.0 <= t <= 1.0):
        raise ParamOutOfRange(f"t must lie in [0,1], got {t}")
    if math.isnan(theta) or theta < 0:
        raise ParamOutOfRange(f"theta must be >= 0, got {theta}")
    v = float(sigma_values(p, t, theta))
    if v == math.inf:
        return SigmaValue(POS_INF)
    return SigmaValue(ExtReal(v))


def sigma_rate_limits(p: CurvatureParams, theta: float) -> tuple[float, float]:
    """Small-t rates of the distortion coefficients at fixed theta > 0.

    Returns (lim sigma^(t)/t, lim (sigma^(1-t) - 1)/t) as t -> 0, i.e.
    (theta/s(theta), -theta*c(theta)/s(theta)).
    """
    theta = _check_theta(theta)
    if theta == 0:
        raise NegativeTheta("theta must be > 0")
    if is_singular(p, theta):
        raise SingularTheta(f"theta={theta} is in the singular regime")
    s = s_kn(p, theta)
    c = c_kn(p, theta)
    return theta / s, -theta * c / s

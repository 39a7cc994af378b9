import collections
import contextlib
import dataclasses
import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from knflow import coefficients
from knflow.coefficients import (
    _SERIES_CROSSOVER,
    CurvatureParams,
    _ratio,
    _series,
    c_kn,
    c_values,
    is_singular,
    s_kn,
    s_values,
    sigma,
    sigma_rate_limits,
    sigma_values,
)
from knflow.errors import (KNFlowError, NanError, NegativeTheta, ParamOutOfRange,
                           SingularTheta)

mp.mp.dps = 40


def mp_s(K, N, theta):
    """High-precision reference kernel."""
    K, N, theta = map(mp.mpf, (K, N, theta))
    if K < 0:
        w = mp.sqrt(K / N)
        return float(mp.sin(theta * w) / w)
    if K == 0:
        return float(theta)
    w = mp.sqrt(-K / N)
    return float(mp.sinh(theta * w) / w)


def mp_c(K, N, theta):
    K, N, theta = map(mp.mpf, (K, N, theta))
    if K < 0:
        return float(mp.cos(theta * mp.sqrt(K / N)))
    if K == 0:
        return 1.0
    return float(mp.cosh(theta * mp.sqrt(-K / N)))


class TestKernels:
    def test_flat_branch_identity(self):
        p = CurvatureParams(0.0, -1.0)
        assert s_kn(p, 2.0) == 2.0
        assert c_kn(p, 5.0) == 1.0

    def test_hyperbolic_values(self):
        p = CurvatureParams(1.0, -1.0)
        assert s_kn(p, 1.0) == pytest.approx(mp_s(1, -1, 1), abs=1e-14)
        assert c_kn(p, 1.0) == pytest.approx(mp_c(1, -1, 1), abs=1e-14)
        assert s_kn(p, 1.0) == pytest.approx(1.1752011936438014, abs=1e-12)
        assert c_kn(p, 1.0) == pytest.approx(1.5430806348152437, abs=1e-12)

    def test_trigonometric_values(self):
        p = CurvatureParams(-1.0, -1.0)
        assert s_kn(p, math.pi / 2) == pytest.approx(1.0, abs=1e-14)
        assert c_kn(p, math.pi) == pytest.approx(-1.0, abs=1e-14)

    def test_general_params_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            K = rng.uniform(-3, 3)
            N = -rng.uniform(0.2, 4)
            theta = rng.uniform(0, 2.5)
            p = CurvatureParams(K, N)
            assert s_kn(p, theta) == pytest.approx(mp_s(K, N, theta), rel=1e-13, abs=1e-14)
            assert c_kn(p, theta) == pytest.approx(mp_c(K, N, theta), rel=1e-13, abs=1e-14)

    def test_series_branch_matches_reference(self):
        p = CurvatureParams(2.0, -1.0)
        for theta in (1e-9, 1e-6, 5e-5):
            assert s_kn(p, theta) == pytest.approx(mp_s(2, -1, theta), rel=1e-15)
            assert c_kn(p, theta) == pytest.approx(mp_c(2, -1, theta), rel=1e-15)

    def test_negative_theta_rejected(self):
        p = CurvatureParams(1.0, -1.0)
        with pytest.raises(NegativeTheta):
            s_kn(p, -0.1)
        with pytest.raises(NegativeTheta):
            c_kn(p, -0.1)

    def test_params_validation(self):
        with pytest.raises(ParamOutOfRange):
            CurvatureParams(1.0, 0.0)
        with pytest.raises(ParamOutOfRange):
            CurvatureParams(1.0, 2.0)

    @pytest.mark.parametrize("K, N", [(1e300, -1e-10), (-1e300, -1e-10),
                                      (1.7976931348623157e308, -0.5)])
    def test_frequency_overflow_rejected(self, K, N):
        # finite K and N with |K/N| = +inf: omega would be +inf and s(0), c(0) NaN
        with pytest.raises(ParamOutOfRange, match="overflows"):
            CurvatureParams(K, N)

    def test_largest_frequency_kept(self):
        # |K/N| = 1.8e308 is finite: omega = 1.34e154, s(0) = 0 and c(0) = 1
        p = CurvatureParams(1.7976931348623157e308, -1.0)
        assert p.omega == math.sqrt(1.7976931348623157e308)
        np.testing.assert_array_equal(s_values(p, [0.0]), [0.0])
        np.testing.assert_array_equal(c_values(p, [0.0]), [1.0])
        assert s_kn(p, 0.0) == 0.0 and c_kn(p, 0.0) == 1.0


class TestSigma:
    def test_flat_branch(self):
        p = CurvatureParams(0.0, -1.0)
        assert float(sigma(p, 0.3, 7.0)) == 0.3

    def test_singular_branch_closed_boundary(self):
        # K*theta^2 = N*pi^2 exactly triggers the singular value
        p = CurvatureParams(-1.0, -1.0)
        v = sigma(p, 0.5, math.pi)
        assert v == math.inf
        assert is_singular(p, math.pi)
        assert float(v) == math.inf

    def test_is_singular_rejects_theta_as_the_kernels_do(self):
        # K*theta^2 <= N*pi^2 holds at theta = -4, but theta < 0 is rejected
        p = CurvatureParams(-1.0, -1.0)
        for theta in (-4.0, -math.inf):
            with pytest.raises(NegativeTheta):
                is_singular(p, theta)
        with pytest.raises(NanError):
            is_singular(p, math.nan)
        assert is_singular(p, 4.0) and not is_singular(p, 3.0)
        assert not is_singular(p, -0.0)

    def test_hyperbolic_ratio(self):
        p = CurvatureParams(1.0, -1.0)
        expected = float(mp.sinh(mp.mpf("0.5")) / mp.sinh(1))
        assert float(sigma(p, 0.5, 1.0)) == pytest.approx(expected, abs=1e-14)
        assert float(sigma(p, 0.5, 1.0)) == pytest.approx(0.4434094419850369, abs=1e-12)

    def test_endpoints(self):
        p = CurvatureParams(-0.7, -2.0)
        assert float(sigma(p, 0.0, 1.0)) == 0.0
        assert float(sigma(p, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_continuity_at_zero_theta(self):
        for K in (-1.0, 0.0, 2.0):
            p = CurvatureParams(K, -1.5)
            for theta in (1e-12, 1e-8, 1e-5):
                assert float(sigma(p, 0.4, theta)) == pytest.approx(0.4, abs=1e-10)

    def test_domain_validation(self):
        p = CurvatureParams(1.0, -1.0)
        with pytest.raises(ParamOutOfRange):
            sigma(p, 1.5, 1.0)
        with pytest.raises(ParamOutOfRange):
            sigma(p, 0.5, -1.0)

    def test_vectorized_matches_scalar(self):
        p = CurvatureParams(-1.0, -2.0)
        ts = np.linspace(0, 1, 9)
        thetas = np.full_like(ts, 1.3)
        vec = sigma_values(p, ts, thetas)
        for t, v in zip(ts, vec):
            assert float(sigma(p, t, 1.3)) == pytest.approx(v, abs=1e-15)


class TestRateLimits:
    def test_flat_rates(self):
        p = CurvatureParams(0.0, -1.0)
        assert sigma_rate_limits(p, 2.0) == (1.0, -1.0)

    def test_hyperbolic_rates(self):
        p = CurvatureParams(1.0, -1.0)
        r0, r1 = sigma_rate_limits(p, 1.0)
        assert r0 == pytest.approx(0.8509181282393215, abs=1e-12)
        assert r1 == pytest.approx(-1.3130352854993313, abs=1e-12)

    def test_trigonometric_rates(self):
        p = CurvatureParams(-1.0, -1.0)
        r0, r1 = sigma_rate_limits(p, 1.0)
        assert r0 == pytest.approx(1.1883951057781212, abs=1e-12)
        assert r1 == pytest.approx(-0.6420926159343307, abs=1e-12)

    def test_rates_match_small_t_quotients(self):
        p = CurvatureParams(2.0, -3.0)
        theta = 1.7
        r0, r1 = sigma_rate_limits(p, theta)
        t = 1e-7
        q0 = float(sigma(p, t, theta)) / t
        q1 = (float(sigma(p, 1 - t, theta)) - 1.0) / t
        assert q0 == pytest.approx(r0, rel=1e-5)
        assert q1 == pytest.approx(r1, rel=1e-5)

    def test_singular_theta_rejected(self):
        p = CurvatureParams(-1.0, -1.0)
        with pytest.raises(SingularTheta):
            sigma_rate_limits(p, math.pi)
        with pytest.raises(NegativeTheta):
            sigma_rate_limits(p, 0.0)


def _draw_params(rng, allow_negative_K=True):
    K = rng.uniform(-3, 3) if allow_negative_K else rng.uniform(0.05, 3)
    N = -rng.uniform(0.2, 4)
    p = CurvatureParams(K, N)
    # keep theta*omega <= ~3 so identity magnitudes stay O(10)
    cap = 0.98 * p.theta_singular if K < 0 else math.inf
    theta = rng.uniform(1e-3, min(cap, 3.0 / max(p.omega, 1.0), 3.0))
    return p, theta


class TestIdentities:
    """Structural identities the ratio coefficients satisfy."""

    def test_half_angle(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            p, theta = _draw_params(rng)
            if p.K == 0:
                continue
            lhs = s_kn(p, theta / 2) ** 2
            rhs = -(p.N / (2 * p.K)) * (c_kn(p, theta) - 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_product_to_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            p, _ = _draw_params(rng)
            pts = np.sort(rng.uniform(0, 2.0 / max(p.omega, 1.0), size=4))
            a, b, c, d = pts
            lhs = s_kn(p, c - a) * s_kn(p, d - b) - s_kn(p, b - a) * s_kn(p, d - c)
            rhs = s_kn(p, d - a) * s_kn(p, c - b)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_sum_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            p, theta = _draw_params(rng)
            s = rng.uniform(0, 1)
            total = (float(sigma(p, 1 - s, theta)) * c_kn(p, s * theta)
                     + float(sigma(p, s, theta)) * c_kn(p, (1 - s) * theta))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_kernel_vs_identity_comparison(self):
        # s(theta) <= theta for K<0, s(theta) >= theta for K>0
        rng = np.random.default_rng(14)
        for _ in range(500):
            p, theta = _draw_params(rng)
            s = s_kn(p, theta)
            if p.K < 0:
                assert s <= theta + 1e-14
            elif p.K > 0:
                assert s >= theta - 1e-14

    def test_quarter_bound_on_half_angle_ratio(self):
        # theta <= 4 s(theta/2)^2 / s(theta) for K < 0 (reversed for K > 0)
        rng = np.random.default_rng(15)
        for _ in range(500):
            p, theta = _draw_params(rng)
            if p.K == 0:
                continue
            ratio = 4 * s_kn(p, theta / 2) ** 2 / s_kn(p, theta)
            if p.K < 0:
                assert theta <= ratio + 1e-12
            else:
                assert theta >= ratio - 1e-12

    def test_monotone_in_K_and_N(self):
        # In K the ratio coefficient is non-increasing for every sign.  In N
        # the direction depends on the sign of K: sin(t*x)/sin(x) grows with
        # x while sinh(t*x)/sinh(x) shrinks, and raising N toward 0 raises
        # x = theta*sqrt(|K/N|).  Hence non-decreasing in N for K < 0 and
        # non-increasing for K > 0 (constant for K = 0).
        rng = np.random.default_rng(16)
        for _ in range(2000):
            N = -rng.uniform(0.2, 4)
            K1, K2 = np.sort(rng.uniform(-3, 3, size=2))
            t = rng.uniform(0, 1)
            p1, p2 = CurvatureParams(K1, N), CurvatureParams(K2, N)
            cap = min(p1.theta_singular, p2.theta_singular)
            theta = rng.uniform(0, 0.98 * min(cap, 3.0))
            assert float(sigma(p1, t, theta)) >= float(sigma(p2, t, theta)) - 1e-12

            K = rng.uniform(-3, 3)
            Na, Nb = -np.sort(rng.uniform(0.2, 4, size=2))  # Na >= Nb
            pa, pb = CurvatureParams(K, Na), CurvatureParams(K, Nb)
            cap = min(pa.theta_singular, pb.theta_singular)
            theta = rng.uniform(0, 0.98 * min(cap, 3.0))
            sa, sb = float(sigma(pa, t, theta)), float(sigma(pb, t, theta))
            if K < 0:
                assert sa >= sb - 1e-12
            elif K > 0:
                assert sa <= sb + 1e-12
            else:
                assert sa == pytest.approx(sb, abs=1e-15)

    def test_vectorized_kernels_match_scalar(self):
        p = CurvatureParams(-0.5, -2.0)
        thetas = np.linspace(0.0, 2.0, 17)
        sv = s_values(p, thetas)
        cv = c_values(p, thetas)
        for theta, s, c in zip(thetas, sv, cv):
            assert s_kn(p, theta) == pytest.approx(s, abs=1e-15)
            assert c_kn(p, theta) == pytest.approx(c, abs=1e-15)


class TestSigmaOverflow:
    """K > 0 with sinh(w theta) past the double range: the scaled form."""

    P = CurvatureParams(1.0, -1e-3)  # w = sqrt(1000), w theta in [949, 1581]

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(30.0, 50.0))
    def test_matches_mpmath(self, t, theta):
        a = mp.sqrt(mp.mpf(1000)) * mp.mpf(theta)
        with mp.workdps(40):
            ref = float(mp.sinh(mp.mpf(t) * a) / mp.sinh(a))
        got = float(sigma_values(self.P, t, theta))
        assert abs(got - ref) <= 1e-11 * ref + 1e-300
        assert float(sigma(self.P, t, theta)) == got

    def test_double_overflow_point_is_finite(self):
        assert float(sigma(self.P, 0.9, 40.0)) == pytest.approx(1.1630823833259427e-55,
                                                                rel=1e-12)

    def test_entries_without_overflow_unchanged(self):
        ts = np.linspace(0.0, 1.0, 11)
        thetas = np.linspace(0.5, 22.0, 11)  # w theta < 710
        expected = s_values(self.P, ts * thetas) / s_values(self.P, thetas)
        assert np.array_equal(sigma_values(self.P, ts, thetas), expected)


EPS = np.finfo(float).eps


class TestScalarMatchesArray:
    """The math-on-floats scalar kernels against the array kernels.

    math and numpy may round sin, sinh and cosh differently, so on the
    math range the two forms agree to a few ulp, not bitwise.  The bound is
    4 ulp relative to the array value, 4*max(eps*|array|, 2^-1074): a
    one-ulp difference in sinh at the bottom of a binade reads as two ulps
    of a result near the top of one, and a subnormal result's ulp is
    2^-1074.  Off the math range (below the series crossover, past sinh's
    range) the scalar forms return the array value (TestScalarArrayParity).
    """

    @staticmethod
    def _close(scalar, array):
        array = float(array)
        if math.isinf(array):
            return scalar == array
        return abs(scalar - array) <= 4 * max(EPS * abs(array), 2.0 ** -1074)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 4.0), st.floats(0.01, 10.0),
           st.floats(-9.0, 0.0), st.floats(0.0, 1.0))
    @example(1.0, 0.25, 1.0, -5.561273385331148, 2.225073858507203e-309)  # subnormal
    def test_agree_to_four_ulp(self, sign, log_ratio, n_abs, log_x, t):
        # |K/N| = 10**log_ratio up to 1e4; w*theta = x_max * 10**log_x runs
        # across the series crossover at 1e-4 up to 0.999 of the cap (K < 0)
        # or 2000 (K > 0)
        p = CurvatureParams(sign * 10.0**log_ratio * n_abs, -n_abs)
        x_max = 0.999 * math.pi if sign < 0 else 2000.0
        theta = x_max * 10.0**log_x / p.omega
        assert self._close(s_kn(p, theta), s_values(p, theta))
        assert self._close(c_kn(p, theta), c_values(p, theta))
        assert self._close(sigma(p, t, theta), sigma_values(p, t, theta))


@contextlib.contextmanager
def _array_calls():
    """Counts of the s_values, c_values and sigma_values calls made in the
    block, by name."""
    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("s_values", "c_values", "sigma_values"):
            def spy(*args, _kernel=getattr(coefficients, name), _name=name):
                calls[_name] += 1
                return _kernel(*args)
            patch.setattr(coefficients, name, spy)
        yield calls


def _value_or_error(call):
    """The float call() returns, or the type of the library error it raises."""
    try:
        return float(call())
    except KNFlowError as exc:
        return type(exc)


@st.composite
def scalar_inputs(draw):
    """(p, t, theta) for any (K, N), theta and t: the branch points of
    _theta_edges, rejected and NaN values, uniform draws up to 1.2 times
    the cap (K < 0) or w*theta = 2000, and any float."""
    sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    n_abs = draw(st.floats(1e-3, 1e3))
    p = CurvatureParams(sign * 10.0 ** draw(st.floats(-300.0, 300.0)) * n_abs, -n_abs)
    hi = 1.2 * p.theta_singular if p.K < 0 else 2000.0 / (p.omega or 1.0)
    theta = draw(st.one_of(
        st.sampled_from(_theta_edges(p) + [-0.0, -1.0, -math.inf, math.nan]),
        st.floats(0.0, hi), st.floats()))
    t = draw(st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1e-300, -0.1, 1.5, math.inf, math.nan]),
        st.floats(0.0, 1.0), st.floats()))
    return p, t, theta


class TestScalarArrayParity:
    """Each scalar kernel returns its array kernel's 0-d value or raises the
    same error type, for any (K, N), theta and t: bitwise where it hands the
    input to the array kernel, within TestScalarMatchesArray's 4 ulp where
    it uses math.  Inputs off the math range (K = 0, w*theta below the
    series crossover (0 for c) or not finite, theta < 0, NaN; for sigma
    also t outside [0, 1], w*t*theta below the crossover, flat or singular)
    are always handed over; past sinh's range they may be."""

    @staticmethod
    def _off_math_range(p, t, theta):
        x = theta * p.omega
        k_theta2 = p.K * theta * theta
        off_s = not _SERIES_CROSSOVER <= x < math.inf
        return {"s_values": off_s, "c_values": not 0.0 < x < math.inf,
                "sigma_values": off_s or not 0.0 <= t <= 1.0
                or not t * theta * p.omega >= _SERIES_CROSSOVER
                or k_theta2 == 0.0 or k_theta2 <= p.N * math.pi ** 2}

    @settings(max_examples=600, deadline=None)
    @given(scalar_inputs())
    # sinh(w theta)/w theta finite, theta times it past the double range
    @example((CurvatureParams(0.01, -1.0), 0.0, 7090.0))
    def test_value_or_error_of_the_array_kernel(self, args):
        p, t, theta = args
        off = self._off_math_range(p, t, theta)
        for scalar, array, kernel_args in ((s_kn, s_values, (theta,)),
                                           (c_kn, c_values, (theta,)),
                                           (sigma, sigma_values, (t, theta))):
            with _array_calls() as calls:
                got = _value_or_error(lambda: scalar(p, *kernel_args))
            want = _value_or_error(lambda: array(p, *kernel_args))
            name = array.__name__
            if calls[name]:
                assert calls == {name: 1}
                assert (np.float64(got).tobytes() == np.float64(want).tobytes()
                        if isinstance(want, float) else got is want)
            else:
                assert not off[name], (name, p, t, theta)
                assert isinstance(want, float)
                assert TestScalarMatchesArray._close(got, want)


class TestMathRangeSkipsArrayKernels:
    """For K != 0, 1e-4 <= w*theta below sinh's overflow and w*t*theta in
    the same range, no scalar kernel calls an array kernel."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 4.0), st.floats(0.01, 10.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_no_array_call(self, sign, log_ratio, n_abs, u, v):
        # w*theta from 2e-4 up to 0.999 of the cap (K < 0) or 600 (K > 0),
        # w*t*theta from 2e-4 up to w*theta
        p = CurvatureParams(sign * 10.0**log_ratio * n_abs, -n_abs)
        x_max = 0.999 * math.pi if sign < 0 else 600.0
        x = 2e-4 * (x_max / 2e-4) ** u
        theta, t = x / p.omega, (2e-4 / x) ** v
        with _array_calls() as calls:
            s_kn(p, theta), c_kn(p, theta), sigma(p, t, theta)
            sigma_rate_limits(p, theta), is_singular(p, theta)
        assert not calls


class TestInfiniteTheta:
    """theta = +inf: the limits where they exist, ParamOutOfRange where not."""

    def test_s_positive_K_is_inf(self):
        p = CurvatureParams(1.0, -1.0)
        assert s_kn(p, math.inf) == math.inf
        assert c_kn(p, math.inf) == math.inf
        assert s_values(p, np.array([1.0, math.inf]))[1] == math.inf

    def test_negative_K_has_no_limit(self):
        p = CurvatureParams(-1.0, -1.0)
        with pytest.raises(ParamOutOfRange):
            s_kn(p, math.inf)
        with pytest.raises(ParamOutOfRange):
            c_kn(p, math.inf)
        with pytest.raises(ParamOutOfRange):  # w*theta overflows to +inf
            s_kn(CurvatureParams(-1e4, -1e-4), 1e306)

    def test_sigma_positive_K_limits(self):
        p = CurvatureParams(1.0, -1.0)
        ts = np.array([0.0, 0.3, 0.999, 1.0])
        expected = np.array([0.0, 0.0, 0.0, 1.0])
        assert [sigma(p, t, math.inf) for t in ts] == list(expected)
        assert np.array_equal(sigma_values(p, ts, math.inf), expected)

    def test_rates_stay_finite_past_sinh_range(self):
        assert sigma_rate_limits(CurvatureParams(1.0, -1.0), 1000.0) == (0.0, -1000.0)

    def test_flat_rates_at_inf(self):
        assert sigma_rate_limits(CurvatureParams(0.0, -1.0), math.inf) == (1.0, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(720.0, 2000.0), st.floats(0.0, 1.0))
    def test_large_argument_matches_mpmath(self, x, t):
        p = CurvatureParams(1.0, -1e-3)
        theta = x / p.omega
        with mp.workdps(40):
            a = mp.sqrt(mp.mpf(1000)) * mp.mpf(theta)
            rate0 = float(a / mp.sinh(a))
            rate1 = float(-a / mp.tanh(a))
            ref = float(mp.sinh(mp.mpf(t) * a) / mp.sinh(a))
        r0, r1 = sigma_rate_limits(p, theta)
        # a/sinh(a) is subnormal or 0 here
        assert abs(r0 - rate0) <= 1e-300
        assert r1 == pytest.approx(rate1, rel=1e-13)
        assert abs(sigma(p, t, theta) - ref) <= 1e-11 * ref + 1e-300

    def test_array_kernels_negative_K_raise(self):
        p = CurvatureParams(-1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (s_values, c_values):
                with pytest.raises(ParamOutOfRange):
                    kernel(p, np.array([1.0, math.inf]))
                with pytest.raises(ParamOutOfRange):  # w*theta overflows
                    kernel(CurvatureParams(-1e4, -1e-4), 1e306)

    @pytest.mark.parametrize("K", [1e-4, 1.0, 1e4])
    def test_array_kernels_overflow_quietly(self, K):
        # w < 1 and K = 1e-4: sinh(w theta)/w finite, theta times it not;
        # then w*theta itself past the double range
        p = CurvatureParams(K, -1.0)
        thetas = np.array([70900.0, 1e306, 1e308, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sv = s_values(p, thetas)
            cv = c_values(p, thetas)
        assert np.all(sv == math.inf) and np.all(cv[1:] == math.inf)
        assert [s_kn(p, th) for th in thetas] == list(sv)
        assert [c_kn(p, th) for th in thetas[1:]] == list(cv[1:])
        assert c_kn(p, thetas[0]) == pytest.approx(cv[0], rel=4 * EPS)

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_only_library_errors_escape(self, K, theta):
        p = CurvatureParams(K, -1.0)
        calls = [lambda: s_kn(p, theta), lambda: c_kn(p, theta),
                 lambda: sigma(p, 0.5, theta), lambda: sigma(p, 1.0, theta),
                 lambda: sigma_rate_limits(p, theta),
                 lambda: sigma(p, math.nan, 1.0), lambda: sigma(p, math.inf, 1.0),
                 lambda: is_singular(p, theta)]
        for call in calls:
            try:
                value = call()
            except KNFlowError:
                continue
            assert not any(map(math.isnan, np.atleast_1d(value)))
        if not theta >= 0:  # NaN and -inf get no verdict
            with pytest.raises(NanError if math.isnan(theta) else NegativeTheta):
                is_singular(p, theta)


def _sin_ratio_reference(x):
    """The earlier sin(x)/x: series and sin evaluated on every entry, then
    np.where picks one."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CROSSOVER
    series = _series(x * x, -1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    return np.where(small, series, exact)


def _sinh_ratio_reference(x):
    """The earlier sinh(x)/x, with sinh(inf)/1 = inf."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CROSSOVER
    series = _series(x * x, 1.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        exact = np.where(x == 0.0, 1.0,
                         np.sinh(x) / np.where((x == 0.0) | (x == np.inf), 1.0, x))
    return np.where(small, series, exact)


RATIO_EDGES = [0.0, -0.0, 5e-324, -5e-324, 9.999999999999999e-05, 1e-4,
               1.0000000000000002e-4, -9.999999999999999e-05, -1e-4, 1.0, -1.0,
               709.78, 710.0, 710.5, 711.0, -711.0, 1e300]


class TestRatio:
    """_ratio evaluates the series and sin/sinh each on its own entries;
    it must equal the formulas that evaluated both everywhere, bit for bit."""

    @staticmethod
    def _assert_bitwise(x, sign):
        reference = _sinh_ratio_reference if sign > 0 else _sin_ratio_reference
        with np.errstate(over="ignore", invalid="ignore"):  # x*x past 1e154
            old = reference(x)
        new = _ratio(x, sign)
        assert new.shape == old.shape and new.tobytes() == old.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(RATIO_EDGES),
                              st.floats(-2e-4, 2e-4),
                              st.floats(-800.0, 800.0),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=40),
           st.sampled_from([-1.0, 1.0]))
    def test_bit_identical_to_earlier_formulas(self, xs, sign):
        self._assert_bitwise(np.array(xs, dtype=float), sign)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("x", RATIO_EDGES)
    def test_scalar_edges(self, x, sign):
        self._assert_bitwise(np.asarray(x), sign)

    def test_sinh_limits(self):
        x = np.array([math.inf, 711.0, 1e300])
        self._assert_bitwise(x, 1.0)
        assert np.all(_ratio(x, 1.0) == math.inf)


def _s_values_reference(p, theta):
    """The earlier s_values: _ratio on copies gathered from below and above
    the crossover, here through the reference ratio forms."""
    theta = np.asarray(theta, dtype=float)
    if p.K == 0:
        return theta.copy()
    x = theta * p.omega
    if p.K < 0 and np.isinf(x).any():
        raise ParamOutOfRange("sin and cos have no limit at theta*w = +inf")
    ratio = (_sinh_ratio_reference if p.K > 0 else _sin_ratio_reference)(x)
    return theta * ratio


def _sigma_values_reference(p, t, theta):
    """The earlier sigma_values: the kernels on copies of the entries that
    are neither flat nor singular, scattered back into a copy of t."""
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    t, theta = np.broadcast_arrays(t, theta)
    k_theta2 = p.K * theta * theta
    out = np.array(t, dtype=float, copy=True)
    if p.K != 0:
        generic = k_theta2 != 0.0
        singular = k_theta2 <= p.N * math.pi**2
        safe = generic & ~singular
        if safe.any():
            num = _s_values_reference(p, t[safe] * theta[safe])
            den = _s_values_reference(p, theta[safe])
            ratio = num / den
            big = np.isinf(den)
            if big.any():
                x, tb = p.omega * theta[safe][big], t[safe][big]
                scaled = (np.exp(-x * (1.0 - tb)) * np.expm1(-2.0 * tb * x)
                          / np.expm1(-2.0 * x))
                ratio[big] = np.where(x == np.inf, tb == 1.0, scaled)
            out[safe] = ratio
        out[singular] = math.inf
    return out


def _theta_edges(p):
    """theta at the kernel's branch points for p: 0, one ulp either side of
    the series crossover (in w*theta and in theta), the singular cap
    (K < 0), where sinh(w*theta) overflows and +inf (K > 0)."""
    w = p.omega if p.K != 0 else 1.0
    edges = [0.0, 1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0)]
    for x in (_SERIES_CROSSOVER, math.nextafter(_SERIES_CROSSOVER, 0.0),
              math.nextafter(_SERIES_CROSSOVER, 1.0), 1.0, 3.0):
        edges.append(x / w)
    if p.K < 0:
        cap = p.theta_singular
        edges += [cap, math.nextafter(cap, 0.0), math.nextafter(cap, math.inf),
                  0.5 * cap]
    else:
        edges += [709.0 / w, 710.5 / w, 711.0 / w, 2000.0 / w, 1e300, math.inf]
    return edges


@st.composite
def kernel_inputs(draw):
    """(p, t, theta) over both signs of K and K = 0, with theta from the
    branch points or uniform up to 1.2 times the cap (K < 0) or up to
    w*theta = 2000, 0-d, flat or (m,1) x (1,n) broadcast."""
    sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    n_abs = draw(st.floats(0.01, 10.0))
    p = CurvatureParams(sign * 10.0 ** draw(st.floats(-6.0, 4.0)) * n_abs, -n_abs)
    hi = 1.2 * p.theta_singular if p.K < 0 else 2000.0 / (p.omega or 1.0)
    theta_st = st.one_of(st.sampled_from(_theta_edges(p)), st.floats(0.0, hi))
    t_st = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    layout = draw(st.sampled_from(["0-d", "flat", "broadcast"]))
    if layout == "0-d":
        return p, np.asarray(draw(t_st)), np.asarray(draw(theta_st))
    if layout == "flat":
        theta = draw(st.lists(theta_st, min_size=1, max_size=30))
        t = draw(st.lists(t_st, min_size=len(theta), max_size=len(theta)))
        return p, np.array(t), np.array(theta)
    theta = draw(st.lists(theta_st, min_size=1, max_size=8))
    t = draw(st.lists(t_st, min_size=1, max_size=8))
    return p, np.array(t)[None, :], np.array(theta)[:, None]


class TestKernelsBitwise:
    """s_values, c_values and sigma_values against the gathering forms
    they replaced, bit for bit, with results that own their memory."""

    @staticmethod
    def _same(new, old):
        assert type(new) is type(old)
        assert np.shape(new) == np.shape(old)
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()

    @staticmethod
    def _owned(out, *inputs):
        assert out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in inputs)

    def _check(self, p, t, theta):
        with np.errstate(all="ignore"):
            old_sigma = _sigma_values_reference(p, t, theta)
            old_s = _s_values_reference(p, theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = sigma_values(p, t, theta)
            self._same(s_values(p, theta), old_s)
        self._same(sig, old_sigma)
        self._owned(sig, t, theta)
        if theta.ndim:
            self._owned(s_values(p, theta), theta)
            self._owned(c_values(p, theta), theta)

    @settings(max_examples=400, deadline=None)
    @given(kernel_inputs())
    def test_bit_identical_to_gathering_forms(self, args):
        self._check(*args)

    @pytest.mark.parametrize("K", [-1.1, 1.1])
    def test_half_below_crossover_at_random_positions(self, K):
        p = CurvatureParams(K, -1.1)
        rng = np.random.default_rng(20)
        n = 20000
        x = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1e-4, n),
                     rng.uniform(1e-4, 2.0, n))
        self._check(p, rng.uniform(0.0, 1.0, n), x / p.omega)

    def test_whole_array_and_gathering_paths(self):
        # grids with no singular entry and with some, each with and
        # without flat entries (theta = 0)
        p = CurvatureParams(-2.6, -0.4)
        rng = np.random.default_rng(21)
        t = rng.uniform(0.0, 1.0, 5000)
        for hi in (0.9 * p.theta_singular, 5.0):
            theta = rng.uniform(1e-3, hi, 5000)
            self._check(p, t, theta)
            theta[::7] = 0.0
            self._check(p, t, theta)

    def test_k_zero_evaluates_no_kernel(self, monkeypatch):
        # sigma = t at every entry; computing the kernels on the full grid
        # would only discard them
        sizes = []
        ratio = coefficients._ratio

        def counting(x, sign):
            sizes.append(np.size(x))
            return ratio(x, sign)

        monkeypatch.setattr(coefficients, "_ratio", counting)
        t = np.linspace(0.0, 1.0, 7)[None, :]
        self._check(CurvatureParams(0.0, -1.0), t,
                    np.linspace(0.0, 3.0, 5)[:, None])
        assert sum(sizes) == 0

    @pytest.mark.parametrize("K", [-1.1, 1.1])
    def test_theta_kernel_on_theta_shape(self, K, monkeypatch):
        # s(theta) once per theta (5 entries) and s(t*theta) once per cell
        # (5 x 7); not s(theta) at every cell as well
        sizes = []
        ratio = coefficients._ratio

        def counting(x, sign):
            sizes.append(np.size(x))
            return ratio(x, sign)

        monkeypatch.setattr(coefficients, "_ratio", counting)
        p = CurvatureParams(K, -1.1)
        t = np.linspace(0.0, 1.0, 7)[None, :]
        theta = np.linspace(0.0, 2.0, 5)[:, None]
        assert sigma_values(p, t, theta).shape == (5, 7)
        assert sum(sizes) == 5 + 35
        monkeypatch.undo()
        self._check(p, t, theta)


def _scalar_kernel_record():
    """Bytes of s_kn, c_kn, sigma_rate_limits and sigma over a seeded grid
    on and off the math range: K < 0, = 0, > 0 (with sinh(w theta) past
    the double range), the series crossover, the singular cap, theta = 0
    and +inf, t in {0, 1}, and the rejected theta and t; a raised error is
    recorded by its type."""
    rng = np.random.default_rng(2024)
    params = [CurvatureParams(-1.0, -1.0), CurvatureParams(-2.6, -0.4),
              CurvatureParams(0.0, -1.0), CurvatureParams(1.0, -1.0),
              CurvatureParams(1.0, -1e-3), CurvatureParams(1e3, -1.0)]
    params += [CurvatureParams(sign * 10.0 ** rng.uniform(-6.0, 4.0) * n, -n)
               for sign in (-1.0, 0.0, 1.0) for n in rng.uniform(0.01, 10.0, 2)]
    out = []

    def put(call, *args):
        try:
            value = call(*args)
        except KNFlowError as exc:
            out.append(type(exc).__name__.encode())
            return
        out.append(np.array(value, dtype=float).tobytes())

    for p in params:
        hi = 1.2 * p.theta_singular if p.K < 0 else 2000.0 / (p.omega or 1.0)
        thetas = (_theta_edges(p) + [math.inf, -0.0, -1.0, -math.inf, math.nan]
                  + rng.uniform(0.0, hi, 6).tolist())
        ts = [0.0, 1.0, 1e-300, 1.5, math.nan] + rng.uniform(0.0, 1.0, 3).tolist()
        for theta in thetas:
            put(s_kn, p, theta)
            put(c_kn, p, theta)
            put(sigma_rate_limits, p, theta)
            for t in ts:
                put(sigma, p, t, theta)
    return b"|".join(out)


class TestScalarKernelsPinned:
    """The scalar kernels, bit for bit, and the dataclass behaviour of
    CurvatureParams with its stored frequency."""

    def test_sha256_of_seeded_grid(self):
        digest = hashlib.sha256(_scalar_kernel_record()).hexdigest()
        assert digest == \
            "ae39c1298ad74646e36f2e56ca31bb5f8cdae2d9fafe3d59cb9c37cca5daa2d2"

    def test_params_dataclass_behaviour(self):
        p = CurvatureParams(-2, -0.5)
        assert repr(p) == "CurvatureParams(K=-2.0, N=-0.5)"
        assert p == CurvatureParams(-2.0, -0.5) != CurvatureParams(-2.0, -0.25)
        assert hash(p) == hash((-2.0, -0.5))
        assert [f.name for f in dataclasses.fields(p)] == ["K", "N"]
        assert dataclasses.astuple(p) == (-2.0, -0.5)
        assert p.omega == 2.0
        q = dataclasses.replace(p, K=8)
        assert q == CurvatureParams(8.0, -0.5) and q.omega == 4.0 and p.omega == 2.0
        assert CurvatureParams(0.0, -3.0).omega == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.omega = 1.0


class TestNanBan:
    """A NaN t or theta raises NanError in every kernel, scalar and array,
    and in is_singular and sigma_rate_limits, whatever the other argument
    (a flat, singular or regular entry)."""

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_nan_raises(self, K):
        p = CurvatureParams(K, -1.0)
        nan = math.nan
        calls = [lambda: s_values(p, [1.0, nan]), lambda: c_values(p, [nan]),
                 lambda: sigma_values(p, 0.5, [1.0, nan]),
                 lambda: sigma_values(p, [0.5, nan], 1.0),
                 lambda: sigma_values(p, nan, 0.0),  # a flat entry
                 lambda: sigma_values(p, [0.5, nan], [4.0, 4.0]),  # singular for K < 0
                 lambda: s_kn(p, nan), lambda: c_kn(p, nan),
                 lambda: sigma(p, 0.5, nan), lambda: sigma(p, 1.5, nan),
                 lambda: sigma(p, nan, 0.0), lambda: sigma(p, nan, 1.0),
                 lambda: sigma(p, nan, 4.0), lambda: sigma(p, nan, -1.0),
                 lambda: is_singular(p, nan), lambda: sigma_rate_limits(p, nan)]
        for call in calls:
            with pytest.raises(NanError):
                call()

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_infinite_t_raises(self, K):
        with pytest.raises(ParamOutOfRange):
            sigma_values(CurvatureParams(K, -1.0), [0.5, math.inf], 1.0)

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_minus_inf_theta_in_s_and_c_raises_negative_theta(self, K):
        p = CurvatureParams(K, -1.0)
        for array_form, scalar_form in ((s_values, s_kn), (c_values, c_kn)):
            with pytest.raises(NegativeTheta):
                scalar_form(p, -math.inf)
            with pytest.raises(NegativeTheta):  # NaN from sinh(-inf)/-inf before
                array_form(p, [1.0, -math.inf])

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_minus_inf_theta_in_sigma_raises_param_out_of_range(self, K):
        p = CurvatureParams(K, -1.0)
        with pytest.raises(ParamOutOfRange):
            sigma(p, 0.5, -math.inf)
        # no singular entry (K > 0), a singular entry (K < 0) and every
        # entry flat (K = 0)
        for t, theta in ((0.5, -math.inf), ([0.0, 1.0], -math.inf),
                         (0.5, [1.0, 4.0, -math.inf])):
            with pytest.raises(ParamOutOfRange):
                sigma_values(p, t, theta)


def _error_type(call):
    """The type of the library error call() raises, None if it returns."""
    try:
        call()
    except KNFlowError as exc:
        return type(exc)
    return None


class TestArrayScalarDomainParity:
    """The array kernels reject the theta and t that their scalar forms
    reject, with one error type per input: NanError for a NaN,
    NegativeTheta for theta < 0 in s and c, ParamOutOfRange for theta < 0
    or t outside [0, 1] in sigma.  -0.0 passes in both."""

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("theta", [-1.0, -1e-300, -math.inf, math.nan])
    def test_bad_theta(self, K, theta):
        p = CurvatureParams(K, -1.0)
        nan = math.isnan(theta)
        pairs = [(lambda: s_values(p, [1.0, theta]), lambda: s_kn(p, theta),
                  NegativeTheta),
                 (lambda: s_values(p, theta), lambda: s_kn(p, theta), NegativeTheta),
                 (lambda: c_values(p, [theta, 1.0]), lambda: c_kn(p, theta),
                  NegativeTheta),
                 (lambda: sigma_values(p, 0.5, [1.0, theta]),
                  lambda: sigma(p, 0.5, theta), ParamOutOfRange),
                 # a flat, a singular (K < 0) and an overflowing (K > 0) entry
                 (lambda: sigma_values(p, [0.0, 1.0], [[0.0], [4.0], [1e6], [theta]]),
                  lambda: sigma(p, 1.0, theta), ParamOutOfRange)]
        for array_call, scalar_call, expected in pairs:
            expected = NanError if nan else expected
            assert _error_type(scalar_call) is expected
            assert _error_type(array_call) is expected

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("t", [-0.1, 1.5, math.inf, -math.inf, math.nan])
    def test_bad_t(self, K, t):
        p = CurvatureParams(K, -1.0)
        expected = NanError if math.isnan(t) else ParamOutOfRange
        for theta in (0.0, 1.0, 4.0, 1e6):  # flat, safe, singular or overflowing
            assert _error_type(lambda: sigma(p, t, theta)) is expected
            assert _error_type(lambda: sigma_values(p, [0.5, t], theta)) is expected
            assert _error_type(lambda: sigma_values(p, t, [theta, 1.0])) is expected

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_negative_zero_passes(self, K):
        p = CurvatureParams(K, -1.0)
        assert s_values(p, [-0.0, 1.0])[0] == s_kn(p, -0.0) == 0.0
        assert c_values(p, -0.0) == c_kn(p, -0.0) == 1.0
        assert sigma_values(p, 0.5, [-0.0])[0] == sigma(p, 0.5, -0.0) == 0.5
        assert sigma_values(p, [-0.0, 1.0], 1.0)[0] == sigma(p, -0.0, 1.0) == 0.0

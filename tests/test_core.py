import math

import pytest
from hypothesis import example, given, strategies as st

from knflow.core import (
    NEG_INF,
    POS_INF,
    ExtReal,
    SampleSpec,
    Tolerance,
    as_ext,
    ext_add,
    ext_mul_conv,
)
from knflow.errors import (
    IndeterminateSum,
    NanError,
    NegativeCoefficient,
    ParamOutOfRange,
)


class TestExtReal:
    def test_rejects_nan(self):
        with pytest.raises(NanError):
            ExtReal(float("nan"))

    def test_total_order(self):
        assert NEG_INF < ExtReal(-1e300) < ExtReal(0.0) < ExtReal(1e300) < POS_INF
        assert POS_INF == POS_INF
        assert ExtReal(2.0) == 2.0
        assert ExtReal(2.0) < 3

    def test_float_conversion(self):
        assert float(ExtReal(1.5)) == 1.5
        assert float(POS_INF) == math.inf

    def test_flags(self):
        assert POS_INF.is_pos_inf and not POS_INF.is_finite
        assert NEG_INF.is_neg_inf
        assert ExtReal(0.0).is_finite


class TestExtAdd:
    def test_finite(self):
        assert ext_add(ExtReal(2.0), ExtReal(3.0)) == 5.0

    def test_inf_plus_finite(self):
        assert ext_add(POS_INF, ExtReal(7.0)) == POS_INF

    def test_neg_inf_plus_neg_inf(self):
        assert ext_add(NEG_INF, NEG_INF) == NEG_INF

    def test_indeterminate(self):
        with pytest.raises(IndeterminateSum):
            ext_add(POS_INF, NEG_INF)
        with pytest.raises(IndeterminateSum):
            ext_add(NEG_INF, POS_INF)

    @given(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12), st.floats(-1e12, 1e12))
    @example(999999511730.0, -999999487319.0, 1.1)
    def test_commutative_associative(self, a, b, c):
        assert ext_add(a, b) == ext_add(b, a)
        lhs = float(ext_add(ext_add(a, b), c))
        rhs = float(ext_add(a, ext_add(b, c)))
        # each order rounds twice, by at most u times the exact partial and
        # final sums; 2u(...) also covers the O(u^2) terms
        u = 2.0 ** -53
        bound = 2 * u * (abs(a + b) + abs(b + c) + 2 * abs(a + b + c))
        assert abs(lhs - rhs) <= bound


class TestExtMulConv:
    def test_zero_times_inf_is_zero(self):
        assert ext_mul_conv(0.0, POS_INF) == 0.0

    def test_half_times_four(self):
        assert ext_mul_conv(0.5, ExtReal(4.0)) == 2.0

    def test_two_times_inf(self):
        assert ext_mul_conv(2.0, POS_INF) == POS_INF

    def test_negative_coefficient(self):
        with pytest.raises(NegativeCoefficient):
            ext_mul_conv(-1.0, ExtReal(1.0))

    def test_negative_value_rejected(self):
        with pytest.raises(ParamOutOfRange):
            ext_mul_conv(1.0, ExtReal(-1.0))

    @given(st.floats(0, 1e6), st.floats(0, 1e12), st.floats(0, 1e12))
    def test_monotone_in_value(self, c, a, b):
        lo, hi = sorted((a, b))
        assert float(ext_mul_conv(c, lo)) <= float(ext_mul_conv(c, hi))


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs == 1e-8 and tol.rel == 1e-6 and tol.h_min == 1e-6

    def test_h_min_positive(self):
        with pytest.raises(ParamOutOfRange):
            Tolerance(h_min=0.0)

    def test_nonnegative_slack(self):
        with pytest.raises(ParamOutOfRange):
            Tolerance(abs=-1e-3)


class TestSampleSpec:
    def test_reproducible(self):
        a = SampleSpec(seed=42, count=10).rng().normal(size=10)
        b = SampleSpec(seed=42, count=10).rng().normal(size=10)
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ParamOutOfRange):
            SampleSpec(seed=-1, count=1)
        with pytest.raises(ParamOutOfRange):
            SampleSpec(seed=0, count=0)

    def test_as_ext_passthrough(self):
        x = as_ext(3.0)
        assert as_ext(x) is x

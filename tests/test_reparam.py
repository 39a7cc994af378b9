import math
import warnings

import numpy as np
import pytest

from knflow.coefficients import CurvatureParams
from knflow.core import Tolerance
from knflow.errors import DivergentIntegrand, KNFlowError, NotInCPrime, NotInCsecondN
from knflow.flows import Curve, oracle_flow, time_grid
from knflow.functionals import Functional, expression_functional, library
from knflow.reparam import class_membership, r1, r2, roundtrip_error
from knflow.spaces import Interval

P01 = CurvatureParams(0.0, -1.0)
PM11 = CurvatureParams(-1.0, -1.0)
P11 = CurvatureParams(1.0, -1.0)
TOL = Tolerance()

LINEAR = library("linear", P01, a=1.0)
LOG_X = library("log-x", P01)
LOG_COSH = library("log-cosh", P11)


def log_x_curve(n=1000, t_end=0.45, y0=1.0):
    return oracle_flow("log-x", P01, y0, time_grid(0.0, t_end, n))


class TestMembership:
    def test_log_x_oracle(self):
        m = class_membership(log_x_curve(), LOG_X, P01, TOL)
        assert m.in_C and m.in_Cprime and m.in_CsecondN

    def test_constant_curve(self):
        c = Curve(np.linspace(0, 1, 11), np.full(11, 2.0))
        m = class_membership(c, LOG_X, P01, TOL)
        assert m.in_Cprime and m.in_CsecondN

    def test_fN_overflow_is_quiet(self):
        # f_N = exp(800 - x) is past the double range along the curve
        fn = expression_functional("800 - x", Interval())
        c = Curve(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = class_membership(c, fn, P01, TOL)
            for call in (r1, r2):
                with pytest.raises(KNFlowError):
                    call(c, fn, P01, TOL)
        assert m.in_Cprime and not m.in_CsecondN

    def test_time_reversed_curve_not_in_cprime(self):
        base = log_x_curve(n=100)
        rev = Curve(base.times, base.points[::-1].copy())
        m = class_membership(rev, LOG_X, P01, TOL)
        assert not m.in_Cprime


class TestR1:
    def test_log_x_alpha_closed_form(self):
        # alpha(t) = 1 - sqrt(1-2t) for y0 = 1
        c = log_x_curve(n=2000, t_end=0.375)
        z = r1(c, LOG_X, P01, TOL)
        i = np.argmin(np.abs(c.times - 0.375))
        assert z.times[i] == pytest.approx(0.5, abs=2e-6)

    def test_log_x_becomes_linear_flow(self):
        c = log_x_curve(n=2000)
        z = r1(c, LOG_X, P01, TOL)
        np.testing.assert_allclose(z.points, 1.0 - z.times, atol=5e-6)

    def test_constant_curve_linear_rescale(self):
        c = Curve(np.linspace(0.0, 1.0, 11), np.full(11, 2.0))
        z = r1(c, LOG_X, P01, TOL)
        # integrand is constant -N/f_N(2) = 1/2
        np.testing.assert_allclose(z.times, c.times / 2.0, atol=1e-12)

    def test_not_in_cprime_rejected(self):
        base = log_x_curve(n=100)
        rev = Curve(base.times, base.points[::-1].copy())
        with pytest.raises(NotInCPrime):
            r1(rev, LOG_X, P01, TOL)

    def test_extinction_tail_truncated(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0.0, 0.8, 400))
        z = r1(c, LOG_X, P01, TOL)
        assert z.n_samples < c.n_samples
        assert (np.diff(z.times) > 0).all()

    def test_divergent_interior_rejected(self):
        # f_N dips to ~0 in the middle of the window
        fn = Functional(
            space=Interval(),
            fvec=lambda x: np.where(np.abs(x) < 0.1, -1e3, 0.0),
            name="dip",
        )
        tgrid = np.linspace(0, 1, 21)
        pts = np.linspace(1.0, -1.0, 21)
        with pytest.raises((DivergentIntegrand, NotInCPrime)):
            r1(Curve(tgrid, pts), fn, P01, TOL)


class TestR2:
    def test_linear_beta_closed_form(self):
        # z_s = 1-s is the flow of the transform of log-x (f_N = identity):
        # beta(s) = s - s^2/2
        grid = time_grid(0.0, 0.999, 2000)
        c = oracle_flow("fN-linear", None, 1.0, grid)
        y = r2(c, LOG_X, P01, TOL)
        np.testing.assert_allclose(y.times, grid - grid**2 / 2, atol=1e-6)
        # and the points over the new grid reproduce the sqrt flow
        np.testing.assert_allclose(y.points, np.sqrt(1 - 2 * y.times), atol=3e-4)

    def test_not_in_csecond_rejected(self):
        base = log_x_curve(n=100)
        rev = Curve(base.times, base.points[::-1].copy())
        with pytest.raises(NotInCsecondN):
            r2(rev, LOG_X, P01, TOL)


class TestRoundTrip:
    def test_log_x_error_small(self):
        c = log_x_curve(n=1000)
        err = roundtrip_error(c, LOG_X, P01, TOL)
        assert err <= 1e-5

    def test_constant_curve_zero(self):
        c = Curve(np.linspace(0.0, 1.0, 11), np.full(11, 2.0))
        assert roundtrip_error(c, LOG_X, P01, TOL) <= 1e-14

    def test_second_order_in_samples(self):
        e1 = roundtrip_error(log_x_curve(n=1000), LOG_X, P01, TOL)
        e2 = roundtrip_error(log_x_curve(n=2000), LOG_X, P01, TOL)
        assert e1 / e2 >= 3.5

    def test_r1r2_order(self):
        grid = time_grid(0.0, 0.95, 800)
        c = oracle_flow("fN-linear", None, 1.0, grid)
        err = roundtrip_error(c, LINEAR, P01, TOL, order="r1r2")
        assert err <= 1e-4


class TestMembershipOfTheCurveNotTheGrid:
    """The log-cosh oracle curve (K = 1, N = -1, y0 = 1) on [0.01, 1] is
    the same curve at every size; a refinement-gap rule called it outside
    C''_N below 200 samples."""

    SIZES = (20, 60, 100, 200, 1000)

    @staticmethod
    def curve(n):
        return oracle_flow("log-cosh", P11, 1.0, time_grid(0.01, 1.0, n))

    @pytest.mark.parametrize("n", SIZES)
    def test_r1_image_in_csecond_at_every_size(self, n):
        z = r1(self.curve(n), LOG_COSH, P11, TOL)
        assert class_membership(z, LOG_COSH, P11, TOL).in_CsecondN

    def test_roundtrip_at_every_size_falls_at_second_order(self):
        errs = {n: roundtrip_error(self.curve(n), LOG_COSH, P11, TOL)
                for n in self.SIZES}
        assert all(0.0 < e < 2e-4 for e in errs.values())
        assert errs[100] / errs[200] >= 3.5


class TestCorrespondenceShapes:
    def test_grids_strictly_increasing(self):
        c = log_x_curve(n=500)
        z = r1(c, LOG_X, P01, TOL)
        y = r2(z, LOG_X, P01, TOL)
        assert (np.diff(z.times) > 0).all()
        assert (np.diff(y.times) > 0).all()

    def test_alpha_origin_shrinks_with_t0(self):
        for t0 in (1e-2, 1e-4):
            grid = np.linspace(t0, 0.4, 200)
            c = oracle_flow("log-x", P01, 1.0, grid)
            z = r1(c, LOG_X, P01, TOL)
            assert z.times[0] == pytest.approx(t0 / math.sqrt(1 - 2 * t0), rel=1e-6)

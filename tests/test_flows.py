import dataclasses
import logging
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knflow.coefficients import CurvatureParams
from knflow.core import SampleSpec, Tolerance
from knflow.errors import (
    BasePointOutsideDomain,
    NanError,
    NoOracle,
    NotBoundedBelow,
    ParamOutOfRange,
    PointOutsideSpace,
)
from knflow.flows import (
    Curve,
    minimizing_movement,
    ode_flow,
    oracle_flow,
    prox,
    time_grid,
)
from knflow.functionals import (
    Functional,
    expression_functional,
    fN_functional,
    library,
)
from knflow.spaces import EuclideanRn, Interval

mp.mp.dps = 30

P01 = CurvatureParams(0.0, -1.0)
P11 = CurvatureParams(1.0, -1.0)
PM11 = CurvatureParams(-1.0, -1.0)
TOL = Tolerance()


class TestCurve:
    def test_validation(self):
        with pytest.raises(ParamOutOfRange):
            Curve(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ParamOutOfRange):
            Curve(np.array([-1.0, 0.0]), np.array([1.0, 1.0]))

    def test_interpolation(self):
        c = Curve(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert c.at(0.25) == pytest.approx(0.5)

    def test_segment(self):
        c = Curve(np.linspace(0, 1, 11), np.linspace(0, 1, 11), stop_time=0.9)
        s = c.segment(0.2, 0.5)
        assert s.window == (pytest.approx(0.2), pytest.approx(0.5))
        assert s.stop_time is None  # beyond the segment


class TestOracleFlow:
    def test_log_x_closed_form(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 0.49, 393))
        i = np.argmin(np.abs(c.times - 0.375))
        assert c.times[i] == pytest.approx(0.375, abs=1e-9)
        assert c.points[i] == pytest.approx(math.sqrt(1 - 2 * c.times[i]), abs=1e-12)
        assert c.stop_time == pytest.approx(0.5)

    def test_log_x_constant_after_extinction(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 1.0, 11))
        assert c.points[-1] == 0.0

    def test_log_cosh_closed_form(self):
        c = oracle_flow("log-cosh", P11, 1.0, time_grid(0, 1.0, 5))
        # oracle: sinh y_t = sinh(y0) e^{-t}
        expected = float(mp.asinh(mp.sinh(1) * mp.e**-1))
        assert expected == pytest.approx(0.4198852575620549, abs=1e-12)
        assert c.points[-1] == pytest.approx(expected, abs=1e-12)

    def test_log_cos_stop_time(self):
        y0 = 0.3
        c = oracle_flow("log-cos", PM11, y0, time_grid(0, 2.0, 101))
        assert c.stop_time == pytest.approx(-math.log(math.sin(y0)))
        after = c.times > c.stop_time
        np.testing.assert_allclose(c.points[after], math.pi / 2, atol=1e-12)

    def test_log_cos_meta(self):
        grid = time_grid(0, 2.0, 11)
        expected = {"method": "oracle", "functional": "log-cos", "K": -1.0, "N": -1.0}
        for y0 in (0.3, 0.0):  # 0.0: the constant branch
            a = oracle_flow("log-cos", PM11, y0, grid)
            b = oracle_flow("log-cos", PM11, y0, grid)
            assert a.meta == expected and a.meta is not b.meta

    def test_log_cos_general_params(self):
        p = CurvatureParams(-2.0, -0.5)  # omega = 2
        c = oracle_flow("log-cos", p, 0.2, time_grid(0, 0.1, 6))
        w = 2.0
        t = c.times[-1]
        expected = math.asin(math.sin(w * 0.2) * math.exp(-p.K * t)) / w
        assert c.points[-1] == pytest.approx(expected, abs=1e-12)

    def test_quadratic(self):
        c = oracle_flow("quadratic", None, 2.0, time_grid(0, 1, 3), c=1.0)
        assert c.points[-1] == pytest.approx(2 * math.exp(-1.0), abs=1e-14)

    def test_fn_linear(self):
        c = oracle_flow("fN-linear", None, 1.0, time_grid(0, 2, 21))
        assert c.stop_time == pytest.approx(1.0)
        assert c.at(0.25) == pytest.approx(0.75)
        assert c.points[-1] == 0.0

    def test_unknown_name(self):
        with pytest.raises(NoOracle):
            oracle_flow("log-tan", P01, 1.0, time_grid(0, 1, 3))

    def test_sign_guard(self):
        with pytest.raises(NoOracle):
            oracle_flow("log-cos", P11, 0.3, time_grid(0, 1, 3))


class TestOdeFlow:
    def test_quadratic_matches_closed_form(self):
        fn = library("quadratic", P11, c=1.0)
        c = ode_flow(fn, 2.0, time_grid(0, 1, 11), rtol=1e-10)
        assert c.points[-1] == pytest.approx(2 * math.exp(-1.0), abs=1e-8)

    def test_log_cos_matches_closed_form(self):
        fn = library("log-cos", PM11)
        c = ode_flow(fn, 0.1, time_grid(0, 1, 11), rtol=1e-10)
        expected = float(mp.asin(mp.sin(mp.mpf("0.1")) * mp.e))
        assert expected == pytest.approx(0.2748217312903422, abs=1e-12)
        assert c.points[-1] == pytest.approx(expected, abs=1e-7)

    def test_constant_functional(self):
        fn = Functional(space=Interval(), fvec=lambda x: np.zeros_like(x),
                        grad=lambda x: 0.0, name="const")
        c = ode_flow(fn, 0.7, time_grid(0, 1, 5))
        np.testing.assert_allclose(c.points, 0.7)

    def test_boundary_detection_sets_stop(self):
        fn = library("log-cos", PM11)
        # closed-form extinction at -log sin(0.5) ~ 0.7344
        c = ode_flow(fn, 0.5, time_grid(0, 2.0, 41), rtol=1e-9)
        assert c.stop_time is not None
        assert c.stop_time == pytest.approx(-math.log(math.sin(0.5)), abs=5e-3)
        assert c.points[-1] <= math.pi / 2

    def test_oracle_agreement_battery(self):
        rtol = 1e-9
        grid = time_grid(0, 0.8, 33)
        cases = [
            (library("quadratic", P11, c=1.0), 1.5,
             oracle_flow("quadratic", None, 1.5, grid, c=1.0)),
            (library("log-cosh", P11), 1.0,
             oracle_flow("log-cosh", P11, 1.0, grid)),
            (library("log-x", P01), 1.5,
             oracle_flow("log-x", P01, 1.5, grid)),
        ]
        for fn, y0, reference in cases:
            c = ode_flow(fn, y0, grid, rtol=rtol)
            sup = np.max(np.abs(c.points - reference.points))
            assert sup <= 10 * rtol, fn.name

    def test_rn_flow(self):
        fn = library("quadratic", P11, c=1.0, dim=2)
        c = ode_flow(fn, np.array([1.0, -2.0]), time_grid(0, 1, 5), rtol=1e-10)
        np.testing.assert_allclose(c.points[-1],
                                   np.array([1.0, -2.0]) * math.exp(-1),
                                   atol=1e-8)

    def test_finite_time_blow_up_raises(self):
        from knflow.errors import BlowUp
        fn = Functional(space=Interval(), fvec=lambda x: -0.25 * x**4,
                        grad=lambda x: -float(x) ** 3, name="neg-quartic")
        with pytest.raises(BlowUp):
            ode_flow(fn, 1.0, time_grid(0, 2.0, 11), rtol=1e-9)

    def test_solver_counters(self):
        fn = library("log-cos", PM11)
        grid = time_grid(0, 2.0, 41)
        c = ode_flow(fn, 0.5, grid, rtol=1e-9)
        nfev, status = c.meta["ode_nfev"], c.meta["ode_status"]
        assert isinstance(nfev, int) and nfev > 0
        assert status == 1  # the boundary event ended the integration
        again = ode_flow(fn, 0.5, grid, rtol=1e-9)
        assert (again.meta["ode_nfev"], again.meta["ode_status"]) == (nfev, status)
        rn = ode_flow(library("quadratic", P11, c=1.0, dim=2),
                      np.array([1.0, -2.0]), time_grid(0, 1, 5))
        assert rn.meta["ode_nfev"] > 0 and rn.meta["ode_status"] == 0

    def test_totals_logged_at_debug(self, caplog):
        fn = library("log-x", P01)
        with caplog.at_level(logging.DEBUG, logger="knflow"):
            c = ode_flow(fn, 1.0, time_grid(0, 0.2, 5))
            m = minimizing_movement(fn, 1e-2, 1.0, 0.2, TOL)
        records = [r for r in caplog.records if r.name == "knflow"]
        assert [r.levelno for r in records] == [logging.DEBUG, logging.DEBUG]
        assert records[0].getMessage() == \
            f"ode_flow log-x: nfev={c.meta['ode_nfev']} status=0"
        assert records[1].getMessage() == (
            f"minimizing_movement log-x: 20 steps, "
            f"prox_psi_evals={m.meta['prox_psi_evals']} "
            f"prox_expansions={m.meta['prox_expansions']}")


class TestProx:
    def test_linear_translation(self):
        fn = library("linear", P01, a=1.0)
        step = prox(fn, 0.1, 1.0, TOL)
        assert step.output == pytest.approx(0.9, abs=1e-9)

    def test_linear_clamped_to_boundary(self):
        fn = library("linear", P01, a=1.0)
        step = prox(fn, 0.5, 0.3, TOL)
        assert step.output == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_resolvent(self):
        fn = library("quadratic", P11, c=1.0)
        step = prox(fn, 1.0, 3.0, TOL)
        assert step.output == pytest.approx(1.5, abs=1e-10)

    def test_log_x_local_branch(self):
        # stationarity w^2 - v w + tau = 0 -> larger root
        fn = library("log-x", P01)
        v, tau = 1.0, 1e-3
        step = prox(fn, tau, v, TOL)
        expected = 0.5 * (v + math.sqrt(v * v - 4 * tau))
        assert step.output == pytest.approx(expected, abs=1e-10)

    def test_log_x_near_extinction_not_bounded_below(self):
        # v^2 < 4 tau: no interior critical point, objective -> -inf at 0
        fn = library("log-x", P01)
        with pytest.raises(NotBoundedBelow):
            prox(fn, 0.1, 0.01, TOL)

    def test_log_sinh_not_bounded_below(self):
        fn = library("log-sinh", P11)
        with pytest.raises(NotBoundedBelow):
            prox(fn, 0.5, 0.05, TOL)

    def test_rn_prox_quadratic(self):
        fn = library("quadratic", P11, c=1.0, dim=2)
        step = prox(fn, 1.0, np.array([3.0, -1.0]), TOL)
        np.testing.assert_allclose(step.output, [1.5, -0.5], atol=1e-8)

    def test_outside_closure(self):
        fn = library("log-x", P01)
        with pytest.raises(PointOutsideSpace):
            prox(fn, 0.1, -1.0, TOL)

    def test_nonpositive_tau_rejected(self):
        fn = library("quadratic", P11, c=1.0)
        with pytest.raises(ParamOutOfRange):
            prox(fn, 0.0, 1.0, TOL)

    def test_negative_start_rejected(self):
        with pytest.raises(PointOutsideSpace):
            oracle_flow("log-x", P01, -1.0, time_grid(0, 0.4, 5))


class TestMinimizingMovement:
    def test_linear_exact_translation(self):
        fn = library("linear", P01, a=1.0)
        c = minimizing_movement(fn, 0.05, 1.0, 0.5, TOL)
        expected = np.maximum(1.0 - c.times, 0.0)
        np.testing.assert_allclose(c.points, expected, atol=1e-8)

    def test_quadratic_two_steps(self):
        fn = library("quadratic", P11, c=1.0)
        c = minimizing_movement(fn, 0.5, 1.0, 1.0, TOL)
        assert c.points[1] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert c.points[2] == pytest.approx(4.0 / 9.0, abs=1e-9)

    def test_log_x_first_order_accuracy(self):
        fn = library("log-x", P01)
        tau = 1e-3
        c = minimizing_movement(fn, tau, 1.0, 0.4, TOL)
        oracle = np.sqrt(1 - 2 * c.times)
        assert np.max(np.abs(c.points - oracle)) <= 5e-3

    def test_convergence_order(self):
        # halving tau should at least ~halve the sup error
        for name, p, kwargs, y0 in [
            ("log-x", P01, {}, 1.0),
            ("quadratic", P11, {"c": 1.0}, 1.0),
            ("log-cosh", P11, {}, 1.0),
        ]:
            fn = library(name, p, **kwargs)
            errs = []
            for tau in (4e-3, 2e-3, 1e-3):
                c = minimizing_movement(fn, tau, y0, 0.4, TOL)
                ref = oracle_flow(name, p if name != "quadratic" else None,
                                  y0, c.times, **kwargs)
                errs.append(np.max(np.abs(c.points - ref.points)))
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert min(orders) >= 0.8, (name, errs)

    def test_energy_monotone_and_step_inequality(self):
        for name, p, y0 in [("log-x", P01, 1.0), ("log-cosh", P11, 1.0)]:
            fn = library(name, p)
            tau = 0.01
            c = minimizing_movement(fn, tau, y0, 0.3, TOL)
            fs = fn.values(c.points)
            assert (np.diff(fs) <= 1e-8).all()
            # single-step inequality from minimality
            gaps = fs[1:] + np.diff(c.points) ** 2 / (2 * tau) - fs[:-1]
            assert (gaps <= 1e-8).all()

    def test_prox_error_reports_step_index(self):
        fn = library("log-x", P01)
        with pytest.raises(NotBoundedBelow, match="step"):
            minimizing_movement(fn, 0.05, 0.35, 1.0, TOL)

    def test_boundary_stop_recorded(self):
        fn = library("linear", P01, a=1.0)
        c = minimizing_movement(fn, 0.25, 1.0, 2.0, TOL)
        assert c.stop_time == pytest.approx(1.0)
        np.testing.assert_allclose(c.points[c.times >= 1.0], 0.0, atol=1e-9)


def _grad_less(space):
    return Functional(space=space, fvec=lambda x: np.sum(np.atleast_1d(x) ** 2, axis=-1),
                      name="no-grad")


class TestProxRoot:
    """The 1-d prox is the first root of psi(w) = (w - v)/tau + f'(w)
    downhill from v."""

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(1e-6, 0.99))
    def test_log_x_larger_root(self, v, frac):
        tau = frac * v * v / 4.0  # v^2 > 4 tau
        step = prox(library("log-x", P01), tau, v, TOL)
        expected = 0.5 * (v + math.sqrt(v * v - 4.0 * tau))
        assert abs(step.output - expected) <= 1e-12 * expected

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(1.0001, 100.0))
    def test_log_x_past_extinction_not_bounded_below(self, v, ratio):
        tau = ratio * v * v / 4.0  # v^2 < 4 tau
        with pytest.raises(NotBoundedBelow):
            prox(library("log-x", P01), tau, v, TOL)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-4, 0.1), st.floats(0.5, 5.0))
    def test_log_sinh_near_zero_not_bounded_below(self, v, tau):
        with pytest.raises(NotBoundedBelow):
            prox(library("log-sinh", P11), tau, v, TOL)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(0.0, 10.0), st.floats(1e-4, 10.0))
    def test_quadratic_resolvent(self, v, c, tau):
        step = prox(library("quadratic", P11, c=c), tau, v, TOL)
        assert step.output == pytest.approx(v / (1.0 + c * tau), rel=1e-14, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-4.0, 4.0), st.floats(1e-4, 2.0))
    def test_log_cosh_matches_mpmath_root(self, v, tau):
        step = prox(library("log-cosh", P11), tau, v, TOL)
        with mp.workdps(40):
            ref = mp.findroot(lambda w: (w - v) / tau + mp.tanh(w), mp.mpf(step.output))
        assert step.output == pytest.approx(float(ref), rel=1e-13, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([("log-x", P01, 1.3), ("log-cosh", P11, 2.0),
                            ("log-cos", PM11, 0.6), ("log-cos", PM11, -0.7)]),
           st.floats(1e-4, 1e-2))
    def test_step_never_raises_the_energy(self, case, tau):
        name, p, y0 = case
        fn = library(name, p)
        c = minimizing_movement(fn, tau, y0, 20 * tau, TOL)  # before extinction
        f = fn.values(c.points)
        moved = f[1:] + np.diff(c.points) ** 2 / (2.0 * tau)
        assert (moved <= f[:-1] + 1e-14 * (1.0 + np.abs(f[:-1]))).all()

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 5.0), st.floats(1e-3, 10.0), st.floats(0.1, 3.0))
    def test_clamped_linear_step_is_the_boundary(self, v, tau, a):
        step = prox(library("linear", P01, a=a), tau, v, TOL)
        if v <= a * tau:
            assert step.output == 0.0
        else:
            assert step.output == pytest.approx(v - a * tau, rel=1e-14, abs=1e-15)

    def test_grad_less_functional_rejected(self):
        for space, v in ((Interval(), 1.0), (EuclideanRn(2), np.ones(2))):
            fn = _grad_less(space)
            with pytest.raises(ParamOutOfRange, match="gradient"):
                prox(fn, 0.1, v, TOL)
            with pytest.raises(ParamOutOfRange):
                minimizing_movement(fn, 0.1, v, 1.0, TOL)
            with pytest.raises(ParamOutOfRange, match="gradient"):
                ode_flow(fn, v, time_grid(0, 1, 5))

    def test_expression_functional_flows(self):
        from knflow.functionals import expression_functional
        fn = expression_functional("pow(x, 2)/2", Interval())
        c = minimizing_movement(fn, 1e-3, 2.0, 1.0, TOL)
        # implicit Euler for y' = -y: y_k = y0 (1 + tau)^-k
        np.testing.assert_allclose(c.points, 2.0 * 1.001 ** -np.arange(1001.0),
                                   rtol=1e-12)

    def test_solver_counters(self):
        fn = library("log-x", P01)
        c = minimizing_movement(fn, 1e-3, 1.0, 0.2, TOL)
        psi, exp = c.meta["prox_psi_evals"], c.meta["prox_expansions"]
        assert isinstance(psi, int) and isinstance(exp, int)
        assert psi >= 2 * 200 and 0 <= exp <= psi
        again = minimizing_movement(fn, 1e-3, 1.0, 0.2, TOL)
        assert (again.meta["prox_psi_evals"], again.meta["prox_expansions"]) == (psi, exp)
        rn = minimizing_movement(library("quadratic", P11, c=1.0, dim=2), 0.1,
                                 np.array([1.0, -2.0]), 1.0, TOL)
        assert rn.meta["prox_psi_evals"] > 0 and rn.meta["prox_expansions"] == 0


class TestOneEvaluationPerStep:
    """On intervals a minimizing movement evaluates f on all its iterates
    in one call; on R^n each step takes f(U^{n-1}) from the step before
    it, and the quadratic's Newton matrix is exact."""

    EPS = 2.0 ** -52

    @pytest.mark.parametrize("tau, steps", [(0.1, 5), (1.0 / 1800, 1800)])
    def test_rn_quadratic_is_the_exact_implicit_euler_iterate(self, tau, steps):
        y0 = np.array([1.0, -0.5])
        c = minimizing_movement(library("quadratic", P11, c=1.0, dim=2), tau,
                                y0, steps * tau, TOL)
        assert c.n_samples == steps + 1
        with mp.workdps(40):
            q = 1 / (1 + mp.mpf(tau))  # y_k = y0 (1 + c tau)^-k, c = 1
            for k, row in enumerate(c.points):
                for y, x in zip(y0, row):
                    ref = mp.mpf(y) * q ** k
                    assert abs(x - ref) <= 4 * k * self.EPS * abs(ref), (k, x)

    @pytest.mark.parametrize("fn, y0, tau, horizon", [
        (library("log-x", P01), 1.0, 0.01, 0.3),
        (library("quadratic", P11, c=1.0, dim=2), np.array([1.0, -0.5]), 0.1, 0.5),
    ], ids=["log-x", "quadratic-r2"])
    def test_f_evaluation_calls(self, fn, y0, tau, horizon):
        calls = []

        def fvec(xs):
            calls.append(len(xs))
            return fn.fvec(xs)

        c = minimizing_movement(dataclasses.replace(fn, fvec=fvec), tau, y0,
                                horizon, TOL)
        n_steps = c.n_samples - 1
        if isinstance(fn.space, Interval):
            assert calls == [n_steps + 1]
        else:
            assert calls == [1] * (n_steps + 1)
        np.testing.assert_array_equal(
            c.points, minimizing_movement(fn, tau, y0, horizon, TOL).points)

    def test_expression_on_rn_keeps_the_finite_difference_newton(self):
        fn = expression_functional("x1*x1 + x2*x2", EuclideanRn(2))
        assert fn.hess is None
        tau, steps = 0.05, 20
        y0 = np.array([1.0, -0.5])
        c = minimizing_movement(fn, tau, y0, steps * tau, TOL)
        ref = y0[None, :] * (1.0 + 2.0 * tau) ** -np.arange(steps + 1.0)[:, None]
        np.testing.assert_allclose(c.points, ref, rtol=1e-10)
        # a finite-difference Jacobian costs 2n = 4 gradient calls per
        # Newton iteration; the exact Hessian path takes 2 per step
        assert c.meta["prox_psi_evals"] >= 6 * steps

    def test_quadratic_hessian_is_constant(self):
        fn = library("quadratic", P11, c=2.5, dim=3)
        H = fn.hess(np.ones(3))
        np.testing.assert_array_equal(H, 2.5 * np.eye(3))
        assert H is fn.hess(np.zeros(3)) and not H.flags.writeable
        assert library("log-x", P01).hess is None

    @pytest.mark.parametrize("fn, v", [
        (library("log-x", P01), 0.7),
        (library("quadratic", P11, c=1.0, dim=2), np.array([1.0, -0.5])),
    ], ids=["log-x", "quadratic-r2"])
    def test_carried_value_checked_like_a_fresh_one(self, fn, v):
        fresh = prox(fn, 0.01, v, TOL)
        carried = prox(fn, 0.01, v, TOL, fn.value(v))
        np.testing.assert_array_equal(carried.output, fresh.output)
        assert (carried.objective, carried.f_output, carried.psi_evals) == \
            (fresh.objective, fresh.f_output, fresh.psi_evals)
        assert fresh.f_output == fn.value(fresh.output)
        with pytest.raises(BasePointOutsideDomain):
            prox(fn, 0.01, v, TOL, math.inf)
        with pytest.raises(NotBoundedBelow):
            prox(fn, 0.01, v, TOL, -math.inf)
        with pytest.raises(NanError):
            prox(fn, 0.01, v, TOL, math.nan)
        with pytest.raises(PointOutsideSpace):
            prox(library("log-x", P01), 0.01, -1.0, TOL, 0.0)


def _prox_loop(fn, tau, y0, horizon):
    """The minimizing movement as a loop of public prox calls, each taking
    f(U^{n-1}) from the step before it: the step-by-step reference."""
    n_steps = int(math.floor(horizon / tau + 1e-9))
    u, fu, us = y0, None, [y0]
    for k in range(1, n_steps + 1):
        try:
            step = prox(fn, tau, u, TOL, fu)
        except (NotBoundedBelow, BasePointOutsideDomain, PointOutsideSpace) as exc:
            raise type(exc)(f"prox failed at step {k} (t={k * tau}): {exc}") from exc
        u, fu = step.output, step.f_output
        us.append(u)
    return np.asarray(us, dtype=float)


def _outcome(run, *args):
    try:
        return "points", run(*args).tobytes()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def _band(value):
    """x^2/2 on R, except value on the band |x - 0.5| < 0.05; f' = x."""
    return Functional(
        space=Interval(), name=f"band({value})", grad=lambda x: float(x),
        fvec=lambda x: np.where(np.abs(x - 0.5) < 0.05, value, 0.5 * x * x))


def _expr(expr, a=-math.inf):
    return expression_functional(expr, Interval(a, math.inf, open_a=False))


class TestOneArrayOfValues:
    """A minimizing movement on an interval finds the first iterate where
    f is not finite after its search, and fails as a loop of prox calls
    does: same points, same error type and message."""

    @staticmethod
    def _mms_points(fn, tau, y0, horizon):
        return minimizing_movement(fn, tau, y0, horizon, TOL).points

    # (functional, y0, tau, steps, expected error, failing step); the
    # iterates are u_0 = y0, u_1, ...
    CASES = {
        "y0-plus-inf": (_expr("-log(x)", 0.0), 0.0, 0.1, 5,
                        BasePointOutsideDomain, 1),
        "y0-minus-inf": (_expr("log(x)", 0.0), 0.0, 0.1, 5, NotBoundedBelow, 1),
        "y0-nan": (_expr("x*x/2 + 0*log(x - 0.3)"), 0.2, 0.1, 3, NanError, None),
        "u1-minus-inf": (_expr("x*x/2 - log(x - 0.3)"), 5.0, 1.0, 3,
                         NotBoundedBelow, 1),
        "u2-minus-inf": (_expr("x*x/2 - log(x - 0.3)"), 3.0, 2.0, 3,
                         NotBoundedBelow, 2),
        "band-minus-inf": (_band(-math.inf), 1.0, 0.1, 20, NotBoundedBelow, 7),
        "band-plus-inf": (_band(math.inf), 1.0, 0.1, 20, BasePointOutsideDomain, 8),
        "last-plus-inf": (_band(math.inf), 1.0, 0.1, 7, None, None),
        "band-nan": (_band(math.nan), 1.0, 0.1, 20, NanError, None),
        "nan-on-the-way": (_expr("x*x/2 + 0*log(x - 0.3)"), 1.0, 0.1, 30,
                           NanError, None),
        # u_1 = +inf, then brentq fails at step 2 (a RuntimeError)
        "plus-inf-before-a-raise": (_expr("x*x/2 + log(x - 0.3)"), 1.0, 0.1, 30,
                                    BasePointOutsideDomain, 2),
        "u2-plus-inf-before-a-raise": (_expr("x*x/2 + log(x - 0.3)"), 2.0, 0.3, 3,
                                       BasePointOutsideDomain, 3),
        "nan-gradient": (_expr("x - 0*log(x - 1)"), 3.0, 0.5, 10, NanError, None),
        "extinction": (library("log-x", P01), 0.35, 0.05, 20, NotBoundedBelow, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_prox_loop(self, case):
        fn, y0, tau, steps, error, step = self.CASES[case]
        horizon = steps * tau
        got = _outcome(self._mms_points, fn, tau, y0, horizon)
        assert got == _outcome(_prox_loop, fn, tau, y0, horizon)
        if error is None:
            assert got[0] == "points"
            return
        assert got[0] is error
        if step is not None:
            assert got[1].startswith(f"prox failed at step {step} ")

    def test_a_raise_in_the_search_waits_for_the_earlier_iterates(self):
        # f' raises past the band: the +inf iterate in the band wins
        def grad(x):
            if x < 0.3:
                raise ZeroDivisionError("no gradient below 0.3")
            return float(x)

        fn = dataclasses.replace(_band(math.inf), grad=grad)
        with pytest.raises(BasePointOutsideDomain, match="step 8 "):
            minimizing_movement(fn, 0.1, 1.0, 3.0, TOL)
        # no bad iterate before it: the search's own error comes through
        fn = dataclasses.replace(library("quadratic", P11, c=1.0), grad=grad)
        with pytest.raises(ZeroDivisionError):
            minimizing_movement(fn, 0.1, 1.0, 3.0, TOL)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("log-x", P01, 0.0, 3.0), ("log-cos", PM11, -0.5, 0.5),
                            ("log-sinh", P11, 0.0, 3.0)]),
           st.floats(0.0, 1.0), st.floats(1e-4, 1.0), st.integers(1, 40))
    def test_property_matches_the_prox_loop(self, case, frac, tau, steps):
        name, p, lo, hi = case
        fn = library(name, p)
        if name == "log-cos":  # the closure [-pi/2, pi/2]
            lo, hi = fn.space.a, fn.space.b
        y0 = lo + frac * (hi - lo)
        horizon = steps * tau
        assert _outcome(self._mms_points, fn, tau, y0, horizon) == \
            _outcome(_prox_loop, fn, tau, y0, horizon)

    @pytest.mark.parametrize("expr, error", [
        ("x1*x1 + x2*x2", None),
        ("x1*x1 + x2*x2 - log(x1)", NotBoundedBelow),  # f(-1, 0.5) = -inf
        ("x1*x1 + x2*x2 + log(x1)", BasePointOutsideDomain),  # f(-1, 0.5) = +inf
    ])
    def test_rn_matches_the_prox_loop(self, expr, error):
        fn = expression_functional(expr, EuclideanRn(2))
        for y0 in (np.array([1.0, -0.5]), np.array([-1.0, 0.5])):
            got = _outcome(self._mms_points, fn, 0.1, y0, 1.0)
            assert got == _outcome(_prox_loop, fn, 0.1, y0, 1.0)
        if error is not None:  # y0 = (-1, 0.5) fails at step 1
            assert got[0] is error and got[1].startswith("prox failed at step 1 ")


class TestLogCoshOracleOverflow:
    """sinh(w y0) past the double range: the oracle works in the log domain."""

    P = CurvatureParams(1e3, -1.0)  # w = sqrt(1000)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(720.0, 2000.0), st.sampled_from([-1.0, 1.0]))
    def test_matches_mpmath(self, wy0, sign):
        w = math.sqrt(1000.0)
        y0 = sign * wy0 / w
        grid = np.linspace(0.0, 2.5, 41)  # log|sinh| - K t changes sign
        c = oracle_flow("log-cosh", self.P, y0, grid)
        mw = mp.sqrt(mp.mpf(1000))
        with mp.workdps(40):
            ref = [float(mp.asinh(mp.sinh(mw * y0) * mp.exp(-self.P.K * mp.mpf(t))) / mw)
                   for t in grid]
        np.testing.assert_allclose(c.points, ref, rtol=1e-11, atol=1e-300)

    def test_cli_flow_exits_zero(self, tmp_path):
        from knflow.cli import main
        import json
        cfg = {"command": "flow", "method": "oracle",
               "functional": {"library": "log-cosh", "K": 1e3, "N": -1.0},
               "y0": 30.0, "grid": {"t0": 0.0, "t1": 0.5, "n": 20}, "out": "big.csv"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["flow", "--config", str(path), "--out", str(tmp_path)]) == 0

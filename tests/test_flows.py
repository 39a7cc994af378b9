import ast
import dataclasses
import hashlib
import logging
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from knflow.coefficients import CurvatureParams
from knflow.core import SampleSpec, Tolerance
from knflow.errors import (
    BasePointOutsideDomain,
    BlowUp,
    NanError,
    NoOracle,
    NotBoundedBelow,
    ParamOutOfRange,
    PointOutsideSpace,
)
from knflow import flows
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

    @pytest.mark.parametrize("points", [5.0, np.zeros((3, 2, 2)), np.zeros(2)],
                             ids=["scalar", "rank-3", "short"])
    def test_points_are_a_curve_in_a_flat_space(self, points):
        with pytest.raises(ParamOutOfRange, match="shape"):
            Curve(np.arange(3.0), points)

    def test_space_and_interpolation_follow_the_point_shape(self):
        t = np.array([0.0, 1.0])
        line, plane = Curve(t, [0.0, 2.0]), Curve(t, [[0.0, 1.0], [2.0, -1.0]])
        assert line.space == Interval() and plane.space == EuclideanRn(2)
        assert isinstance(line.at(0.25), float) and line.at([0.25]).tolist() == [0.5]
        assert line.at(0.25) == 0.5
        assert plane.at(0.25).tolist() == [0.5, 0.5]
        assert plane.at([[0.25, 0.5]]).shape == (1, 2, 2)

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
        # 2 evaluations for the first step, then 6 per step tried
        assert c.meta["ode_nfev"] == 2 + 6 * 9
        assert records[0].getMessage() == \
            f"ode_flow log-x: nfev={c.meta['ode_nfev']} steps=9 rejected=0 status=0"
        assert records[1].getMessage() == (
            f"minimizing_movement log-x: 20 steps, "
            f"prox_psi_evals={m.meta['prox_psi_evals']} "
            f"prox_hess_evals={m.meta['prox_hess_evals']} "
            f"prox_expansions={m.meta['prox_expansions']}")


class TestProx:
    def test_linear_translation(self):
        fn = library("linear", P01, a=1.0)
        step = prox(fn, 0.1, 1.0)
        assert step.output == pytest.approx(0.9, abs=1e-9)

    def test_linear_clamped_to_boundary(self):
        fn = library("linear", P01, a=1.0)
        step = prox(fn, 0.5, 0.3)
        assert step.output == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_resolvent(self):
        fn = library("quadratic", P11, c=1.0)
        step = prox(fn, 1.0, 3.0)
        assert step.output == pytest.approx(1.5, abs=1e-10)

    def test_log_x_local_branch(self):
        # stationarity w^2 - v w + tau = 0 -> larger root
        fn = library("log-x", P01)
        v, tau = 1.0, 1e-3
        step = prox(fn, tau, v)
        expected = 0.5 * (v + math.sqrt(v * v - 4 * tau))
        assert step.output == pytest.approx(expected, abs=1e-10)

    def test_log_x_near_extinction_not_bounded_below(self):
        # v^2 < 4 tau: no interior critical point, objective -> -inf at 0
        fn = library("log-x", P01)
        with pytest.raises(NotBoundedBelow):
            prox(fn, 0.1, 0.01)

    def test_log_sinh_not_bounded_below(self):
        fn = library("log-sinh", P11)
        with pytest.raises(NotBoundedBelow):
            prox(fn, 0.5, 0.05)

    def test_step_from_the_end_returns_it(self):
        # f'(0) = +inf points out of the closure at its own minimiser: no
        # trial step is made, so none is sent to -inf
        fn = expression_functional("pow(x, 0.5)", Interval(0, math.inf, open_a=False))
        step = prox(fn, 0.1, 0.0)
        assert step.output == 0.0
        assert step.f_output == 0.0 and step.hess_evals == 0
        c = minimizing_movement(fn, 0.1, 0.0, 1.0, TOL)
        assert (c.points == 0.0).all()

    def test_rn_prox_quadratic(self):
        fn = library("quadratic", P11, c=1.0, dim=2)
        step = prox(fn, 1.0, np.array([3.0, -1.0]))
        np.testing.assert_allclose(step.output, [1.5, -0.5], atol=1e-8)

    def test_outside_closure(self):
        fn = library("log-x", P01)
        with pytest.raises(PointOutsideSpace):
            prox(fn, 0.1, -1.0)

    def test_nonpositive_tau_rejected(self):
        fn = library("quadratic", P11, c=1.0)
        with pytest.raises(ParamOutOfRange):
            prox(fn, 0.0, 1.0)

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
        step = prox(library("log-x", P01), tau, v)
        expected = 0.5 * (v + math.sqrt(v * v - 4.0 * tau))
        assert abs(step.output - expected) <= 1e-12 * expected

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(1.0001, 100.0))
    def test_log_x_past_extinction_not_bounded_below(self, v, ratio):
        tau = ratio * v * v / 4.0  # v^2 < 4 tau
        with pytest.raises(NotBoundedBelow):
            prox(library("log-x", P01), tau, v)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-4, 0.1), st.floats(0.5, 5.0))
    def test_log_sinh_near_zero_not_bounded_below(self, v, tau):
        with pytest.raises(NotBoundedBelow):
            prox(library("log-sinh", P11), tau, v)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(0.0, 10.0), st.floats(1e-4, 10.0))
    def test_quadratic_resolvent(self, v, c, tau):
        step = prox(library("quadratic", P11, c=c), tau, v)
        assert step.output == pytest.approx(v / (1.0 + c * tau), rel=1e-14, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-4.0, 4.0), st.floats(1e-4, 2.0))
    def test_log_cosh_matches_mpmath_root(self, v, tau):
        step = prox(library("log-cosh", P11), tau, v)
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
        step = prox(library("linear", P01, a=a), tau, v)
        if v <= a * tau:
            assert step.output == 0.0
        else:
            assert step.output == pytest.approx(v - a * tau, rel=1e-14, abs=1e-15)

    def test_grad_less_functional_rejected(self):
        for space, v in ((Interval(), 1.0), (EuclideanRn(2), np.ones(2))):
            fn = _grad_less(space)
            with pytest.raises(ParamOutOfRange, match="gradient"):
                prox(fn, 0.1, v)
            with pytest.raises(ParamOutOfRange):
                minimizing_movement(fn, 0.1, v, 1.0, TOL)
            with pytest.raises(ParamOutOfRange, match="gradient"):
                ode_flow(fn, v, time_grid(0, 1, 5))

    def test_hess_less_functional_rejected_by_the_proximal_steps_only(self):
        # a user-built functional with grad but no hess: the proximal steps
        # take their Newton slopes from hess, the ODE route needs grad only
        for dim, v in ((1, 1.0), (2, np.array([1.0, -0.5]))):
            fn = dataclasses.replace(library("quadratic", P11, c=2.0, dim=dim), hess=None)
            with pytest.raises(ParamOutOfRange, match="Hessian"):
                prox(fn, 0.1, v)
            with pytest.raises(ParamOutOfRange, match="Hessian"):
                minimizing_movement(fn, 0.1, v, 1.0, TOL)
            c = ode_flow(fn, v, time_grid(0, 1, 5))
            np.testing.assert_allclose(c.points, np.multiply.outer(np.exp(-2.0 * c.times), v),
                                       rtol=1e-8)

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

    def test_steps_after_the_end_evaluate_no_f(self):
        # linear(1) on [0, inf) reaches 0 at step 100 of 300; the later
        # steps start at the end and return it with one f' call each
        fn, calls = library("linear", P01, a=1.0), []

        def fvec(xs):
            calls.append(len(xs))
            return fn.fvec(xs)

        c = minimizing_movement(dataclasses.replace(fn, fvec=fvec), 0.01, 1.0, 3.0, TOL)
        assert calls == [1, 301]
        assert c.meta["prox_psi_evals"] == 400
        assert (c.points[100:] == 0.0).all()
        np.testing.assert_allclose(c.points[:100], 1.0 - 0.01 * np.arange(100),
                                   rtol=0, atol=1e-12)

    def test_expression_on_rn_takes_the_exact_hessian(self):
        fn, iterates = expression_functional("x1*x1 + x2*x2", EuclideanRn(2)), []

        def hess(x):  # one call per Newton iterate
            iterates.append(x)
            return fn.hess(x)

        tau, steps = 0.05, 20
        y0 = np.array([1.0, -0.5])
        c = minimizing_movement(dataclasses.replace(fn, hess=hess), tau, y0,
                                steps * tau, TOL)
        ref = y0[None, :] * (1.0 + 2.0 * tau) ** -np.arange(steps + 1.0)[:, None]
        np.testing.assert_allclose(c.points, ref, rtol=1e-10)
        # the exact Hessian 2 I: one gradient call per Newton iterate and one at y0
        np.testing.assert_array_equal(fn.hess(y0), 2.0 * np.eye(2))
        assert c.meta["prox_psi_evals"] == len(iterates) + 1
        assert c.meta["prox_hess_evals"] == len(iterates) >= steps

    def test_quadratic_hessian_is_constant(self):
        fn = library("quadratic", P11, c=2.5, dim=3)
        H = fn.hess(np.ones(3))
        np.testing.assert_array_equal(H, 2.5 * np.eye(3))
        assert H is fn.hess(np.zeros(3)) and not H.flags.writeable
        # on intervals hess is f'' as a float: log-x is -N log x
        assert library("log-x", P01).hess(2.0) == -0.25


def _prox_loop(fn, tau, y0, horizon):
    """The minimizing movement as a loop of public prox calls: the
    step-by-step reference."""
    n_steps = int(math.floor(horizon / tau + 1e-9))
    u, us = y0, [y0]
    for k in range(1, n_steps + 1):
        try:
            u = prox(fn, tau, u).output
        except (NotBoundedBelow, BasePointOutsideDomain, PointOutsideSpace,
                BlowUp) as exc:
            raise type(exc)(f"prox failed at step {k} (t={k * tau}): {exc}") from exc
        us.append(u)
    return np.asarray(us, dtype=float)


def _outcome(run, *args):
    try:
        return "points", run(*args).tobytes()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def _band(value):
    """x^2/2 on R, except value on the band |x - 0.5| < 0.05; f' = x, f'' = 1."""
    return Functional(
        space=Interval(), name=f"band({value})", grad=lambda x: float(x),
        hess=lambda x: 1.0,
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
        # u_1 = +inf past the pole at 0.3, found after that step's collapsed bracket
        "plus-inf-before-a-raise": (_expr("x*x/2 + log(x - 0.3)"), 1.0, 0.15, 30,
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

    def test_a_bad_iterate_stops_the_steps_at_the_next_checkpoint(self):
        # u_599 lies in the +inf band, so step 600 of 2000 fails; f is
        # evaluated on the iterates at 512 and 1024 steps, so the stepping
        # ends by step 1024.  The plain x^2/2 has the same f' and so the
        # same iterates: its 1024-step solve bounds the f' calls.
        calls = []

        def counted(fn):
            def grad(x):
                calls.append(x)
                return fn.grad(x)
            return dataclasses.replace(fn, grad=grad)

        tau, y0, horizon = 1e-3, 1.0, 2.0
        got = _outcome(self._mms_points, counted(_band(math.inf)), tau, y0, horizon)
        assert got == _outcome(_prox_loop, _band(math.inf), tau, y0, horizon)
        assert got[0] is BasePointOutsideDomain
        assert got[1].startswith("prox failed at step 600 ")
        band_calls = len(calls)
        calls.clear()
        self._mms_points(counted(_band(0.0)), tau, y0, 1024 * tau)
        assert 0 < band_calls <= len(calls)

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


def _solve_prox_rn(fn, tau, v, fv, eye_tau):
    """The R^n proximal step with ``np.linalg.solve``: the bit-for-bit
    reference of the LAPACK ``gesv`` step."""

    def phi(w):
        fw = fn.value(w)
        return 0.5 * float(np.dot(w - v, w - v)) / tau + fw, fw

    def grad_phi(w):
        return (w - v) / tau + np.asarray(fn.grad(w), dtype=float)

    def norm(w):
        return math.sqrt(float(np.dot(w, w)))

    x, obj, fx = v.copy(), fv, fv
    for _ in range(100):
        g = grad_phi(x)
        gnorm = norm(g)
        if gnorm <= 1e-12 * (1.0 + 1.0 / tau):
            break
        H = eye_tau + fn.hess(x)
        dec = math.nan  # the Newton decrement; NaN where the gradient step is taken
        try:
            step = np.linalg.solve(H, -g)
            if not np.isfinite(step).all() or float(np.dot(step, g)) >= 0:
                step = -g
            else:
                dec = -0.5 * float(np.dot(step, g))
                if dec <= 4 * np.finfo(float).eps * (abs(obj) + 1.0):
                    x = x + step  # the decrement stop of the library's step
                    obj, fx = phi(x)
                    break
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
            if gnorm == math.inf:
                raise NotBoundedBelow(
                    f"prox objective of {fn.name} leaves the double range")
            x_new = x - min(1.0 / (1.0 + gnorm), tau) * g
            obj_new, f_new = phi(x_new)
            if obj_new >= obj:
                break
        x, obj, fx = x_new, obj_new, f_new
        if norm(x) > 1e9 or obj < -1e15:
            raise NotBoundedBelow(f"prox objective of {fn.name} diverges")
    else:  # no stop in 100 iterations
        if dec == math.inf:
            raise NotBoundedBelow(f"prox objective of {fn.name} leaves the double range")
        raise BlowUp(f"prox of {fn.name} made 100 Newton iterations without a stop")
    return x, fx


def _solve_loop(fn, tau, y0, horizon):
    """A minimizing movement on R^n of ``np.linalg.solve`` steps."""
    u = np.asarray(y0, dtype=float)
    us, fu, eye_tau = [u], fn.value(u), np.eye(u.size) / tau
    for k in range(1, int(math.floor(horizon / tau + 1e-9)) + 1):
        try:
            u, fu = _solve_prox_rn(fn, tau, u, fu, eye_tau)
        except (NotBoundedBelow, PointOutsideSpace, BlowUp) as exc:
            raise type(exc)(f"prox failed at step {k} (t={k * tau}): {exc}") from exc
        us.append(u)
    return np.asarray(us, dtype=float)


def _linear(a):
    """a.x on R^2 with its gradient and (zero) Hessian; its values
    saturate to +-inf where they overflow."""
    a = np.asarray(a, dtype=float)

    def fvec(xs):
        with np.errstate(over="ignore"):
            return xs @ a
    return Functional(space=EuclideanRn(2), fvec=fvec, name=f"linear{a}",
                      grad=lambda x: a, hess=lambda x: np.zeros((2, 2)))


class TestLapackNewtonStep:
    """The R^n proximal step solves its Newton system with LAPACK ``gesv``
    through numpy's ``solve1`` gufunc, the one behind ``np.linalg.solve``;
    the curves are bitwise those of ``np.linalg.solve`` at every n,
    including a singular matrix, where both take the gradient step, and the
    errors are the same where the line search's guards fire."""

    @staticmethod
    def _mms_points(fn, tau, y0, horizon):
        return minimizing_movement(fn, tau, y0, horizon, TOL).points

    # the quadratic cases and expression-r6 change bits when the Newton
    # system is solved by Cholesky (LAPACK dpotrf/dpotrs) instead
    CASES = {
        **{f"quadratic-r{n}": (library("quadratic", P11, c=2.5, dim=n),
                               np.linspace(1.3, -0.7, n), 0.03, 1.0)
           for n in range(2, 9)},
        # tau and step count of the benchmark's mms-quadratic-r2 job
        "quadratic-r2-1800-steps": (library("quadratic", P11, c=1.0, dim=2),
                                    np.array([1.0, -0.5]), 1.0 / 1800, 1.0),
        "expression-r2-nonconvex": (
            expression_functional("x1*x1/2 + x2*x2 + cos(3*x1)", EuclideanRn(2)),
            np.array([1.3, -0.7]), 0.01, 1.0),
        "expression-r3": (
            expression_functional("x1*x1 + 2*x2*x2 + x1*x2 + x3*x3 + cos(x3)",
                                  EuclideanRn(3)),
            np.array([0.4, -1.1, 1.5]), 0.05, 1.0),
        # n = 6, where scipy's dgesv gave other last bits than
        # np.linalg.solve on this curve
        "expression-r6": (
            expression_functional("x1*x1 + x2*x2 + x3*x3 + x4*x4 + x5*x5 + x6*x6"
                                  " + 3*cos(x1 + x2 + x3 + x4 + x5 + x6)", EuclideanRn(6)),
            np.array([0.3, -0.3, 1.5, 1.4, 0.6, 0.5]), 0.2, 2.0),
        # I/tau + hess = 0: gesv gives a NaN step, np.linalg.solve raises;
        # the gradient steps on the linear objective meet no stop
        "singular-newton-matrix": (library("quadratic", P11, c=-10.0, dim=2),
                                   np.array([1.0, -0.5]), 0.1, 1.0),
        # the line search's guards: f is NaN at the trial point of step 2
        "nan-at-newton-trial": (
            expression_functional("x1*x1/2 + x2*x2/2 + 0*log(x1 - 0.3)",
                                  EuclideanRn(2)),
            np.array([1.0, 0.5]), 1.0, 3.0),
        # I/tau = 1e-300: the Newton step is -inf, the gradient step is taken
        "newton-step-not-finite": (_linear([1e10, 0.0]),
                                   np.array([1.0, 0.5]), 1e300, 1e300),
        # a finite Newton step (-1e305, 0) whose decrement overflows to +inf
        # is searched along, not replaced by the gradient step; the
        # minimizer's objective is past the double range
        "newton-decrement-overflow": (_linear([1e5, 0.0]),
                                      np.array([1.0, 0.5]), 1e300, 1e300),
        # x + step overflows to +inf: f(x + step) raises PointOutsideSpace
        "newton-trial-overflow": (_linear([-1.0, 0.0]),
                                  np.array([1.5e308, 0.5]), 1e308, 1e308),
        # |g|^2 overflows; the minimizer (-1e299, 0.5), where the objective
        # is about -5e598, is past the double range: no step ends at y0
        "gradient-norm-overflow": (_linear([1e300, 0.0]),
                                   np.array([1.0, 0.5]), 0.1, 0.3),
    }
    # outcomes other than "points": the error and the step it names
    FAILS = {"singular-newton-matrix": (BlowUp, 1),
             "nan-at-newton-trial": (NanError, None),
             "newton-step-not-finite": (NotBoundedBelow, 1),
             "newton-decrement-overflow": (NotBoundedBelow, 1),
             "newton-trial-overflow": (PointOutsideSpace, 1),
             "gradient-norm-overflow": (NotBoundedBelow, 1)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_np_linalg_solve(self, case):
        fn, y0, tau, horizon = self.CASES[case]
        got = _outcome(self._mms_points, fn, tau, y0, horizon)
        # the overflow cases overflow on purpose: the reference's warnings
        # are silenced there, the library silences its own
        with np.errstate(over="ignore" if "overflow" in case else "warn"):
            assert got == _outcome(_solve_loop, fn, tau, y0, horizon)
        error, step = self.FAILS.get(case, ("points", None))
        assert got[0] == error
        if step is not None:
            assert got[1].startswith(f"prox failed at step {step} ")
        if error is NanError:  # at u_1 = (0.5, 0.25), the trial point u_1 / 2
            assert got[1].endswith("(array([0.25 , 0.125]))")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10), st.data())
    def test_solve_is_np_linalg_solve(self, n, data):
        # the private gufunc the step calls: bitwise np.linalg.solve, and a
        # NaN step without a warning where np.linalg.solve finds H singular
        a = data.draw(hnp.arrays(float, (n, n), elements=st.floats(-10, 10)))
        b = data.draw(hnp.arrays(float, n, elements=st.floats(-10, 10)))
        H = a + a.T  # symmetric, as I/tau + hess(x) is
        with np.errstate(over="ignore", invalid="ignore"):  # as prox holds it
            got = flows.solve1(H, b)
        try:
            want = np.linalg.solve(H, b)
        except np.linalg.LinAlgError:
            assert not np.isfinite(got).any()
        else:
            assert got.tobytes() == want.tobytes()

    def test_singular_matrix_takes_the_gradient_step_without_a_warning(self):
        u = np.arange(1.0, 6.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(flows.solve1(np.outer(u, u), -u)).all()
        # I/tau + hess = 0 on every Newton iteration of one prox call
        with pytest.raises(BlowUp, match="100 Newton iterations"):
            prox(library("quadratic", P11, c=-10.0, dim=2), 0.1, np.array([1.0, -0.5]))

    @pytest.mark.parametrize("expr, y0, error, msg", [
        ("log(x1) + x2*x2", [-1.0, 0.5], BasePointOutsideDomain, "f(v) = +inf"),
        ("log(x1*x1) + x2*x2", [0.0, 0.5], NotBoundedBelow,
         "prox objective of expr:log(x1*x1) + x2*x2 is -inf at [0.  0.5]")],
        ids=["plus-inf", "minus-inf"])
    def test_no_step_from_a_start_where_f_is_not_finite(self, expr, y0, error, msg):
        # fails as prox does at y0, with no gradient call and no step
        fn, calls = expression_functional(expr, EuclideanRn(2)), []
        fn = dataclasses.replace(fn, grad=lambda x, grad=fn.grad: calls.append(x) or grad(x))
        with pytest.raises(error) as exc:
            minimizing_movement(fn, 0.01, np.array(y0), 2.0, TOL)
        assert str(exc.value) == f"prox failed at step 1 (t=0.01): {msg}"
        with pytest.raises(error):
            prox(fn, 0.01, np.array(y0))
        assert calls == []

    def test_prox_fails_past_the_double_range(self):
        # the one step of the gradient-norm-overflow case, not y0 as output;
        # in the decrement-overflow case, not the 100th Newton iterate
        for case in ("gradient-norm-overflow", "newton-decrement-overflow"):
            fn, y0, tau, _ = self.CASES[case]
            with pytest.raises(NotBoundedBelow, match="leaves the double range"):
                prox(fn, tau, y0)

    def test_iteration_limit_raises(self):
        # a Hessian 1e6 times too large: 100 short Newton steps, no stop
        fn = dataclasses.replace(library("quadratic", P11, c=1.0, dim=2),
                                 hess=lambda x: 1e6 * np.eye(2))
        with pytest.raises(BlowUp, match="100 Newton iterations without a stop"):
            prox(fn, 1.0, np.array([1.0, -0.5]))
        with pytest.raises(BlowUp, match="prox failed at step 1 "):
            minimizing_movement(fn, 1.0, np.array([1.0, -0.5]), 2.0, TOL)

    def test_hessian_calls_are_counted(self):
        fn = library("quadratic", P11, c=1.0, dim=2)
        step = prox(fn, 0.1, np.array([1.0, -0.5]))
        assert step.hess_evals == step.psi_evals - 1 == 1  # grad at v and at x
        c = minimizing_movement(fn, 0.1, np.array([1.0, -0.5]), 1.0, TOL)
        assert c.meta["prox_hess_evals"] == 10 and c.meta["prox_psi_evals"] == 11
        ex = expression_functional("x1*x1 + x2*x2 + cos(x1)", EuclideanRn(2))
        c = minimizing_movement(ex, 0.1, np.array([1.0, -0.5]), 1.0, TOL)
        assert c.meta["prox_hess_evals"] > 0


# f' of the library functionals at P01 (log-x), PM11 (log-cos) and P11
_MP_GRAD = {"log-x": (P01, lambda w: 1 / w), "log-cos": (PM11, lambda w: -mp.tan(w)),
            "log-cosh": (P11, mp.tanh), "log-sinh": (P11, lambda w: 1 / mp.tanh(w))}
# (name, K/N scale k, tau): the four at |K/N| = 1 and tau up to 0.1, and
# log-cosh at (K, N) = (k, -1), k up to 1e3, and tau up to 10
_ROOT_CASES = st.one_of(
    st.tuples(st.sampled_from(sorted(_MP_GRAD)), st.just(1.0), st.floats(1e-4, 1e-1)),
    st.tuples(st.just("log-cosh"), st.floats(0.0, 3.0).map(lambda e: 10.0 ** e),
              st.floats(1e-4, 10.0)))
LOG_COSH_1000 = library("log-cosh", CurvatureParams(1000.0, -1.0))


class TestSecantSearch:
    """The 1-d proximal step brackets the root of psi(w) = (w - v)/tau + f'(w)
    by doubling steps and closes in on it by Newton steps, with psi' =
    1/tau + f'' from ``fn.hess``, in one loop: each pass takes one Newton
    trial and keeps it only strictly inside (a, far), from the last point
    short of the root to the next doubling point or, once psi has changed
    sign, to the bracket's far end; else it doubles, or bisects.  Where that
    slope is not finite and > 0 there is no Newton trial; 600 passes raise
    BlowUp."""

    EPS = 2.0 ** -52

    @settings(max_examples=300, deadline=None)
    @given(_ROOT_CASES, st.floats(0.0, 1.0))
    @example(("log-cos", 1.0, 0.089217), 0.504)  # roots near 0, where an absolute
    @example(("log-cosh", 1.0, 0.001103), 0.504)  # stop of 1e-16 spans many ulps
    @example(("log-cos", 1.0, 0.09999999999999999), 0.19808743547023205)  # a root
    # the doubling skips: psi dips through 0 twice between v and its first trials
    def test_output_is_the_root_within_two_ulps(self, case, frac):
        name, k, tau = case
        p, grad = _MP_GRAD[name]
        if k != 1.0:  # log-cosh at (k, -1): f' = sqrt(k) tanh(sqrt(k) x)
            p, grad = CurvatureParams(k, -1.0), lambda x, w=mp.sqrt(k): w * mp.tanh(w * x)
        fn = library(name, p)
        lo, hi = fn.sample_box
        v = lo + frac * (hi - lo)
        try:
            step = prox(fn, tau, v)
        except NotBoundedBelow:  # no root downhill, as for log-x at v^2 < 4 tau
            assume(False)
        w = step.output
        assert step.psi_evals < 100
        with mp.workdps(50):
            r = mp.findroot(lambda x: (x - v) / tau + grad(x), mp.mpf(w))
            # the rounding of psi's two terms blurs its root by this much;
            # below an ulp except where 1/tau + f'' nearly vanishes
            slope = abs(1 / tau + mp.diff(grad, r))
            blur = self.EPS * (abs(r - v) / tau + abs(grad(r))) / slope
            assert abs(w - r) <= 2 * math.ulp(float(r)) + blur, (v, tau, w, float(r))

    @settings(max_examples=8, deadline=None)
    @given(st.floats(1.0, 1.5), st.floats(0.5, 0.9), st.sampled_from([-1.0, 1.0]))
    def test_psi_calls_per_step(self, y0x, y0c, sign):
        # the 1000-step log-x and 700-step log-cos solves of perfbench's
        # pointwise workload, over its ranges of y0 (0.8 of the extinction
        # time); measured 3.236-3.249 and 3.371-3.603 f' calls per step.
        # f'' is called with f' at each trial but the first.
        for fn, y0, horizon, steps, per_step in (
                (library("log-x", P01), y0x, 0.4 * y0x * y0x, 1000, 3.26),
                (library("log-cos", PM11), sign * y0c, -0.8 * math.log(math.sin(y0c)),
                 700, 3.62)):
            c = minimizing_movement(fn, horizon / steps, y0, horizon, TOL)
            assert c.n_samples == steps + 1
            psi = c.meta["prox_psi_evals"]
            assert psi <= per_step * steps, (fn.name, y0, psi / steps)
            assert c.meta["prox_hess_evals"] == psi - steps

    @pytest.mark.parametrize("y0, tau", [(1.0, 0.005), (0.7, 0.003), (-0.4, 0.01)])
    def test_lands_on_the_kink(self, y0, tau):
        # the flow of |x| runs at unit speed into 0 and stays there; psi
        # jumps across 0 at the kink, where the steps past it must land; the
        # expression's own f'' is 0 away from the kink
        fn = expression_functional("pow(x*x, 0.5)", Interval())
        c = minimizing_movement(fn, tau, y0, 2 * abs(y0), TOL)
        exact = math.copysign(1.0, y0) * np.maximum(abs(y0) - c.times, 0.0)
        assert np.max(np.abs(c.points - exact)) <= 2e-15

    # tau from v = 1: psi has no root in (0.3, 1)
    POLE_TAUS = (0.15, 0.5)

    def test_a_pole_of_f_prime_returns_the_end_past_it(self):
        # psi jumps from -inf to +inf at x = 0.3; the search returns the
        # end of its last bracket on the far side, where f = +inf
        # with the expression's own f'' = 1 - 1/(x - 0.3)^2
        fn = _expr("x*x/2 + log(x - 0.3)")
        for tau in self.POLE_TAUS:
            step = prox(fn, tau, 1.0)
            assert step.output < 0.3 and step.f_output == math.inf
            assert step.psi_evals <= 100

    def test_newton_finds_the_root_the_doubling_skips(self):
        # at tau = 0.1 psi has roots near 0.575 and 0.647 before the pole;
        # the first doubling trials jump past both, the Newton trials do not
        w = prox(_expr("x*x/2 + log(x - 0.3)"), 0.1, 1.0).output
        with mp.workdps(50):
            r = mp.findroot(lambda x: (x - 1) / mp.mpf(0.1) + x + 1 / (x - mp.mpf(0.3)),
                            mp.mpf(0.65))
        assert abs(w - r) <= 2 * math.ulp(0.65) and 0.64 < w < 0.65

    # in each case below a Newton trial from a stale point outside the
    # bracket lands exactly on an end of it; kept there, that end would be
    # evaluated again at every pass up to the pass bound, and is not a root
    def test_large_k_over_n_returns_the_root(self):
        v, tau = -0.09064551511255146, 8.276689322314216
        step = prox(LOG_COSH_1000, tau, v)
        with mp.workdps(50):
            w = mp.sqrt(1000)
            r = mp.findroot(lambda x: (x - v) / tau + w * mp.tanh(w * x), mp.mpf(-1e-5))
        assert abs(step.output - r) <= 1e-12 and step.psi_evals < 100

    @pytest.mark.parametrize("expr, a, v, tau, root", [
        # |v| < tau: the exact prox of |x| is its kink 0
        ("pow(x*x, 0.5)", -math.inf, 0.5914346559685844, 0.7817074624136463, 0.0),
        # the first root downhill, by an mpmath scan
        ("x*x/2 + cos(3*x)", -math.inf, 1.8515020860055242, 0.6140922890712662,
         1.0697890511798898),
        ("x*x/2 + log(x - 0.3)", 0.3, 2.3975210759302867, 0.4986387848173951,
         1.2493017662223753),
    ])
    def test_no_cycle_on_an_end_of_the_bracket(self, expr, a, v, tau, root):
        step = prox(_expr(expr, a), tau, v)
        bound = 2 * math.ulp(root) if root else 1e-15
        assert abs(step.output - root) <= bound and step.psi_evals < 100

    def test_a_minimizing_movement_stays_on_the_kink(self):
        # the flow of |x| reaches 0 at t = |y0| and stays there; step 49's
        # search has a Newton trial on an end of its bracket
        y0, tau = 2.392955753630159, 0.049077619765219106
        c = minimizing_movement(_expr("pow(x*x, 0.5)"), tau, y0, 2 * abs(y0), TOL)
        assert np.max(np.abs(c.points[c.times >= abs(y0)])) <= 1e-15

    def test_the_pass_bound_raises(self, monkeypatch):
        # 6 passes with 2 doublings: the log-cosh case above has its bracket
        # after one trial and no stop by the sixth pass; the end of the
        # bracket there, 8.0357, is not a root
        monkeypatch.setattr(flows, "_MAX_EXPANSIONS", 2)
        with pytest.raises(BlowUp, match="prox of log-cosh made 6 passes without a stop"):
            prox(LOG_COSH_1000, 8.276689322314216, -0.09064551511255146)
        with pytest.raises(BlowUp, match="prox failed at step 1 "):
            minimizing_movement(LOG_COSH_1000, 8.276689322314216, -0.09064551511255146,
                                8.3, TOL)

    def test_a_search_without_a_sign_change_raises(self):
        # -x^2 on R at tau = 1: psi(w) = (w - 1) - 2w < 0 from v = 1 on, and
        # psi' = 1 - 2 < 0 gives no Newton trial
        with pytest.raises(NotBoundedBelow, match="keeps descending after 200 expansions"):
            prox(library("quadratic", P01, c=-2.0), 1.0, 1.0)

    def test_an_end_where_f_is_plus_inf_raises(self):
        # f = x on [0, inf) but +inf at 0: the search descends to the end 0
        fn = Functional(space=Interval(0.0, math.inf, open_a=False), name="x+",
                        fvec=lambda x: np.where(x == 0.0, math.inf, x),
                        grad=lambda x: 1.0, hess=lambda x: 0.0)
        with pytest.raises(BasePointOutsideDomain, match=r"x\+ is \+inf at the end 0.0 "):
            prox(fn, 1.0, 0.3)

    def test_a_step_past_a_pole_stops_the_steps(self):
        # u_1 is the end past the pole, where f = +inf; f is evaluated after
        # a step that ends on a collapsed bracket, so the 2000-step solve
        # stops there and does not walk round the pole up to the 512-step
        # checkpoint
        fn = _expr("x*x/2 + log(x - 0.3)")
        for tau in self.POLE_TAUS:
            calls = []

            def grad(x, calls=calls):
                calls.append(x)
                return fn.grad(x)

            with pytest.raises(BasePointOutsideDomain, match="prox failed at step 2 "):
                minimizing_movement(dataclasses.replace(fn, grad=grad), tau, 1.0,
                                    2000 * tau, TOL)
            assert len(calls) <= 200


def test_one_slope_source_in_the_proximal_steps():
    # a source scan of flows.py: only _prox_args compares hess with None
    # (every functional reaching a solver has it), _step is the Newton step
    # from one point, with no second point for a secant, and _prox_1d takes
    # it at one place, before and after the sign change
    tree = ast.parse(Path(flows.__file__).read_text())
    scope = {}
    for func in ast.walk(tree):  # breadth first: outer functions come first
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                scope.setdefault(node, func.name)

    def is_hess(node):
        return getattr(node, "attr", getattr(node, "id", None)) == "hess"

    found = [scope.get(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(map(is_hess, [node.left, *node.comparators]))
             and any(isinstance(o, ast.Constant) and o.value is None
                     for o in [node.left, *node.comparators])]
    assert found == ["_prox_args"]
    (step,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and f.name == "_step"]
    assert [a.arg for a in step.args.args] == ["x", "s", "d"]
    (search,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 and f.name == "_prox_1d"]
    assert [getattr(n.func, "id", None) for n in ast.walk(search)
            if isinstance(n, ast.Call)].count("_step") == 1


class TestNewtonDecrementStop:
    """On R^n a Newton step whose decrement is below the objective's rounding
    ends the proximal search without a line search."""

    def test_one_line_search_per_step_and_converged_steps(self):
        fn = expression_functional("x1*x1 + x2*x2 + cos(x1)", EuclideanRn(2))
        rows = []

        def fvec(xs):
            rows.append(len(xs))
            return fn.fvec(xs)

        tau = 0.01
        c = minimizing_movement(dataclasses.replace(fn, fvec=fvec), tau,
                                np.array([1.0, -0.5]), 3.0, TOL)
        steps = c.n_samples - 1
        assert steps == 300 and sum(rows) <= 2 * steps + 1  # and f(y0)
        u = c.points
        res = (u[1:] - u[:-1]) / tau + np.array([fn.grad(x) for x in u[1:]])
        assert np.sqrt((res * res).sum(axis=-1)).max() <= 1e-12


class TestGradientCarry:
    """On R^n each step takes grad f(U^{n-1}) from the step before it: one
    gradient call per Newton iterate plus one at y0, and the points of a
    loop of prox calls, each of which evaluates grad f at its input."""

    FNS = {
        "quadratic-r2": library("quadratic", P11, c=1.0, dim=2),
        "quadratic-r3": library("quadratic", P11, c=2.5, dim=3),
        # the forward-mode Hessian of the expression
        "expression-r2": expression_functional("x1*x1 + x2*x2 + cos(x1)",
                                               EuclideanRn(2)),
    }

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(FNS)), st.lists(st.floats(-3.0, 3.0), min_size=3,
                                                  max_size=3),
           st.floats(1e-3, 0.5), st.integers(1, 30))
    def test_matches_the_prox_loop(self, name, y0, tau, steps):
        fn = self.FNS[name]
        y0 = np.array(y0[:fn.space.n])
        got = _outcome(TestOneArrayOfValues._mms_points, fn, tau, y0, steps * tau)
        assert got == _outcome(_prox_loop, fn, tau, y0, steps * tau)
        assert got[0] == "points"

    def test_quadratic_takes_one_gradient_per_step(self):
        # the benchmark's mms-quadratic-r2 solve: one Newton iterate per
        # step, so steps + 1 gradient calls and steps + 1 rows of f
        fn, grads, rows = self.FNS["quadratic-r2"], [], []

        def grad(x):
            grads.append(x)
            return fn.grad(x)

        def fvec(xs):
            rows.append(len(xs))
            return fn.fvec(xs)

        c = minimizing_movement(dataclasses.replace(fn, grad=grad, fvec=fvec),
                                1.0 / 1800, np.array([1.0, -0.5]), 1.0, TOL)
        steps = c.n_samples - 1
        assert steps == 1800 and len(grads) == sum(rows) == steps + 1
        assert c.meta["prox_psi_evals"] == steps + 1
        assert hashlib.sha256(c.points.tobytes()).hexdigest() == \
            "f5ee1c7f09b7557c0d2cac8a655eecd97cbf36ade21d26a62c2687995a8c5559"


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


class TestOracleSaturation:
    """exp past the double range saturates in the oracles without a warning
    (RuntimeWarnings are errors in this suite)."""

    def test_log_cos_reaches_the_end(self):
        c = oracle_flow("log-cos", PM11, 0.5, np.linspace(0.0, 1e3, 11))
        assert c.points[-1] == 0.5 * math.pi and c.stop_time < 1e3

    def test_growing_quadratic_leaves_the_floats(self):
        with pytest.raises(ParamOutOfRange, match="finite"):
            oracle_flow("quadratic", None, 1.0, np.linspace(0.0, 1e3, 11), c=-1.0)


class TestStartPoints:
    """A start point off the closure of the space is PointOutsideSpace on
    every route."""

    GRID = time_grid(0.0, 0.5, 6)

    @pytest.mark.parametrize("route", [
        lambda fn, y0, g: minimizing_movement(fn, 0.1, y0, 0.5),
        lambda fn, y0, g: ode_flow(fn, y0, g),
        lambda fn, y0, g: prox(fn, 0.1, y0),
    ], ids=["mms", "ode", "prox"])
    @pytest.mark.parametrize("name, p, y0", [
        ("log-x", P01, [1.0]), ("log-x", P01, -1.0), ("log-x", P01, math.nan),
        ("log-cosh", P11, [1.0, 2.0]), ("log-cos", PM11, 2.0),
    ])
    def test_interval_routes(self, route, name, p, y0):
        with pytest.raises(PointOutsideSpace):
            route(library(name, p), y0, self.GRID)

    @pytest.mark.parametrize("y0", [[1.0], [1.0, 2.0], math.nan, math.inf])
    @pytest.mark.parametrize("name, p", [
        ("log-x", P01), ("log-cosh", P11), ("log-cos", PM11), ("fN-linear", None),
    ])
    def test_oracles(self, name, p, y0):
        with pytest.raises(PointOutsideSpace):
            oracle_flow(name, p, y0, self.GRID)

    @pytest.mark.parametrize("y0", [np.ones(3), 1.0, [1.0, math.inf]])
    def test_plane(self, y0):
        fn = expression_functional("x1*x1 + x2*x2", EuclideanRn(2))
        for route in (lambda: ode_flow(fn, y0, self.GRID),
                      lambda: minimizing_movement(fn, 0.1, y0, 0.5)):
            with pytest.raises(PointOutsideSpace):
                route()

    def test_closure_points_start(self):
        """From an end where f = -inf the flow is extinct at once; from one
        where f = +inf ode_flow has no flow to follow."""
        grid = time_grid(0.25, 0.5, 6)
        for name, p, y0 in [("log-x", P01, 0.0), ("log-cos", PM11, 0.5 * math.pi),
                            ("log-cos", PM11, -0.5 * math.pi)]:
            c = ode_flow(library(name, p), y0, grid)
            assert np.all(c.points == y0) and c.stop_time == grid[0]
            assert (c.meta["ode_status"], c.meta["ode_nfev"]) == (1, 0)
        for y0 in (0.5 * math.pi, -0.5 * math.pi):
            c = oracle_flow("log-cos", PM11, y0, self.GRID)
            assert np.all(c.points == y0)
            assert c.stop_time == 0.0 and math.copysign(1.0, c.stop_time) == 1.0
        with pytest.raises(NotBoundedBelow):
            prox(library("log-x", P01), 0.1, 0.0)
        fn = expression_functional("-log(x)", Interval(0.0, math.inf, open_a=False))
        for route in (lambda: ode_flow(fn, 0.0, self.GRID), lambda: prox(fn, 0.1, 0.0)):
            with pytest.raises(BasePointOutsideDomain):
                route()


class TestOdeEvaluationBound:
    """The Dormand-Prince steps collapse at a kink of f: the solve stops after
    flows._MAX_ODE_NFEV right-hand-side evaluations with BlowUp."""

    @staticmethod
    def _counted(fn):
        calls = []

        def grad(x):
            calls.append(x)
            return fn.grad(x)
        return dataclasses.replace(fn, grad=grad), calls

    def test_kink_raises_after_the_bound(self, monkeypatch):
        from knflow import flows
        from knflow.errors import BlowUp
        monkeypatch.setattr(flows, "_MAX_ODE_NFEV", 3000)
        fn, calls = self._counted(expression_functional("pow(x*x, 0.5)"))
        with pytest.raises(BlowUp, match="3000"):
            ode_flow(fn, 1.0, time_grid(0.0, 1.01, 11))
        assert len(calls) == 3000

    def test_before_the_kink_is_untouched(self):
        from knflow import flows
        fn, calls = self._counted(expression_functional("pow(x*x, 0.5)"))
        c = ode_flow(fn, 1.0, time_grid(0.0, 0.9, 10))
        assert c.meta["ode_nfev"] == len(calls) == 26
        np.testing.assert_allclose(c.points, 1.0 - c.times, atol=1e-9)
        # the suite's largest solve, the finite-time blow-up above, takes
        # 8414 evaluations
        assert flows._MAX_ODE_NFEV >= 10 * 8414


def _solve_ivp_flow(fn, y0, grid, rtol=1e-9):
    """ode_flow as it ran on ``scipy.integrate.solve_ivp`` (RK45, dense
    output, terminal boundary events), with the same clamp, event margins,
    local tolerances and evaluation bound: the independent reference of
    :class:`TestDormandPrince`."""
    from scipy.integrate import solve_ivp
    grid = np.asarray(grid, dtype=float)
    y0 = fn.space.closure_point(y0)
    loc_rtol, loc_atol = max(1e-13, 1e-2 * rtol), max(1e-15, 1e-4 * rtol)
    one_d, events = isinstance(fn.space, Interval), []
    if one_d:
        a, b = fn.space.a, fn.space.b
        pad = 1e-13 * (1.0 + abs(y0))
        y0 = [y0]

        def rhs(t, y):
            return [-float(fn.grad(min(max(y[0], a + pad), b - pad)))]

        for end, inward in ((a, 1.0), (b, -1.0)):
            if math.isfinite(end):
                def hit(t, y, _edge=end + inward * 1e-6 * (1.0 + abs(end)),
                        _inward=inward):
                    return _inward * (y[0] - _edge)
                hit.terminal, hit.direction = True, -1
                events.append(hit)
    else:
        def rhs(t, y):
            return -np.asarray(fn.grad(y), dtype=float)
    nfev = 0

    def bounded_rhs(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > flows._MAX_ODE_NFEV:
            raise BlowUp(f"ode_flow {fn.name}: over {flows._MAX_ODE_NFEV} "
                         f"evaluations at t={t}")
        return rhs(t, y)

    sol = solve_ivp(bounded_rhs, (grid[0], grid[-1]), y0, method="RK45",
                    rtol=loc_rtol, atol=loc_atol, dense_output=True,
                    events=events or None)
    if sol.status == -1:
        raise BlowUp(f"integration failed: {sol.message}")
    ys, stop = sol.sol(grid[grid <= sol.t[-1]]).T, None
    if sol.status == 1:
        stop = min(float(te[0]) for te in sol.t_events if len(te))
        y_end = float(sol.sol(stop)[0])
        edge = a if abs(y_end - a) < abs(y_end - b) else b
        ys = np.concatenate([ys, np.full((len(grid) - len(ys), 1), edge)])
    if one_d:
        ys = np.clip(ys[:, 0], a, b)
    return ys, stop, int(sol.nfev), int(sol.status), len(sol.t) - 1


def _dp_corpus():
    """(functional, y0, grid) solves: the four interval library functionals
    from starts that stay inside and starts that reach a boundary, the
    1-d and R^2 quadratics, an R^2 expression and fN(log-cosh)."""
    cases = []
    for name, p, starts in (
            ("log-x", P01, [(1.0, 0.2), (1.0, 0.8), (0.3, 0.1), (2.5, 1.0),
                            (2.5, 4.0), (1e-3, 1.0)]),
            ("log-sinh", P11, [(0.2, 0.01), (0.2, 0.1), (1.0, 0.3), (1.0, 2.0),
                               (2.0, 1.0), (2.0, 5.0)]),
            ("log-cos", PM11, [(0.1, 1.0), (0.1, 3.0), (-0.5, 0.5), (-0.5, 2.0),
                               (1.2, 0.1), (1.2, 1.0), (0.0, 1.0)]),
            ("log-cosh", P11, [(-2.0, 1.0), (0.5, 3.0), (3.0, 0.5), (1e-8, 1.0)]),
            ("quadratic", P11, [(2.0, 1.0), (-0.3, 5.0)])):
        fn = library(name, p)
        for k, (y0, t1) in enumerate(starts):
            cases.append((fn, y0, time_grid(0.0, t1, (11, 41, 2001)[k % 3])))
    sp = EuclideanRn(2)
    for fn, y0 in (
            (library("quadratic", P11, c=1.0, dim=2), np.array([1.0, -2.0])),
            (expression_functional("x1*x1/2 + x2*x2 + cos(3*x1)", sp),
             np.array([0.4, -1.0])),
            (expression_functional("x1*x1*x1*x1 + x2*x2 - x1*x2", sp),
             np.array([1.5, 0.5]))):
        cases.append((fn, y0, time_grid(0.0, 1.0, 21)))
        cases.append((fn, y0, time_grid(0.5, 3.0, 401)))
    fN = fN_functional(library("log-cosh", P11), P11)
    cases += [(fN, 1.0, time_grid(0.0, 1.0, 11)), (fN, -0.7, time_grid(0.0, 3.0, 301))]
    return cases


class TestDormandPrince:
    """ode_flow's own Dormand-Prince loop repeats SciPy's RK45 (solve_ivp with
    dense output and terminal events) operation for operation: its points,
    evaluation counts, accepted steps, exits, stop times and errors equal
    the reference's, the points and stop times bit for bit."""

    CASES = _dp_corpus()

    @staticmethod
    def _outcome(route):
        try:
            return route(), None
        except BlowUp as exc:
            return None, (type(exc), str(exc))

    @pytest.mark.parametrize("rtol", [1e-6, 1e-9, 1e-11])
    def test_matches_solve_ivp_bit_for_bit(self, rtol, caplog):
        events = rejections = 0
        for fn, y0, grid in self.CASES:
            with caplog.at_level(logging.DEBUG, logger="knflow"):
                c = ode_flow(fn, y0, grid, rtol=rtol)
            ys, stop, nfev, status, steps = _solve_ivp_flow(fn, y0, grid, rtol)
            where = f"{fn.name} y0={y0} t1={grid[-1]}"
            assert np.array_equal(c.points, ys), where
            assert (c.meta["ode_nfev"], c.meta["ode_status"]) == (nfev, status), where
            assert c.stop_time == stop, where
            # each step tried costs 6 evaluations, the first step 2 more
            rejected = (nfev - 2) // 6 - steps
            assert caplog.records[-1].getMessage() == (
                f"ode_flow {fn.name}: nfev={nfev} steps={steps} "
                f"rejected={rejected} status={status}"), where
            events, rejections = events + status, rejections + rejected
        assert events == 11  # of the 25 interval solves
        assert rejections > 0

    def test_tableau_is_rk45s(self):
        from scipy.integrate import RK45
        for ours, theirs in ((flows._DP_C, RK45.C), (flows._DP_A, RK45.A),
                             (flows._DP_B, RK45.B), (flows._DP_E, RK45.E),
                             (flows._DP_P, RK45.P)):
            assert np.array_equal(ours, theirs)

    def test_brentq_matches_scipy(self):
        from scipy.optimize import brentq
        tol = 4 * np.finfo(float).eps
        for f, a, b in ((lambda t: math.cos(t) - t, 0.0, 1.0),
                        (lambda t: t ** 3 - 2.0, 1.0, 2.0),
                        (lambda t: math.expm1(30.0 * (t - 0.3)), 0.0, 1.0),
                        (lambda t: 1e-3 - t * t, 0.0, 1.0),
                        (lambda t: math.tanh(t - 0.7) + 1e-12, 0.2, 5.0),
                        (lambda t: 0.5 - t, 0.0, 1.0)):
            assert flows._brentq(f, a, b) == brentq(f, a, b, xtol=tol, rtol=tol)

    def test_blow_up_raises_as_solve_ivp(self):
        fn = Functional(space=Interval(), fvec=lambda x: -0.25 * x**4,
                        grad=lambda x: -float(x) ** 3, name="neg-quartic")
        grid = time_grid(0, 2.0, 11)
        ours = self._outcome(lambda: ode_flow(fn, 1.0, grid, rtol=1e-9))
        assert ours == self._outcome(lambda: _solve_ivp_flow(fn, 1.0, grid, 1e-9))
        assert ours[1] == (BlowUp, "integration failed: Required step size is "
                                   "less than spacing between numbers.")

    def test_kink_bound_raises_as_solve_ivp(self, monkeypatch):
        monkeypatch.setattr(flows, "_MAX_ODE_NFEV", 3000)
        fn = expression_functional("pow(x*x, 0.5)")
        grid = time_grid(0.0, 1.01, 11)
        ours = self._outcome(lambda: ode_flow(fn, 1.0, grid))
        assert ours == self._outcome(lambda: _solve_ivp_flow(fn, 1.0, grid))
        assert ours[1][1].startswith(
            "ode_flow expr:pow(x*x, 0.5): over 3000 evaluations at t=")

import math

import numpy as np
import pytest

from knflow.analysis import (
    bracket,
    check_evi_integrated,
    check_evi_kn,
    check_evi_lambda,
    check_evi_local,
    contraction_rate,
    energy_audit,
    forward_upper_derivative,
    metric_derivative,
    slope,
)
from knflow.coefficients import CurvatureParams
from knflow.core import SampleSpec, Tolerance
from knflow.errors import (
    DisjointWindows,
    KZero,
    ParamOutOfRange,
    PointOutsideDomain,
    TooFewSamples,
)
from knflow.flows import Curve, minimizing_movement, ode_flow, oracle_flow, time_grid
from knflow.functionals import directional_derivative, fN_functional, library
from knflow.reparam import r1, r2
from knflow.spaces import geodesic

P01 = CurvatureParams(0.0, -1.0)
P11 = CurvatureParams(1.0, -1.0)
PM11 = CurvatureParams(-1.0, -1.0)
TOL = Tolerance()
SPEC = SampleSpec(seed=7, count=200)

LOG_X = library("log-x", P01)
LOG_COSH = library("log-cosh", P11)
LOG_COS = library("log-cos", PM11)
LINEAR = library("linear", P01, a=1.0)
COS_FN = fN_functional(LOG_COS, PM11)
COSH_FN = fN_functional(LOG_COSH, P11)


def cos_transform_flow(z0=0.3, t_end=1.5, n=1200):
    """Flow of the cosine potential: tan(z/2) = tan(z0/2) e^t."""
    ts = np.linspace(0.0, t_end, n)
    zs = 2.0 * np.arctan(np.tan(z0 / 2.0) * np.exp(ts))
    stop = -math.log(math.tan(z0 / 2.0))
    assert t_end < stop
    return Curve(ts, zs, stop_time=stop, meta={"method": "closed-form"})


def cosh_transform_flow(z0=1.0, t_end=2.0, n=800):
    """Flow of the hyperbolic-cosine potential: tanh(z/2) = tanh(z0/2) e^-t."""
    ts = np.linspace(0.0, t_end, n)
    zs = 2.0 * np.arctanh(np.tanh(z0 / 2.0) * np.exp(-ts))
    return Curve(ts, zs, meta={"method": "closed-form"})


def jitter(c: Curve, amount=0.05, seed=3, lo=None, hi=None) -> Curve:
    rng = np.random.default_rng(seed)
    pts = c.points + amount * rng.standard_normal(c.points.shape)
    if lo is not None:
        pts = np.clip(pts, lo, hi)
    return Curve(c.times, pts, meta={"perturbed": True})


class TestForwardUpperDerivative:
    def test_smooth(self):
        assert forward_upper_derivative(lambda t: t * t, 1.0, TOL) \
            == pytest.approx(2.0, abs=1e-4)

    def test_step_underflow(self):
        from knflow.errors import StepUnderflow
        with pytest.raises(StepUnderflow):
            forward_upper_derivative(lambda t: t, 0.0, TOL, h0=1e-9)

    def test_infinite_step_is_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            forward_upper_derivative(lambda t: t, 0.0, TOL, h0=math.inf)

    def test_nan_step_is_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            forward_upper_derivative(lambda t: t, 0.0, TOL, h0=math.nan)

    def test_kink(self):
        assert forward_upper_derivative(abs, 0.0, TOL) == pytest.approx(1.0)

    def test_piecewise_right_slope(self):
        g = lambda t: 3.0 * t if t >= 0 else -t
        assert forward_upper_derivative(g, 0.0, TOL) == pytest.approx(3.0)


class TestMetricDerivative:
    def test_log_x_speed(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 0.45, 4001))
        v = metric_derivative(c)
        i = np.argmin(np.abs(c.times - 0.375))
        assert v[i] == pytest.approx(1.0 / c.points[i], rel=1e-5)  # speed 1/y

    def test_constant_zero(self):
        c = Curve(np.linspace(0, 1, 5), np.full(5, 1.0))
        np.testing.assert_allclose(metric_derivative(c), 0.0)

    def test_linear_unit(self):
        c = oracle_flow("fN-linear", None, 2.0, time_grid(0, 1, 11))
        np.testing.assert_allclose(metric_derivative(c), 1.0)

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            metric_derivative(Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0])))


class TestEviLambda:
    def test_linear_flow_passes(self):
        c = oracle_flow("fN-linear", None, 1.0, time_grid(0, 0.95, 400))
        rep = check_evi_lambda(c, LINEAR, 0.0, SPEC, TOL)
        assert rep.passed, rep.witness

    def test_cos_flow_passes_minus_one(self):
        rep = check_evi_lambda(cos_transform_flow(), COS_FN, -1.0, SPEC, TOL)
        assert rep.passed, rep.witness

    def test_linear_flow_fails_plus_one(self):
        c = oracle_flow("fN-linear", None, 1.0, time_grid(0, 0.95, 400))
        rep = check_evi_lambda(c, LINEAR, 1.0, SPEC, TOL)
        assert not rep.passed
        # worst witness reproduces a genuine violation at large distance
        t, z = rep.witness
        assert abs(z - c.at(t)) > 0.5

    def test_cosh_flow_passes_zero(self):
        rep = check_evi_lambda(cosh_transform_flow(), COSH_FN, 0.0, SPEC, TOL)
        assert rep.passed, rep.witness

    def test_jittered_flow_fails(self):
        c = jitter(cosh_transform_flow(), amount=0.05)
        rep = check_evi_lambda(c, COSH_FN, 0.0, SPEC, TOL)
        assert not rep.passed


class TestEviKn:
    def test_log_x_passes_all_forms(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 0.45, 1500))
        for form in ("raw", "i", "ii"):
            rep = check_evi_kn(c, LOG_X, P01, form, SPEC, TOL)
            assert rep.passed, (form, rep.witness, rep.max_violation)

    def test_log_cosh_passes_all_forms(self):
        c = oracle_flow("log-cosh", P11, 1.0, time_grid(0, 2.0, 1500))
        for form in ("raw", "i", "ii"):
            rep = check_evi_kn(c, LOG_COSH, P11, form, SPEC, TOL)
            assert rep.passed, (form, rep.witness, rep.max_violation)

    def test_log_cos_passes_all_forms(self):
        t_end = 0.8 * (-math.log(math.sin(0.3)))
        c = oracle_flow("log-cos", PM11, 0.3, time_grid(0, t_end, 1500))
        for form in ("raw", "i", "ii"):
            rep = check_evi_kn(c, LOG_COS, PM11, form, SPEC, TOL)
            assert rep.passed, (form, rep.witness, rep.max_violation)

    def test_stationary_point_equality(self):
        c = Curve(np.linspace(0, 1, 50), np.zeros(50))
        rep = check_evi_kn(c, LOG_COSH, P11, "raw", SPEC, TOL)
        assert rep.passed
        assert abs(rep.max_residual) <= 1e-10  # exact half-angle identity

    def test_log_x_fails_positive_curvature(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 0.45, 1500))
        p_bad = CurvatureParams(0.5, -1.0)
        for form in ("raw", "i", "ii"):
            rep = check_evi_kn(c, LOG_X, p_bad, form, SPEC, TOL)
            assert not rep.passed, form

    def test_forms_agree_on_battery(self):
        t_end = 0.8 * (-math.log(math.sin(0.3)))
        battery = [
            (oracle_flow("log-x", P01, 1.0, time_grid(0, 0.45, 800)),
             LOG_X, P01),
            (oracle_flow("log-cosh", P11, 1.0, time_grid(0, 2, 800)),
             LOG_COSH, P11),
            (oracle_flow("log-cos", PM11, 0.3, time_grid(0, t_end, 800)),
             LOG_COS, PM11),
            (Curve(np.linspace(0, 1, 50), np.zeros(50)), LOG_COSH, P11),
        ]
        lo_hi = {"log-x": (1e-3, None), "log-cos": (-1.5, 1.5)}
        for curve, fn, p in battery:
            lo, hi = lo_hi.get(fn.name, (None, None))
            bad = jitter(curve, 0.05, lo=lo, hi=hi)
            for c, expected in ((curve, True), (bad, False)):
                outcomes = {form: check_evi_kn(c, fn, p, form, SPEC, TOL).passed
                            for form in ("raw", "i", "ii")}
                assert set(outcomes.values()) == {expected}, (fn.name, outcomes)

    def test_monotone_in_parameters(self):
        c = oracle_flow("log-cosh", P11, 1.0, time_grid(0, 2, 800))
        for K2, N2 in ((0.5, -1.0), (0.0, -1.0), (1.0, -0.5), (-1.0, -0.8)):
            p2 = CurvatureParams(K2, N2)
            rep = check_evi_kn(c, LOG_COSH, p2, "ii", SPEC, TOL)
            assert rep.passed, (K2, N2, rep.max_violation)

    def test_lambda_check_implies_kn_check(self):
        # quadratic flow satisfies the modulus-1 inequality, hence the
        # dimensional one at K=1 for any N<0
        fn = library("quadratic", P11, c=1.0)
        c = oracle_flow("quadratic", None, 1.0, time_grid(0, 1, 800), c=1.0)
        assert check_evi_lambda(c, fn, 1.0, SPEC, TOL).passed
        for N in (-0.5, -1.0, -3.0):
            p = CurvatureParams(1.0, N)
            assert check_evi_kn(c, fn, p, "ii", SPEC, TOL).passed, N


class TestEviLambdaRn:
    def test_planar_quadratic_flow(self):
        fn = library("quadratic", P11, c=1.0, dim=2)
        c = oracle_flow("quadratic", None, np.array([1.0, -0.5]),
                        time_grid(0, 1, 400), c=1.0)
        rep = check_evi_lambda(c, fn, 1.0, SPEC, TOL)
        assert rep.passed, rep.witness

    def test_planar_jitter_fails(self):
        fn = library("quadratic", P11, c=1.0, dim=2)
        c = oracle_flow("quadratic", None, np.array([1.0, -0.5]),
                        time_grid(0, 1, 400), c=1.0)
        rng = np.random.default_rng(9)
        bad = Curve(c.times, c.points + 0.05 * rng.standard_normal(c.points.shape))
        assert not check_evi_lambda(bad, fn, 1.0, SPEC, TOL).passed


class TestRnSamplers:
    """Properties of the R^n reference points that hold for any draw order."""

    QUAD2 = library("quadratic", P11, c=1.0, dim=2)

    def test_stratified_rows_lie_in_the_box_and_near_the_curve(self):
        from knflow.analysis import _stratified_z
        from knflow.spaces import distances
        # curve points on and near the edges of the box [-3, 3]^2, so the
        # clip acts on the near-curve stratum too
        x_t = np.array([[0.0, 0.0], [2.95, -1.0], [-3.0, 3.0], [1.0, 2.99]])
        steps = np.array([0.5, 0.2, 0.1, 1.0])
        n = 31
        z = _stratified_z(self.QUAD2, x_t, steps, np.random.default_rng(4), n)
        assert z.shape == (len(x_t), n, 2)
        assert ((z >= -3.0) & (z <= 3.0)).all()
        near = distances(x_t[:, None, :], z[:, :n // 3], False)
        assert (near <= steps[:, None] * (1.0 + 1e-12)).all()

    def test_local_points_lie_in_the_box_and_the_ball(self, monkeypatch):
        from knflow import analysis
        from knflow.spaces import distances
        real = analysis._step_check
        seen = {}

        def spy(form, params, c, fn, tol, t_samples, draw, *args, **kwargs):
            def record(idx, steps):
                seen["idx"], seen["z"] = idx, draw(idx, steps)
                return seen["z"]
            return real(form, params, c, fn, tol, t_samples, record, *args,
                        **kwargs)

        monkeypatch.setattr(analysis, "_step_check", spy)
        c = oracle_flow("quadratic", None, np.array([2.9, -2.95]),
                        time_grid(0, 1, 60), c=1.0)
        radius = 0.4
        check_evi_local(c, self.QUAD2, 1.0, radius, SampleSpec(5, 25), TOL,
                        t_samples=12)
        z, x_t = seen["z"], c.points[seen["idx"]]
        assert z.shape == (len(x_t), 25, 2)
        assert ((z >= -3.0) & (z <= 3.0)).all()
        assert (distances(x_t[:, None, :], z, False)
                <= radius * (1.0 + 1e-12)).all()


class TestEviIntegrated:
    def test_log_cosh_passes(self):
        c = oracle_flow("log-cosh", P11, 1.0, time_grid(0, 2, 800))
        rep = check_evi_integrated(c, LOG_COSH, P11, SPEC, TOL)
        assert rep.passed, rep.max_violation

    def test_log_cos_passes(self):
        t_end = 0.8 * (-math.log(math.sin(0.3)))
        c = oracle_flow("log-cos", PM11, 0.3, time_grid(0, t_end, 800))
        rep = check_evi_integrated(c, LOG_COS, PM11, SPEC, TOL)
        assert rep.passed, rep.max_violation

    def test_jittered_fails(self):
        c = jitter(oracle_flow("log-cosh", P11, 1.0, time_grid(0, 2, 800)))
        rep = check_evi_integrated(c, LOG_COSH, P11, SPEC, TOL)
        assert not rep.passed

    def test_k_zero_rejected(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 0.4, 100))
        with pytest.raises(KZero):
            check_evi_integrated(c, LOG_X, P01, SPEC, TOL)


class TestEviLocal:
    def test_cos_flow_local_and_global_agree(self):
        c = cos_transform_flow()
        loc = check_evi_local(c, COS_FN, -1.0, 0.2, SPEC, TOL)
        glob = check_evi_lambda(c, COS_FN, -1.0, SPEC, TOL)
        assert loc.passed and glob.passed

    def test_linear_flow_local(self):
        c = oracle_flow("fN-linear", None, 1.0, time_grid(0, 0.95, 400))
        rep = check_evi_local(c, LINEAR, 0.0, 0.1, SPEC, TOL)
        assert rep.passed

    def test_jittered_fails_locally(self):
        c = jitter(cos_transform_flow(), 0.05, lo=-1.55, hi=1.55)
        rep = check_evi_local(c, COS_FN, -1.0, 0.2, SPEC, TOL)
        assert not rep.passed

    def test_sublevel_filter(self):
        c = cos_transform_flow()
        rep = check_evi_local(c, COS_FN, -1.0, 0.3, SPEC, TOL,
                              z_filter=lambda z: LOG_COS.value(z) <= 0.0)
        assert rep.passed


class TestSlope:
    def test_log_x_definition(self):
        assert slope(LOG_X, 0.5, "definition") == pytest.approx(2.0, rel=1e-3)

    def test_log_cosh_stationary(self):
        assert slope(LOG_COSH, 0.0, "definition") == pytest.approx(0.0, abs=1e-8)
        assert slope(LOG_COSH, 0.0, "formula", p=P11, R=1.0) \
            == pytest.approx(0.0, abs=1e-12)

    def test_formula_matches_definition(self):
        cases = [
            (LOG_X, P01, (0.2, 3.0)),
            (LOG_COSH, P11, (-2.0, 2.0)),
            (LOG_COS, PM11, (-1.4, 1.4)),
        ]
        rng = np.random.default_rng(21)
        for fn, p, (lo, hi) in cases:
            R = 0.5 if p.K >= 0 else 0.45 * p.theta_singular
            for _ in range(20):
                y = rng.uniform(lo, hi)
                s_def = slope(fn, y, "definition")
                s_for = slope(fn, y, "formula", spec=SampleSpec(5, 100), p=p, R=R)
                assert s_for == pytest.approx(s_def, rel=1e-3, abs=1e-6), \
                    (fn.name, y)

    def test_formula_radius_cap(self):
        with pytest.raises(ParamOutOfRange):
            slope(LOG_COS, 0.3, "formula", p=PM11, R=4.0)

    def test_outside_domain(self):
        with pytest.raises(PointOutsideDomain):
            slope(LOG_X, 0.0, "definition")


class TestEnergyAudit:
    def test_log_x_balance(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0.01, 0.48, 1000))
        audit = energy_audit(c, LOG_X, TOL)
        assert audit.passes_pointwise_balance, \
            np.max(np.abs(audit.residual) - audit.budget)
        assert audit.ede_residual <= 1e-3

    def test_log_cosh_balance(self):
        c = oracle_flow("log-cosh", P11, 1.0, time_grid(0.01, 2.0, 1000))
        audit = energy_audit(c, LOG_COSH, TOL)
        assert audit.passes_pointwise_balance
        assert audit.ede_residual <= 1e-3

    def test_log_cos_balance(self):
        t_end = 0.8 * (-math.log(math.sin(0.3)))
        c = oracle_flow("log-cos", PM11, 0.3, time_grid(0.01, t_end, 800))
        audit = energy_audit(c, LOG_COS, TOL)
        assert audit.passes_pointwise_balance
        assert audit.ede_residual <= 1e-3

    def test_constant_at_non_stationary_point_fails(self):
        c = Curve(np.linspace(0, 1, 200), np.full(200, 0.5))
        audit = energy_audit(c, LOG_X, TOL)
        assert audit.fails_dissipation_inequality
        # residual = -slope^2/2 = -(1/0.5)^2/2 = -2
        assert np.median(audit.residual) == pytest.approx(-2.0, rel=1e-3)

    def test_slope_chain_rule_along_curve(self):
        # slope of the transform = (f_N / -N) * slope of f, pointwise
        pts = np.array([0.4, 0.8, 1.3, 2.0])
        for y in pts:
            lhs = slope(COSH_FN, y, "definition")
            rhs = (math.cosh(y) / 1.0) * slope(LOG_COSH, y, "definition")
            assert lhs == pytest.approx(rhs, rel=1e-3)


class TestBracket:
    def test_smooth_case_matches_directional_derivative(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 0.45, 2000))
        t0 = float(c.times[500])
        y = float(c.points[500])
        g = geodesic(LOG_X.space, y, 2.0)
        b = bracket(c, t0, g)
        dd = directional_derivative(LOG_X, g)
        # discrete bias ~ h/(4 s_min) * curvature, systematically positive
        assert b.value <= dd + 5e-3
        assert b.value == pytest.approx(dd, abs=5e-3)

    def test_constant_curve_zero(self):
        c = Curve(np.linspace(0, 1, 20), np.full(20, 1.0))
        g = geodesic(LOG_X.space, 1.0, 2.5)
        assert bracket(c, float(c.times[10]), g).value == pytest.approx(0.0, abs=1e-12)

    def test_downstream_direction_negative(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 0.45, 2000))
        t0 = float(c.times[500])
        y = float(c.points[500])
        g = geodesic(LOG_X.space, y, max(y - 0.3, 1e-3))
        assert bracket(c, t0, g).value < 0

    def test_non_grid_time_rejected(self):
        c = oracle_flow("log-x", P01, 1.0, time_grid(0, 0.4, 10))
        g = geodesic(LOG_X.space, float(c.points[0]), 2.0)
        with pytest.raises(ParamOutOfRange):
            bracket(c, 0.1234, g)

    def test_audit_too_few_samples(self):
        c = Curve(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(TooFewSamples):
            energy_audit(c, LOG_X, TOL)


class TestContraction:
    def test_parallel_linear_flows(self):
        grid = time_grid(0, 0.9, 400)
        c1 = oracle_flow("fN-linear", None, 1.0, grid)
        c2 = oracle_flow("fN-linear", None, 1.5, grid)
        rate = contraction_rate(c1, c2, 0.1)
        assert abs(rate.max_log_slope) <= 1e-6
        assert abs(rate.fitted_rate) <= 1e-6

    def test_cosh_flows_reparametrized_contract(self):
        grid = time_grid(0, 1.5, 2000)
        z1 = r1(oracle_flow("log-cosh", P11, 1.0, grid), LOG_COSH, P11)
        z2 = r1(oracle_flow("log-cosh", P11, 1.6, grid), LOG_COSH, P11)
        rate = contraction_rate(z1, z2, 0.05)
        assert rate.max_log_slope <= 1e-3

    def test_cos_flows_expansion_bound(self):
        t_end = 0.8 * (-math.log(math.sin(0.4)))
        grid = time_grid(0, t_end, 2000)
        z1 = r1(oracle_flow("log-cos", PM11, 0.3, grid), LOG_COS, PM11)
        z2 = r1(oracle_flow("log-cos", PM11, 0.4, grid), LOG_COS, PM11)
        rate = contraction_rate(z1, z2, 0.02)
        assert rate.max_log_slope <= 1.0 + 1e-3

    def test_disjoint_windows(self):
        c1 = Curve(np.linspace(0, 1, 10), np.zeros(10))
        c2 = Curve(np.linspace(2, 3, 10), np.zeros(10))
        with pytest.raises(DisjointWindows):
            contraction_rate(c1, c2, 0.5)


class TestIdentification:
    def test_three_routes_agree_for_log_cosh(self):
        grid = time_grid(0.0, 1.0, 201)
        oracle = oracle_flow("log-cosh", P11, 1.0, grid)
        ode = ode_flow(LOG_COSH, 1.0, grid, rtol=1e-10)
        mms = minimizing_movement(LOG_COSH, 5e-4, 1.0, 1.0, TOL)
        assert np.max(np.abs(ode.points - oracle.points)) <= 1e-8
        sup = np.max(np.abs(mms.at(grid) - oracle.points))
        assert sup <= 2e-3

    def test_energy_monotone_along_evi_curves(self):
        t_end = 0.8 * (-math.log(math.sin(0.3)))
        curves = [
            (oracle_flow("log-x", P01, 1.0, time_grid(0, 0.45, 500)), LOG_X),
            (oracle_flow("log-cos", PM11, 0.3, time_grid(0, t_end, 500)),
             LOG_COS),
        ]
        for c, fn in curves:
            fs = fn.values(c.points)
            assert (np.diff(fs) <= TOL.abs).all()

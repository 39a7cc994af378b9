import ast
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from knflow.coefficients import CurvatureParams
from knflow.core import Tolerance, require_not_nan
from knflow.errors import (
    BasePointOutsideDomain,
    ExpressionError,
    IncompatibleSign,
    KNFlowError,
    NanError,
    ParamOutOfRange,
    PointOutsideSpace,
)
from knflow.functionals import (
    Functional,
    _compile_node,
    _log_pos,
    directional_derivative,
    expression_functional,
    fN_functional,
    fN_ratio_values,
    fN_values,
    library,
    log_fN,
)
from knflow.spaces import EuclideanRn, Interval, geodesic

P01 = CurvatureParams(0.0, -1.0)
P11 = CurvatureParams(1.0, -1.0)
PM11 = CurvatureParams(-1.0, -1.0)


class TestLibrary:
    def test_log_x_values(self):
        fn = library("log-x", P01)
        assert fn.value(2.0) == pytest.approx(math.log(2.0))
        assert fN_values(fn, P01, [2.0])[0] == pytest.approx(2.0)

    def test_log_x_general_N_transform_is_identity(self):
        p = CurvatureParams(0.0, -2.5)
        fn = library("log-x", p)
        assert fn.value(2.0) == pytest.approx(2.5 * math.log(2.0))
        assert fN_values(fn, p, [3.7])[0] == pytest.approx(3.7)

    def test_log_cos(self):
        fn = library("log-cos", PM11)
        assert fn.value(0.0) == 0.0
        assert fn.upper_bound == 0.0
        # boundary of the closure carries the natural -inf extension
        assert fn.value(math.pi / 2) == -math.inf

    def test_log_cosh(self):
        fn = library("log-cosh", P11)
        assert fn.value(0.0) == 0.0
        assert fn.grad(0.7) == pytest.approx(math.tanh(0.7))

    def test_log_sinh(self):
        fn = library("log-sinh", P11)
        assert fn.value(1.0) == pytest.approx(math.log(math.sinh(1.0)))
        assert fn.value(0.0) == -math.inf

    def test_quadratic_linear(self):
        q = library("quadratic", P11, c=2.0)
        assert q.value(3.0) == pytest.approx(9.0)
        lin = library("linear", P01, a=1.0)
        assert lin.value(0.0) == 0.0  # closed left endpoint
        assert lin.space.contains(0.0)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_quadratic_dimension_below_one(self, dim):
        with pytest.raises(ParamOutOfRange, match="n must be >= 1"):
            library("quadratic", P11, dim=dim)

    def test_sign_guards(self):
        with pytest.raises(IncompatibleSign):
            library("log-cos", P11)
        with pytest.raises(IncompatibleSign):
            library("log-cosh", PM11)
        with pytest.raises(IncompatibleSign):
            library("log-x", P11)

    def test_scaled_frequency_domain(self):
        p = CurvatureParams(-2.0, -0.5)  # omega = 2
        fn = library("log-cos", p)
        half = 0.25 * math.pi
        assert fn.space == Interval(-half, half)
        assert fn.value(0.5) == pytest.approx(-p.N * math.log(math.cos(2 * 0.5)))

    def test_outside_closure_raises(self):
        fn = library("log-x", P01)
        with pytest.raises(PointOutsideSpace):
            fn.value(-1.0)
        for x in ([1.0], np.array([[1.0]])):  # an interval's points are scalars
            with pytest.raises(PointOutsideSpace):
                library("log-cosh", P11).value(x)


class TestLogDomain:
    def test_conventions(self):
        fn = library("log-x", P01)
        assert log_fN(fn, P01, 2.0) == pytest.approx(math.log(2.0))
        assert fN_values(fn, P01, [2.0])[0] == pytest.approx(2.0)
        # closure boundary
        assert log_fN(fn, P01, 0.0) == -math.inf
        assert fN_values(fn, P01, [0.0])[0] == 0.0

    def test_lower_semicontinuity_spot_check(self):
        # liminf of f over converging sample sequences >= f at the limit
        cases = [
            (library("log-x", P01), [0.0, 0.5, 2.0]),
            (library("log-cos", PM11), [0.3, math.pi / 2]),
            (library("log-sinh", P11), [0.0, 1.0]),
        ]
        for fn, limits in cases:
            for x in limits:
                for side in (+1.0, -1.0):
                    seq = [x + side * 2.0 ** -k for k in range(4, 30)
                           if fn.space.contains(x + side * 2.0 ** -k)]
                    if not seq:
                        continue
                    tail = [fn.value(z) for z in seq[-8:]]
                    assert min(tail) >= fn.value(x) - 1e-6, (fn.name, x, side)


class TestTransform:
    def test_infinite_conventions(self):
        fn = Functional(
            space=Interval(),
            fvec=lambda x: np.where(x > 0, math.inf, np.where(x < 0, -math.inf, 0.0)),
            name="step",
        )
        assert fN_values(fn, P01, [1.0])[0] == math.inf
        assert fN_values(fn, P01, [-1.0])[0] == 0.0
        assert log_fN(fn, P01, -1.0) == -math.inf

    def test_ratio_closed_form(self):
        fn = library("log-x", P01)
        assert fN_ratio_values(fn, P01, [1.0], 2.0)[0] == pytest.approx(0.5)
        assert fN_ratio_values(fn, P01, [2.0], 2.0)[0] == 1.0

    def test_ratio_infinite_numerator(self):
        fn = Functional(
            space=Interval(),
            fvec=lambda x: np.where(x > 0, math.inf, 0.0),
            name="halfinf",
        )
        assert fN_ratio_values(fn, P01, [1.0], -1.0)[0] == math.inf

    def test_ratio_base_must_be_finite(self):
        fn = library("log-x", P01)
        with pytest.raises(BasePointOutsideDomain):
            fN_ratio_values(fn, P01, [1.0], 0.0)

    def test_ratio_no_overflow_for_very_negative_f(self):
        # f(y) = -3000 would overflow exp(3000) in the linear domain
        fn = Functional(space=Interval(), fvec=lambda x: -1500.0 * (x + 2), name="steep")
        r = fN_ratio_values(fn, P01, [-1.0], -1.001)[0]
        assert r == pytest.approx(math.exp(-1500 * 0.001), rel=1e-9)

    def test_vectorized_ratio(self):
        fn = library("log-x", P01)
        zs = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(fN_ratio_values(fn, P01, zs, 2.0),
                                   [0.25, 0.5, 2.0])


class TestFnFunctional:
    def test_log_cos_becomes_cos(self):
        fn = library("log-cos", PM11)
        g = fN_functional(fn, PM11)
        assert g.value(0.3) == pytest.approx(math.cos(0.3))
        assert g.grad(0.3) == pytest.approx(-math.sin(0.3))

    def test_log_cosh_becomes_cosh(self):
        fn = library("log-cosh", P11)
        g = fN_functional(fn, P11)
        assert g.value(0.5) == pytest.approx(math.cosh(0.5))
        assert g.grad(0.5) == pytest.approx(math.sinh(0.5))

    def test_log_x_becomes_identity(self):
        fn = library("log-x", P01)
        g = fN_functional(fn, P01)
        assert g.value(1.7) == pytest.approx(1.7)
        assert g.grad(1.7) == pytest.approx(1.0)


_EPS = 2.0 ** -52
PW = CurvatureParams(6.25, -1.0)  # w = 2.5, exact as a double
PMW = CurvatureParams(-6.25, -1.0)


def _mp_f(name, p):
    """(f, f') of a library functional in mpmath, with its w."""
    N, w = mp.mpf(p.N), mp.sqrt(abs(mp.mpf(p.K) / p.N))
    inner = {"log-x": (lambda x: x, lambda x: 1 / x),
             "log-cosh": (lambda x: mp.cosh(w * x), lambda x: w * mp.tanh(w * x)),
             "log-sinh": (lambda x: mp.sinh(w * x), lambda x: w / mp.tanh(w * x)),
             "log-cos": (lambda x: mp.cos(w * x), lambda x: -w * mp.tan(w * x))}[name]
    return (lambda x: -N * mp.log(inner[0](x))), (lambda x: -N * inner[1](x))


def _check_second(got, grad, x, gap, dps=60):
    """got against f''(x), the mp.diff of the mpmath f' with a step far
    inside gap, the distance to the nearest pole of f': a few ulps of f'',
    plus the rounding of the argument w*x, which moves f'' by eps |x f'''|.
    Where tanh or coth is 1 - O(e^-2y), dps must exceed y digits."""
    with mp.workdps(dps):
        h = mp.mpf(gap) * mp.mpf("1e-25")
        ref = mp.diff(grad, mp.mpf(x), h=h)
        third = mp.diff(grad, mp.mpf(x), 2, h=h)
        if not math.isfinite(float(ref)):  # f'' itself overflows
            assert got == float(ref), (x, got)
            return
        bound = 8 * _EPS * abs(ref) + 4 * _EPS * abs(x * third) + 1e-300
        assert math.isfinite(got) and abs(got - ref) <= bound, (x, got, float(ref))


class TestSecondDerivative:
    """hess is the second derivative as a float on intervals and the Hessian
    on R^n; checked against the mpmath derivative of the gradient, near the
    poles of the gradient and where cosh and sinh overflow (w|x| > 710)."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([P11, PW]), st.floats(-400.0, 400.0))
    def test_log_cosh(self, p, x):
        _check_second(library("log-cosh", p).hess(x), _mp_f("log-cosh", p)[1], x, 1.0,
                      60 + int(p.omega * abs(x)))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([P11, PW]), st.floats(-150.0, 2.65))
    def test_log_sinh_near_zero_and_past_overflow(self, p, u):
        x = 10.0 ** u  # w x from 1e-150 to 1100
        _check_second(library("log-sinh", p).hess(x), _mp_f("log-sinh", p)[1], x, x,
                      60 + int(p.omega * x))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([P01, CurvatureParams(0.0, -2.5)]), st.floats(-150.0, 150.0))
    def test_log_x_near_zero(self, p, u):
        x = 10.0 ** u
        _check_second(library("log-x", p).hess(x), _mp_f("log-x", p)[1], x, x)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([PM11, PMW]), st.floats(-15.0, 0.0), st.sampled_from([-1, 1]))
    def test_log_cos_near_the_ends(self, p, u, sign):
        fn = library("log-cos", p)
        x = sign * max(fn.space.b - 10.0 ** u * fn.space.b, 0.0)
        gap = float(mp.pi / (2 * mp.sqrt(mp.mpf(p.K) / p.N)) - abs(mp.mpf(x)))
        _check_second(fn.hess(x), _mp_f("log-cos", p)[1], x, gap)

    def test_overflow_ends(self):
        # f'' of log-x overflows to -inf at 1e-200 (no ZeroDivisionError);
        # sech^2 and csch^2 underflow to 0 where cosh and sinh overflow
        assert library("log-x", P01).hess(1e-200) == -math.inf
        assert library("log-cosh", P11).hess(800.0) == 0.0
        assert library("log-sinh", P11).hess(800.0) == 0.0
        assert library("log-sinh", P11).hess(1e-200) == -math.inf

    def test_plumbing_examples(self):
        assert library("quadratic", P11, c=2.5).hess(-7.0) == 2.5
        assert library("linear", P01, a=3.0).hess(1.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("log-x", P01, 0.05, 20.0), ("log-cosh", PW, -3.0, 3.0),
                            ("log-sinh", PW, 0.05, 3.0), ("log-cos", PMW, -0.6, 0.6)]),
           st.floats(0.0, 1.0))
    def test_fN_chain_rule(self, case, frac):
        # g = f_N = exp(-f/N) and g'' = -(g/N) (f'' - f'^2/N), whose
        # difference rounds at eps (|f''| + f'^2/|N|) times |g/N|
        name, p, lo, hi = case
        x = lo + frac * (hi - lo)
        f, df = _mp_f(name, p)
        N = mp.mpf(p.N)
        got = fN_functional(library(name, p), p).hess(x)
        assert isinstance(got, float)
        with mp.workdps(60):
            mx, h = mp.mpf(x), mp.mpf("1e-25")

            def dg(t):
                return -mp.exp(-f(t) / N) / N * df(t)

            ref = mp.diff(dg, mx, h=h)
            scale = abs(mp.exp(-f(mx) / N) / N) * (abs(mp.diff(df, mx, h=h))
                                                  + df(mx) ** 2 / abs(N))
            bound = 8 * _EPS * scale + 4 * _EPS * abs(mx * mp.diff(dg, mx, 2, h=h))
            assert abs(got - ref) <= bound, (name, x, got, float(ref))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2), st.floats(0.2, 3.0))
    def test_fN_hessian_on_the_plane(self, xy, c):
        p = CurvatureParams(1.0, -2.5)
        x = np.array(xy)
        got = fN_functional(library("quadratic", p, c=c, dim=2), p).hess(x)
        assert got.shape == (2, 2)
        with mp.workdps(60):
            N, r2 = mp.mpf(p.N), float(x @ x)

            def dg(i, pt):  # d/dx_i of exp(-c |x|^2 / (2N))
                return -mp.exp(-c * (pt[0] ** 2 + pt[1] ** 2) / (2 * N)) / N * c * pt[i]

            scale = abs(mp.exp(-c * r2 / (2 * N)) / N) * (c + c * c * r2 / abs(N))
            for i in range(2):
                for j in range(2):
                    e = [0, 0]
                    e[j] = 1
                    ref = mp.diff(lambda t: dg(i, [mp.mpf(x[0]) + e[0] * t,
                                                   mp.mpf(x[1]) + e[1] * t]),
                                  0, h=mp.mpf("1e-25"))
                    assert abs(got[i, j] - ref) <= 16 * _EPS * scale, (i, j)

    def test_fN_without_base_hess_has_none(self):
        fn = Functional(space=Interval(), fvec=lambda x: x * x, name="square",
                        grad=lambda x: 2.0 * x)
        assert fN_functional(fn, P11).grad is not None
        assert fN_functional(fn, P11).hess is None

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3.0, 3.0))
    def test_fN_of_an_expression(self, x):
        # log(cosh(x)) is the log-cosh library functional at (K, N) = (1, -1);
        # f_N = cosh x, whose f'' goes through the chain rule either way.  The
        # expression's f'' = 1 - tanh^2 x cancels, but f'' + f'^2 is about 1:
        # 5 ulps at most over 1e5 uniform draws
        got = fN_functional(expression_functional("log(cosh(x))"), P11).hess(x)
        want = fN_functional(library("log-cosh", P11), P11).hess(x)
        assert isinstance(got, float) and abs(got - want) <= 8 * math.ulp(want), (x, got, want)


class TestDirectionalDerivative:
    def test_quadratic_toward_origin(self):
        fn = library("quadratic", P11, c=1.0)
        g = geodesic(fn.space, 1.0, 0.0)
        assert directional_derivative(fn, g) == pytest.approx(-1.0, abs=1e-5)

    def test_constant(self):
        fn = Functional(space=Interval(), fvec=lambda x: np.zeros_like(x), name="const")
        g = geodesic(fn.space, 0.0, 1.0)
        assert directional_derivative(fn, g) == pytest.approx(0.0, abs=1e-12)

    def test_log_x(self):
        fn = library("log-x", P01)
        g = geodesic(fn.space, 1.0, 2.0)
        assert directional_derivative(fn, g) == pytest.approx(1.0, abs=1e-5)

    def test_base_point_must_be_finite(self):
        fn = library("log-sinh", P11)
        g = geodesic(Interval(-1, 10), 0.0, 1.0)
        with pytest.raises(BasePointOutsideDomain):
            directional_derivative(fn, g)

    def test_chain_rule(self):
        # derivative of the transform = -(1/N) f_N(x0) * derivative of f
        rng = np.random.default_rng(3)
        cases = [
            (library("log-cos", PM11), PM11),
            (library("log-cosh", P11), P11),
            (library("log-x", P01), P01),
        ]
        for fn, p in cases:
            gN = fN_functional(fn, p)
            lo, hi = fn.sample_box
            pad = 0.05 * (hi - lo)  # liminf estimator error grows with f''
            for _ in range(20):
                x0, x1 = rng.uniform(lo + pad, hi - pad, size=2)
                if x0 == x1:
                    continue
                g = geodesic(fn.space, x0, x1)
                lhs = directional_derivative(gN, g)
                rhs = (-1.0 / p.N) * fN_values(fn, p, [x0])[0] \
                    * directional_derivative(fn, g)
                assert lhs == pytest.approx(rhs, rel=5e-3, abs=1e-4)

    def test_infinite_step_is_out_of_range(self):
        fn = library("log-x", P01)
        with pytest.raises(ParamOutOfRange):
            directional_derivative(fn, geodesic(fn.space, 1.0, 2.0), t0=math.inf)

    def test_nan_step_is_out_of_range(self):
        fn = library("log-x", P01)
        with pytest.raises(ParamOutOfRange):
            directional_derivative(fn, geodesic(fn.space, 1.0, 2.0), t0=math.nan)

    def test_step_below_h_min_underflows(self):
        # as in forward_upper_derivative: the base point is fine, the step
        # is too small
        from knflow.errors import StepUnderflow
        fn = library("log-x", P01)
        with pytest.raises(StepUnderflow):
            directional_derivative(fn, geodesic(fn.space, 1.0, 2.0), t0=1e-9)

    def test_liminf_uses_small_steps(self):
        # kink at t=0.1 along the segment: the early quotient is larger
        fn = Functional(
            space=Interval(),
            fvec=lambda x: np.maximum(x - 0.1, 0.0),
            name="hinge",
        )
        g = geodesic(fn.space, 0.0, 1.0)
        assert directional_derivative(fn, g, Tolerance()) == pytest.approx(0.0, abs=1e-9)


class TestExpressionGrammar:
    def test_log_cos_expression(self):
        fn = expression_functional("log(cos(x))", Interval(-1.5707, 1.5707))
        assert fn.value(0.3) == pytest.approx(math.log(math.cos(0.3)))

    def test_constants_and_pow(self):
        fn = expression_functional("pow(x, 2)/2 + pi*0", Interval())
        assert fn.value(3.0) == pytest.approx(4.5)

    def test_batch_and_scalar_agree(self):
        fn = expression_functional("exp(x) - sinh(x) - cosh(x)", Interval())
        xs = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(fn.values(xs), np.zeros(7), atol=1e-12)

    def test_log_zero_is_neg_inf(self):
        fn = expression_functional("log(x)", Interval(0, math.inf))
        assert fn.value(0.0) == -math.inf

    def test_pow_off_domain_is_pos_inf(self):
        fn = expression_functional("pow(x,0.5)", Interval(-1, 1))
        np.testing.assert_array_equal(fn.values([-0.5, 0.25]), [math.inf, 0.5])
        assert fn.value(-0.5) == math.inf
        assert expression_functional("x**1.5", Interval()).value(-2.0) == math.inf

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
           st.floats(-4.0, 4.0))
    def test_pow_negative_base_fractional_exponent(self, xs, b):
        fn = expression_functional(f"pow(x, {b!r})", Interval())
        xs = np.array(xs)
        off = (xs < 0) & (b != math.floor(b))
        got = fn.values(xs)
        assert (got[off] == math.inf).all()
        with np.errstate(divide="ignore", over="ignore"):
            np.testing.assert_array_equal(got[~off], np.power(xs[~off], b))

    def test_multivariate(self):
        fn = expression_functional("x1*x1 + x2*x2", EuclideanRn(2))
        assert fn.value(np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_rejects_attribute_access(self):
        with pytest.raises(ExpressionError):
            expression_functional("x.__class__", Interval())

    def test_rejects_unknown_function(self):
        with pytest.raises(ExpressionError):
            expression_functional("tan(x)", Interval())

    def test_rejects_unknown_name(self):
        with pytest.raises(ExpressionError):
            expression_functional("x + y", Interval())

    @pytest.mark.parametrize("expr", ["-" * 1000 + "x", "x" + "+x" * 1000,
                                      "-" * 10000 + "x"],
                             ids=["unary-1000", "sum-1000", "unary-10000"])
    def test_rejects_deep_nesting(self, expr):
        with pytest.raises(ExpressionError):
            expression_functional(expr, Interval())

    def test_rejects_integer_constant_too_large_for_a_float(self):
        with pytest.raises(ExpressionError):
            expression_functional("x + 1" + "0" * 400, Interval())

    def test_shallower_nesting_still_parses(self):
        assert expression_functional("-" * 900 + "x").value(2.0) == 2.0
        assert expression_functional("x" + "+x" * 900).value(1.0) == 901.0

    def test_deep_evaluation_raises_expression_error(self):
        # compiles at the top of the stack, overflows it when evaluated
        # from a deeper caller
        for depth in range(1000, 0, -5):
            try:
                deepest = expression_functional("x" + "+x" * depth)
                break
            except ExpressionError:
                pass

        def nested(n):
            return nested(n - 1) if n else deepest.values([1.0])
        with pytest.raises(ExpressionError):
            nested(50)


_LEAVES = st.one_of(
    st.sampled_from(["x", "pi", "e", "0", "1", "2"]),
    st.integers(0, 2**70).map(str),
    st.floats(0.0, allow_infinity=False).map(repr),
)


def _nodes(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "**"]), sub)
        .map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        sub.map(lambda a: f"-({a})"),
        st.tuples(st.sampled_from(["log", "exp", "sin", "cos", "sinh", "cosh"]),
                  sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"pow({t[0]}, {t[1]})"),
    )


_POINTS = st.lists(st.one_of(st.just(0.0), st.just(-0.0),
                             st.floats(-10.0, 10.0),
                             st.floats(allow_nan=False, allow_infinity=False)),
                   min_size=1, max_size=6)


def _outcome(call):
    """A call's value, or None when it raised a knflow error."""
    try:
        return call()
    except KNFlowError:
        return None


class TestGrammarFuzz:
    """Random trees over every node of the grammar, evaluated at finite
    points: only knflow errors escape and no NaN is returned."""

    @settings(max_examples=400, deadline=None)
    @given(st.recursive(_LEAVES, _nodes, max_leaves=12), _POINTS)
    # constants are Python floats, which raise ZeroDivisionError where numpy
    # returns inf: no rule may divide one, or raise it to a power, eagerly
    @example("(x) / (0)", [0.0, 1.0, -2.5])
    @example("-(-(pow(0, x)))", [0.0, 1.0, -2.5])
    @example("(2) / ((x) * (0))", [0.0, 1.0])
    def test_only_knflow_errors_and_no_nan(self, expr, xs):
        fn = _outcome(lambda: expression_functional(expr, Interval()))
        if fn is None:
            return
        batch = _outcome(lambda: fn.values(np.array(xs)))
        assert batch is None or not np.isnan(batch).any()
        for x in xs:
            one = _outcome(lambda: fn.values(np.array([x])))
            v = _outcome(lambda: fn.value(x))
            assert (v is None) == (one is None), (expr, x)
            if v is not None:
                assert not math.isnan(v) and v == one[0], (expr, x)
            d = _outcome(lambda: fn.grad(x))
            assert d is None or not math.isnan(d), (expr, x)
            h = _outcome(lambda: fn.hess(x))
            assert h is None or isinstance(h, float) and not math.isnan(h), (expr, x)


# (expression, mpmath twin, domain of x) for each grammar rule
_GRAMMAR = [
    ("log(x)", mp.log, (0.1, 5.0)),
    ("exp(x)", mp.exp, (-5.0, 5.0)),
    ("sin(x)", mp.sin, (-5.0, 5.0)),
    ("cos(x)", mp.cos, (-5.0, 5.0)),
    ("sinh(x)", mp.sinh, (-5.0, 5.0)),
    ("cosh(x)", mp.cosh, (-5.0, 5.0)),
    ("pow(x, 2)", lambda x: x ** 2, (-5.0, 5.0)),
    ("x**3 - 2*x", lambda x: x ** 3 - 2 * x, (-5.0, 5.0)),
    ("pow(x, 0.5)", mp.sqrt, (0.1, 5.0)),
    ("pow(2, x)", lambda x: mp.mpf(2) ** x, (-5.0, 5.0)),
    ("pow(x, x)", lambda x: x ** x, (0.1, 3.0)),
    ("1/x + x/3", lambda x: 1 / x + x / 3, (0.1, 5.0)),
    ("-x*exp(-x)", lambda x: -x * mp.exp(-x), (-5.0, 5.0)),
    ("+x - 7", lambda x: x - 7, (-5.0, 5.0)),
    ("log(cosh(2*x)) - sin(x)/cos(x)",
     lambda x: mp.log(mp.cosh(2 * x)) - mp.sin(x) / mp.cos(x), (-1.5, 1.5)),
]


class TestForwardMode:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(_GRAMMAR), st.floats(0.0, 1.0))
    def test_matches_mpmath_diff(self, case, u):
        expr, twin, (lo, hi) = case
        x = lo + (hi - lo) * u
        fn = expression_functional(expr, Interval())
        ref = float(mp.diff(twin, mp.mpf(x)))
        assert fn.grad(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_pow_tangent_at_negative_base(self):
        fn = expression_functional("pow(x, 2)/2", Interval())
        assert fn.grad(-1.5) == -1.5
        assert expression_functional("x**2", Interval()).grad(-3.0) == -6.0

    def test_constant_expression_has_zero_gradient(self):
        assert expression_functional("pi*0 + 2", Interval()).grad(1.0) == 0.0
        fn = expression_functional("e", EuclideanRn(3))
        np.testing.assert_array_equal(fn.grad(np.ones(3)), np.zeros(3))

    def test_rn_tangent_is_a_vector(self):
        fn = expression_functional("x1*x1 + sin(x2)*x1", EuclideanRn(2))
        x1, x2 = 0.7, -1.3
        np.testing.assert_allclose(
            fn.grad(np.array([x1, x2])),
            [2 * x1 + math.sin(x2), x1 * math.cos(x2)], rtol=1e-14)
        # the returned gradient does not alias the forward-mode seeds
        g = fn.grad(np.array([1.0, 0.0]))
        g[:] = 99.0
        assert fn.grad(np.array([1.0, 0.0]))[1] == pytest.approx(1.0)

    def test_nan_gradient_raises(self):
        fn = expression_functional("pow(x, x)", Interval())
        with pytest.raises(NanError):
            fn.grad(-0.5)

    @pytest.mark.parametrize("expr, twin, box", _GRAMMAR, ids=[c[0] for c in _GRAMMAR])
    @settings(max_examples=20, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_hessian_matches_mpmath_diff(self, expr, twin, box, u):
        x = box[0] + (box[1] - box[0]) * u
        got = expression_functional(expr, Interval()).hess(x)
        with mp.workdps(30):
            ref = float(mp.diff(twin, mp.mpf(x), 2))
        assert isinstance(got, float)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-11)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_rn_hessian_matches_mpmath_partials(self, x1, x2, x3):
        expr = "pow(x1, x2) + sin(x1*x3) / (x2*x2 + 1) - x3*x3*x2"

        def twin(a, b, c):
            return a ** b + mp.sin(a * c) / (b * b + 1) - c * c * b

        x = np.array([x1, x2, x3])
        H = expression_functional(expr, EuclideanRn(3)).hess(x)
        assert H.shape == (3, 3) and (H == H.T).all()  # exactly symmetric
        with mp.workdps(30):
            for i in range(3):
                for j in range(3):
                    order = [0, 0, 0]
                    order[i] += 1
                    order[j] += 1
                    ref = float(mp.diff(twin, tuple(map(mp.mpf, x)), tuple(order)))
                    assert H[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-12), (i, j)

    def test_constant_expression_has_zero_hessian(self):
        got = expression_functional("pi*0 + 2", Interval()).hess(1.0)
        assert isinstance(got, float) and got == 0.0
        H = expression_functional("e", EuclideanRn(3)).hess(np.ones(3))
        assert H.shape == (3, 3) and (H == 0.0).all()

    def test_hessian_nan_raises_and_inf_passes(self):
        # NaN raises as the gradient's does; +-inf goes to the solvers
        with pytest.raises(NanError, match="Hessian of expr:pow"):
            expression_functional("pow(x, x)", Interval()).hess(-0.5)
        assert expression_functional("log(x)", Interval()).hess(1e-200) == -math.inf
        assert expression_functional("x*x/2 + log(x - 0.3)").hess(0.3) == -math.inf

    def test_values_unchanged_by_tangents(self):
        fn = expression_functional("log(x)*x - pow(x, 3)/2", Interval(0, math.inf))
        xs = np.linspace(0.1, 3.0, 50)
        expected = np.log(xs) * xs - np.power(xs, 3.0) / 2.0
        assert np.array_equal(fn.values(xs), expected)


class TestLogHyperbolicOverflow:
    """log-cosh / log-sinh where cosh and sinh overflow (w|x| > 710)."""

    P = CurvatureParams(1.0, -1e-3)
    W = math.sqrt(1000.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(720.0, 2000.0), st.sampled_from([-1.0, 1.0]))
    def test_matches_mpmath(self, y, sign):
        x = sign * y / self.W
        wx = mp.sqrt(mp.mpf(1000)) * mp.mpf(x)
        with mp.workdps(40):
            ref_cosh = float(-self.P.N * mp.log(mp.cosh(wx)))
            ref_sinh = float(-self.P.N * mp.log(mp.sinh(abs(wx))))
        assert library("log-cosh", self.P).value(x) == pytest.approx(ref_cosh, rel=1e-13)
        assert library("log-sinh", self.P).value(abs(x)) == pytest.approx(ref_sinh,
                                                                           rel=1e-13)

    def test_entries_without_overflow_unchanged(self):
        xs = np.linspace(-700.0, 700.0, 101) / self.W
        np.testing.assert_array_equal(library("log-cosh", self.P).values(xs),
                                      -self.P.N * np.log(np.cosh(self.W * xs)))
        pos = np.abs(xs)
        with np.errstate(divide="ignore"):
            expected = -self.P.N * np.log(np.sinh(self.W * pos))
        np.testing.assert_array_equal(library("log-sinh", self.P).values(pos), expected)


def _log_pos_three_branch(v):
    """The earlier formula: log of the positive entries, then -inf at 0
    and +inf elsewhere."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.where(v > 0, v, 1.0))
    return np.where(v > 0, out, np.where(v == 0, -math.inf, math.inf))


LOG_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             2.225073858507201e-308, -2.225073858507201e-308, 1.0, -1.0,
             1.7976931348623157e308, math.inf, -math.inf, math.nan]


class TestLogPos:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(LOG_EDGES), st.floats()),
                    max_size=40))
    def test_bit_identical_to_three_branch_formula(self, xs):
        v = np.array(xs, dtype=float)
        new, old = _log_pos(v), _log_pos_three_branch(v)
        assert new.shape == old.shape and new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("x", LOG_EDGES)
    def test_scalar_edges(self, x):
        new, old = _log_pos(x), _log_pos_three_branch(x)
        assert new.shape == () and new.tobytes() == old.tobytes()
        assert not math.isnan(float(new))


def _reference_pair(expr, space):
    """The interval and the R^n (fvec, grad) closures of the expression,
    written out separately as they were before one pair served both."""
    one_d = isinstance(space, Interval)
    var_names = {"x"} if one_d else {f"x{i + 1}" for i in range(space.n)}
    body = _compile_node(ast.parse(expr, mode="eval"), var_names)
    where = f"gradient of expr:{expr}"

    def evaluate(env):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return body(env)

    if one_d:
        def fvec(xs):
            xs = np.asarray(xs, dtype=float)
            v, _, _ = evaluate({"x": (xs, None, None)})
            return np.broadcast_to(np.asarray(v, dtype=float), xs.shape).copy()

        def grad(x):
            _, dv, _ = evaluate({"x": (np.float64(x), np.float64(1.0), None)})
            return 0.0 if dv is None else require_not_nan(float(dv), where)
        return fvec, grad
    n, basis = space.n, np.eye(space.n)

    def fvec(xs):
        arr = np.asarray(xs, dtype=float)
        v, _, _ = evaluate({f"x{i + 1}": (arr[..., i], None, None) for i in range(n)})
        return np.broadcast_to(np.asarray(v, dtype=float), arr.shape[:-1]).copy()

    def grad(x):
        x = np.asarray(x, dtype=float)
        _, dv, _ = evaluate({f"x{i + 1}": (x[i], basis[i], None) for i in range(n)})
        if dv is None:
            return np.zeros(n)
        return require_not_nan(np.array(dv, dtype=float), where)
    return fvec, grad


_PARITY_1D = ["x", "x*x - 3*x", "pow(x, 2)/2", "pow(x, 0.5)", "pow(x*x, 0.5)",
              "log(x)", "exp(x)", "sin(x)/x", "cosh(x) - sinh(x)", "1/x",
              "pow(2, x) * cos(x)", "pi*0 + 2"]
_PARITY_RN = ["x1*x1 + x2*x2", "x1*x2 - sin(x2)", "log(x1) + exp(x2)",
              "pow(x1, x2)", "sin(x1)*cos(x2)/x1", "e"]
_SPECIAL = [0.0, -0.0, 1e300, -1e300, 1e-300, 1.0, -1.0]


class TestOneForwardModePair:
    """The one (fvec, grad) pair of both spaces is bit for bit the two
    pairs it replaced: values, gradients, NaN errors and constants."""

    @staticmethod
    def _same(got, want):
        if isinstance(want, Exception):
            assert isinstance(got, type(want)) and str(got) == str(want)
        else:
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @staticmethod
    def _call(f, x):
        try:
            return f(x)
        except NanError as exc:
            return exc

    @pytest.mark.parametrize("expr", _PARITY_1D)
    def test_interval(self, expr):
        fn = expression_functional(expr, Interval())
        fvec, grad = _reference_pair(expr, Interval())
        xs = np.concatenate([_SPECIAL, np.random.default_rng(3).normal(0, 3, 20)])
        self._same(fn.fvec(xs), fvec(xs))
        self._same(fn.fvec(xs.reshape(3, 9)), fvec(xs.reshape(3, 9)))
        for x in xs:
            self._same(self._call(fn.grad, x), self._call(grad, x))

    @pytest.mark.parametrize("expr", _PARITY_RN)
    def test_plane(self, expr):
        sp = EuclideanRn(2)
        fn = expression_functional(expr, sp)
        fvec, grad = _reference_pair(expr, sp)
        rng = np.random.default_rng(4)
        xs = np.concatenate([np.array([[u, v] for u in _SPECIAL for v in _SPECIAL[:3]]),
                             rng.normal(0, 3, (15, 2))])
        self._same(fn.fvec(xs), fvec(xs))
        for x in xs:
            self._same(self._call(fn.grad, x), self._call(grad, x))

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from knflow import convexity
from knflow.coefficients import CurvatureParams
from knflow.convexity import (
    check_gluing,
    check_kn_convex,
    check_lambda_convex,
    check_lifting,
    lifted_modulus,
    sampling_box,
)
from knflow.core import SampleSpec, Tolerance
from knflow.errors import BadBracket, EmptyDomain, ParamOutOfRange, UnboundedAbove
from knflow.functionals import (Functional, expression_functional, fN_functional,
                                library)
from knflow.spaces import EuclideanRn, Interval

P01 = CurvatureParams(0.0, -1.0)
P11 = CurvatureParams(1.0, -1.0)
PM11 = CurvatureParams(-1.0, -1.0)
SPEC = SampleSpec(seed=101, count=500)
TOL = Tolerance()


class TestLambdaConvex:
    def test_quadratic_exactly_one_convex(self):
        fn = library("quadratic", P11, c=1.0)
        rep = check_lambda_convex(fn, 1.0, SPEC, TOL)
        assert rep.passed
        # equality along every segment: raw residual at roundoff scale
        assert abs(rep.max_residual) < 1e-10

    def test_quadratic_fails_stronger_modulus(self):
        fn = library("quadratic", P11, c=1.0)
        rep = check_lambda_convex(fn, 1.5, SPEC, TOL)
        assert not rep.passed
        x0, x1, t = rep.witness
        # witness reproduces the reported residual: (lam-1)/2 t(1-t) d^2
        expected = 0.25 * t * (1 - t) * (x1 - x0) ** 2
        gamma = (1 - t) * x0 + t * x1
        lhs = 0.5 * gamma**2
        chord = (1 - t) * 0.5 * x0**2 + t * 0.5 * x1**2 \
            - 0.75 * t * (1 - t) * (x0 - x1) ** 2
        assert lhs - chord == pytest.approx(expected, rel=1e-9)

    def test_cos_is_minus_one_convex(self):
        g = fN_functional(library("log-cos", PM11), PM11)
        rep = check_lambda_convex(g, -1.0, SPEC, TOL)
        assert rep.passed

    def test_report_json_shape(self):
        fn = library("quadratic", P11, c=1.0)
        d = check_lambda_convex(fn, 1.0, SPEC, TOL).to_json()
        assert d["kind"] == "lambda" and d["pass"] is True
        assert {"rows", "max_violation", "witness"} <= set(d)


class TestKnConvex:
    def test_log_x_passes(self):
        fn = library("log-x", P01)
        rep = check_kn_convex(fn, P01, SPEC, TOL)
        assert rep.passed

    def test_log_cos_equality_case(self):
        fn = library("log-cos", PM11)
        rep = check_kn_convex(fn, PM11, SPEC, TOL)
        assert rep.passed
        assert abs(rep.max_residual) < 1e-9  # equality up to roundoff

    def test_log_cosh_and_log_sinh_pass(self):
        for name in ("log-cosh", "log-sinh"):
            fn = library(name, P11)
            assert check_kn_convex(fn, P11, SPEC, TOL).passed

    def test_concave_quadratic_fails(self):
        fn = library("quadratic", P01, c=-1.0)
        rep = check_kn_convex(fn, P01, SPEC, TOL)
        assert not rep.passed
        # brute-force midpoint violation on x0=-1, x1=1: e^0 vs e^{-1/2}
        assert rep.max_violation > 0.1
        mid_gap = 1.0 - math.exp(-0.5)
        x0, x1, t = rep.witness
        assert rep.max_residual >= mid_gap - 0.05

    def test_scaling_law(self):
        # c*f is (cK, cN)-convex
        base = library("log-cos", PM11)
        c = 2.5
        scaled = Functional(
            space=base.space,
            fvec=lambda x: c * base.fvec(x),
            name="scaled-log-cos",
            sample_box=base.sample_box,
        )
        p_scaled = CurvatureParams(c * PM11.K, c * PM11.N)
        assert check_kn_convex(scaled, p_scaled, SPEC, TOL).passed

    def test_shift_law(self):
        base = library("log-x", P01)
        shifted = Functional(
            space=base.space,
            fvec=lambda x: base.fvec(x) + 7.0,
            name="shifted-log-x",
            sample_box=base.sample_box,
        )
        assert check_kn_convex(shifted, P01, SPEC, TOL).passed

    def test_parameter_monotonicity(self):
        # passing at (K, N) implies passing at K' <= K, N' in [N, 0)
        fn = library("log-cosh", P11)
        rng = np.random.default_rng(5)
        for _ in range(6):
            K2 = P11.K - rng.uniform(0, 2)
            N2 = -rng.uniform(0.05, 1.0)  # N2 in [-1, 0)
            p2 = CurvatureParams(K2, N2)
            assert check_kn_convex(fn, p2, SPEC, TOL).passed

    def test_k_convex_implies_kn_convex(self):
        fn = library("quadratic", P11, c=1.0)  # 1-convex
        for N in (-0.3, -1.0, -5.0):
            p = CurvatureParams(1.0, N)
            assert check_kn_convex(fn, p, SPEC, TOL).passed

    def test_singular_pairs_are_vacuous(self):
        # quadratic is 1-convex, hence (K,N)-convex for K<0 on all of R;
        # far-apart pairs fall in the singular regime and must not violate
        fn = library("quadratic", P11, c=1.0)
        fn = Functional(space=fn.space, fvec=fn.fvec, name=fn.name,
                        sample_box=(-8.0, 8.0))
        p = CurvatureParams(-1.0, -1.0)
        rep = check_kn_convex(fn, p, SPEC, TOL, enforce_cap=False)
        assert rep.passed

    def test_all_vacuous_report_has_no_witness(self):
        # one pair beyond the singular cap: every cell has right side +inf
        rep = check_kn_convex(library("quadratic", P11, c=1.0), PM11,
                              SampleSpec(0, 1), TOL, box=(-8.0, 8.0),
                              enforce_cap=False)
        assert rep.passed and rep.max_violation == -math.inf
        assert rep.witness is None
        assert rep.to_json()["witness"] is None

    def test_cap_enforced_for_negative_K(self):
        fn = library("log-cos", PM11)
        rep = check_kn_convex(fn, PM11, SPEC, TOL)
        x0, x1, _ = rep.witness
        assert abs(x1 - x0) < PM11.theta_singular


def _grid_max(n_rows, n_cols, block):
    """The grid kernel's maxima and worst cell, labelled by its indices."""
    rep = convexity._grid_report("grid", {}, n_rows, n_cols, block,
                                 lambda i, j: (i, j))
    return rep.max_violation, rep.max_residual, rep.witness


class TestNonFiniteResiduals:
    """A +inf or NaN residual on a tested cell fails; masked cells do not."""

    HOLE = Functional(space=Interval(-3.0, 3.0, open_a=False, open_b=False),
                      fvec=lambda x: np.where(np.abs(x) < 0.5, math.inf, 0.0),
                      name="hole", sample_box=(-3.0, 3.0))

    @staticmethod
    def _in_hole(rep):
        x0, x1, t = rep.witness
        return abs((1 - t) * x0 + t * x1) < 0.5

    def test_infinite_hole_fails_lambda_convexity(self):
        rep = check_lambda_convex(self.HOLE, 0.0, SPEC, TOL)
        assert not rep.passed
        assert rep.max_violation == math.inf and rep.max_residual == math.inf
        assert self._in_hole(rep)

    def test_infinite_hole_fails_kn_convexity(self):
        rep = check_kn_convex(self.HOLE, P01, SPEC, TOL)
        assert not rep.passed and rep.max_violation == math.inf
        assert self._in_hole(rep)

    def test_kernel_policy(self):
        residual = np.array([[0.5, math.nan, -1.0],
                             [math.inf, 2.0, math.nan]])
        keep = np.array([[True, False, True], [False, True, True]])

        def block(lo, hi):
            return residual[lo:hi], 1.0, keep[lo:hi]
        # the masked NaN and +inf are vacuous; the kept NaN at (1, 2) fails
        assert _grid_max(2, 3, block) == (math.inf, math.inf, (1, 2))
        keep[1, 2] = False
        assert _grid_max(2, 3, block) == (1.0, 2.0, (1, 1))
        keep[:] = False
        assert _grid_max(2, 3, block) == (-math.inf, -math.inf, None)

    def test_kernel_ties_go_to_the_first_cell(self, monkeypatch):
        residual = np.array([[0.0, 3.0], [3.0, 3.0], [1.0, 3.0]])

        def block(lo, hi):
            return residual[lo:hi], 0.0, True
        for cells in (1, 2, 3, 1 << 16):
            monkeypatch.setattr(convexity, "_BLOCK_CELLS", cells)
            assert _grid_max(3, 2, block) == (3.0, 3.0, (0, 1))


class TestConvMul:
    """The product of the (K,N) right-hand side, with 0*inf = inf*0 = 0."""

    def test_zero_times_inf_is_zero(self):
        assert convexity._conv_mul(0.0, math.inf) == 0.0

    def test_inf_times_zero_is_zero(self):
        assert convexity._conv_mul(math.inf, 0.0) == 0.0

    def test_half_times_four(self):
        assert convexity._conv_mul(0.5, 4.0) == 2.0

    def test_two_times_inf(self):
        assert convexity._conv_mul(2.0, math.inf) == math.inf

    @given(st.floats(0, 1e6), st.floats(0, 1e12), st.floats(0, 1e12))
    def test_monotone_in_value(self, c, a, b):
        lo, hi = sorted((a, b))
        assert convexity._conv_mul(c, lo) <= convexity._conv_mul(c, hi)


class TestGluing:
    def test_log_x_brackets(self):
        fn = library("log-x", P01)
        assert check_gluing(fn, P01, 0.5, 1.0, 1.5, 2.0)

    def test_log_cos_brackets(self):
        fn = library("log-cos", PM11)
        assert check_gluing(fn, PM11, -1.0, -0.3, 0.3, 1.0)

    def test_modified_outside_window_irrelevant(self):
        base = library("log-x", P01)
        def fvec(x):
            x = np.asarray(x, dtype=float)
            out = np.array(base.fvec(x), dtype=float, copy=True)
            return np.where(x > 2.5, out - 10.0 * (x - 2.5) ** 2, out)
        fn = Functional(space=base.space, fvec=fvec, name="patched",
                        sample_box=base.sample_box)
        assert check_gluing(fn, P01, 0.5, 1.0, 1.5, 2.0)

    def test_bad_bracket(self):
        fn = library("log-x", P01)
        for ends in [(0.5, 1.5, 1.0, 2.0), (-1.0, 1.0, 1.5, 2.0),
                     (0.5, 1.0, 1.5, math.inf)]:  # unordered, off the closure, infinite
            with pytest.raises(BadBracket):
                check_gluing(fn, P01, *ends)


class TestLifting:
    def test_log_x_transform_is_convex(self):
        fn = library("log-x", P01)
        rep = check_lifting(fn, P01, None, SPEC, TOL)
        assert rep.passed and rep.params["lambda"] == 0.0

    def test_log_cosh_transform_is_convex(self):
        fn = library("log-cosh", P11)
        assert check_lifting(fn, P11, None, SPEC, TOL).passed

    def test_log_sinh_transform_is_convex(self):
        fn = library("log-sinh", P11)
        assert check_lifting(fn, P11, None, SPEC, TOL).passed

    def test_log_cos_transform_modulus(self):
        fn = library("log-cos", PM11)
        assert lifted_modulus(PM11, 0.0) == pytest.approx(-1.0)
        rep = check_lifting(fn, PM11, 0.0, SPEC, TOL)
        assert rep.passed and rep.params["lambda"] == pytest.approx(-1.0)

    def test_unbounded_above_rejected(self):
        fn = library("log-cos", PM11)
        with pytest.raises(UnboundedAbove):
            check_lifting(fn, PM11, math.inf, SPEC, TOL)


class TestSamplingBox:
    def test_margin_applied_to_open_ends(self):
        fn = Functional(space=Interval(0.0, 2.0), fvec=lambda x: x, name="id")
        lo, hi = sampling_box(fn)
        assert lo == pytest.approx(1e-3) and hi == pytest.approx(2.0 - 1e-3)

    def test_infinite_ends_truncated(self):
        fn = Functional(space=Interval(), fvec=lambda x: x, name="id")
        lo, hi = sampling_box(fn)
        assert lo == -3.0 and hi == 3.0

    @pytest.mark.parametrize("box", [(2.0, 1.0), (1.0, 1.0), (math.nan, 1.0)])
    def test_reversed_or_degenerate_box_is_empty(self, box):
        fn = library("quadratic", P11, c=1.0)
        with pytest.raises(EmptyDomain):
            check_kn_convex(fn, P11, SPEC, TOL, box=box)
        with pytest.raises(EmptyDomain):
            check_lambda_convex(fn, 1.0, SPEC, TOL, box=box)
        with pytest.raises(EmptyDomain):
            sampling_box(fn, box)

    def test_reversed_sample_box_is_empty(self):
        from knflow.analysis import check_evi_kn
        from knflow.flows import oracle_flow, time_grid
        fn = replace(library("log-x", P01), sample_box=(3.0, 1.0))
        with pytest.raises(EmptyDomain):
            check_kn_convex(fn, P01, SPEC, TOL)
        curve = oracle_flow("log-x", P01, 1.0, time_grid(0.0, 0.2, 21))
        with pytest.raises(EmptyDomain):
            check_evi_kn(curve, fn, P01, "ii", SampleSpec(seed=1, count=30), TOL)

    def test_rn_box_needs_every_coordinate_ordered(self):
        fn = library("quadratic", P11, c=1.0, dim=2)
        with pytest.raises(EmptyDomain):
            check_lambda_convex(fn, 1.0, SPEC, TOL, box=([0.0, 1.0], [1.0, 1.0]))
        lo, hi = sampling_box(fn, ([0, -1], [1, 2]))
        assert lo.dtype == hi.dtype == float and lo.tolist() == [0.0, -1.0]

    @pytest.mark.parametrize("space, expr, want", [
        (Interval(-math.inf, -5.0), "(x+5)*(x+5)", (-6.001, -5.001)),
        (Interval(5.0, math.inf), "(x-5)*(x-5)", (5.001, 6.001)),
        (Interval(-math.inf, 10.0, open_b=False), "x*x", (-3.0, 10.0)),
        (Interval(-math.inf, -10.0, open_b=False), "x*x", (-11.0, -10.0)),
    ], ids=["left-unbounded", "right-unbounded", "left-unbounded-wide",
            "left-unbounded-far"])
    def test_default_box_on_half_lines_mirrors(self, space, expr, want):
        fn = expression_functional(expr, space)
        assert sampling_box(fn) == pytest.approx(want, abs=1e-12)
        assert check_lambda_convex(fn, 2.0, SPEC, TOL).passed
        assert not check_lambda_convex(fn, 2.5, SPEC, TOL).passed

    @pytest.mark.parametrize("space, box", [
        (EuclideanRn(2), ([0, 0, 0], [1, 1, 1])),
        (EuclideanRn(2), (0.0, 1.0)),
        (EuclideanRn(2), ([0.0], [1.0])),
        (EuclideanRn(2), ([0.0, 0.0], [1.0])),
        (EuclideanRn(2), ([0, 0], [1, 1], [2, 2])),
        (Interval(), ([0, 0], [1, 1])),
        (Interval(), (0.0, 1.0, 2.0)),
        (Interval(), ("a", "b")),
    ], ids=["r3-box-on-r2", "scalar-box-on-r2", "r1-box-on-r2", "ragged-box",
            "three-corners", "r2-box-on-interval", "three-ends", "strings"])
    def test_box_of_another_shape_is_rejected(self, space, box):
        expr = "x*x" if isinstance(space, Interval) else "x1*x1 + x2*x2"
        fn = expression_functional(expr, space)
        with pytest.raises(ParamOutOfRange, match="pair of points"):
            check_lambda_convex(fn, 2.0, SPEC, TOL, box=box)
        with pytest.raises(ParamOutOfRange, match="pair of points"):
            check_kn_convex(replace(fn, sample_box=box), P11, SPEC, TOL)

    def test_determinism(self):
        fn = library("log-x", P01)
        r1 = check_kn_convex(fn, P01, SPEC, TOL)
        r2 = check_kn_convex(fn, P01, SPEC, TOL)
        assert r1.max_violation == r2.max_violation
        assert r1.witness == r2.witness

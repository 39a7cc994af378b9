import ast
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from knflow.errors import ConfigInvalid, ParamOutOfRange, PointOutsideSpace
from knflow.spaces import (
    EuclideanRn,
    Interval,
    dist,
    geodesic,
    geodesic_eval,
    space_from_json,
)


class TestInterval:
    def test_membership_open_ends(self):
        sp = Interval(0.0, math.inf)
        assert sp.contains(0.5) and not sp.contains(0.0)
        assert sp.closure_point(0.0) == 0.0
        assert not sp.contains(-1.0)

    def test_membership_closed_end(self):
        sp = Interval(0.0, math.inf, open_a=False)
        assert sp.contains(0.0)

    def test_order_validation(self):
        with pytest.raises(ParamOutOfRange):
            Interval(1.0, 1.0)

    @pytest.mark.parametrize("sp", [
        Interval(), Interval(0.0, math.inf, open_a=False),
        Interval(-math.inf, math.inf, False, False), Interval(-1.0, 1.0, False, False),
    ], ids=["open-line", "closed-at-0", "flags-closed-line", "closed-bounded"])
    def test_nan_and_infinities_are_not_members(self, sp):
        for x in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
            assert not sp.contains(x)
            with pytest.raises(PointOutsideSpace):
                sp.closure_point(x)
        assert sp.closure_point(0.0) == 0.0

    def test_dist(self):
        sp = Interval(0.0, math.inf)
        assert dist(sp, 1.0, 0.5) == pytest.approx(0.5)
        sp2 = Interval(-math.pi / 2, math.pi / 2)
        assert dist(sp2, 0.3, 0.3) == 0.0

    def test_dist_outside_raises(self):
        sp = Interval(0.0, 1.0)
        with pytest.raises(PointOutsideSpace):
            dist(sp, -0.5, 0.5)


def _scalar_rule(sp, x) -> bool:
    """Interval membership of one float, spelled out."""
    x = float(x)
    lo_ok = x > sp.a if sp.open_a else x >= sp.a
    hi_ok = x < sp.b if sp.open_b else x <= sp.b
    return lo_ok and hi_ok and math.isfinite(x)


class TestIntervalContainsArrays:
    """contains answers elementwise on arrays, as the scalar rule does."""

    ENDS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
        [-math.inf, math.inf, 0.0, -0.0, 1.0, -1.0]))

    @settings(max_examples=300)
    @given(ENDS, ENDS, st.booleans(), st.booleans(), st.data())
    def test_agrees_with_scalar_rule(self, a, b, open_a, open_b, data):
        a, b = min(a, b), max(a, b)
        assume(a < b)
        sp = Interval(a, b, open_a, open_b)
        entries = st.one_of(st.floats(), st.sampled_from(
            [a, b, -0.0, 0.0, math.nan, math.inf, -math.inf]))
        shape = data.draw(st.sampled_from([(), (5,), (2, 3), (0,)]))
        x = data.draw(hnp.arrays(float, shape, elements=entries))
        want = np.array([_scalar_rule(sp, v) for v in x.ravel()],
                        dtype=bool).reshape(x.shape)
        got = sp.contains(x)
        assert got.shape == x.shape and np.array_equal(got, want)
        assert np.array_equal(sp.contains(x.tolist()), want)
        if x.ndim == 0:
            assert bool(got) is _scalar_rule(sp, x)

    @pytest.mark.parametrize("x", [[1.0, 2.0], np.zeros((2, 1)), [[0.5]]])
    def test_member_points_are_scalars(self, x):
        with pytest.raises(PointOutsideSpace):
            dist(Interval(), x, 0.0)
        with pytest.raises(PointOutsideSpace):
            geodesic(Interval(), 0.0, x)

    def test_member_point_keeps_negative_zero(self):
        g = geodesic(Interval(), -0.0, np.float64(1.0))
        assert math.copysign(1.0, g.p0) == -1.0 and type(g.p1) is float


class TestEuclidean:
    def test_dist(self):
        sp = EuclideanRn(2)
        assert dist(sp, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_membership_shape(self):
        sp = EuclideanRn(2)
        assert not sp.contains(np.array([1.0]))
        assert sp.contains(np.array([1.0, 2.0]))


class TestEuclideanContains:
    """contains is shape (n,) and all entries finite, for any input."""

    ENTRIES = st.one_of(st.floats(), st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e300, -1e300, -0.0, 0.0]))

    @settings(max_examples=300)
    @given(st.integers(1, 8), st.data())
    def test_agrees_with_isfinite(self, n, data):
        shape = data.draw(st.sampled_from([(), (n,), (n + 1,), (n - 1,), (2, n),
                                           (n, n), (1, n), (n, 1)]))
        x = data.draw(hnp.arrays(float, shape, elements=self.ENTRIES))
        arg = data.draw(st.sampled_from([x, x.tolist()]))  # scalars, lists
        want = x.shape == (n,) and bool(np.isfinite(x).all())
        assert EuclideanRn(n).contains(arg) is want

    @pytest.mark.parametrize("x, want", [
        ([1e300, -0.0, -1e300], True), ([0.0, math.nan, 1.0], False),
        ([math.inf, 0.0, 0.0], False), ([0.0, 0.0, -math.inf], False),
        (1.0, False), ([[1.0, 2.0, 3.0]], False), ([1.0, 2.0], False),
    ])
    def test_cases(self, x, want):
        assert EuclideanRn(3).contains(x) is want
        assert EuclideanRn(3).contains(np.asarray(x)) is want


class TestOneNorm:
    """Every distance on R^n is sqrt(d.d), bit for bit, wherever it is taken.

    np.linalg.norm(axis=-1) sums the squares in another order and differs
    from it in the last bit on some rows; the seeded rows below include
    such rows.
    """

    @staticmethod
    def _rows(n=400, dim=3, seed=11):
        rng = np.random.default_rng(seed)
        x0, x1 = rng.normal(size=(2, n, dim))
        d = x1 - x0
        want = np.sqrt(np.vecdot(d, d))
        other = np.flatnonzero(np.linalg.norm(d, axis=-1) != want)
        assert len(other) > 0
        return x0, x1, want, other

    def test_distances_dist_and_length(self):
        x0, x1, want, other = self._rows()
        assert np.array_equal(EuclideanRn(3).distances(x0, x1), want)
        sp = EuclideanRn(3)
        for k in other:
            assert dist(sp, x0[k], x1[k]) == want[k]
            assert geodesic(sp, x0[k], x1[k]).length == want[k]

    def test_metric_derivative(self):
        from knflow.analysis import metric_derivative
        from knflow.flows import Curve
        pts = np.cumsum(self._rows()[0], axis=0)
        speed = metric_derivative(Curve(np.arange(len(pts), dtype=float), pts))
        d = pts[2:] - pts[:-2]
        assert np.array_equal(speed[1:-1], np.sqrt(np.vecdot(d, d)) / 2.0)
        ends = pts[[1, -1]] - pts[[0, -2]]
        assert np.array_equal(speed[[0, -1]], np.sqrt(np.vecdot(ends, ends)))

    def test_roundtrip_error(self):
        from knflow.coefficients import CurvatureParams
        from knflow.flows import oracle_flow, time_grid
        from knflow.functionals import library
        from knflow.reparam import r1, r2, roundtrip_error
        p = CurvatureParams(1.0, -1.0)
        fn = library("quadratic", p, c=1.0, dim=3)
        c = oracle_flow("quadratic", None, np.array([1.0, -0.5, 2.0]),
                        time_grid(0.0, 1.0, 1000), c=1.0)
        rt = r2(r1(c, fn, p), fn, p)
        times = c.times[:rt.n_samples]
        inside = (times >= max(times[0], rt.times[0])) \
            & (times <= min(times[-1], rt.times[-1]))
        d = c.points[:rt.n_samples][inside] - rt.at(times[inside])
        want = float(np.max(np.sqrt(np.vecdot(d, d)))) \
            + float(np.max(np.abs(rt.times - times)))
        assert roundtrip_error(c, fn, p) == want

    def test_no_other_norm_in_the_library(self):
        import knflow
        for path in Path(knflow.__file__).parent.glob("*.py"):
            text = path.read_text()
            assert "linalg.norm" not in text, path.name
            if path.name != "spaces.py":
                assert "vecdot" not in text, path.name


class TestGeodesic:
    def test_midpoint(self):
        g = geodesic(Interval(0.0, math.inf), 1.0, 3.0)
        assert geodesic_eval(g, 0.5) == pytest.approx(2.0)

    def test_quarter_point_r2(self):
        g = geodesic(EuclideanRn(2), np.zeros(2), np.ones(2))
        np.testing.assert_allclose(g(0.25), [0.25, 0.25])

    def test_endpoint(self):
        g = geodesic(Interval(0.0, 1.0), 0.2, 0.8)
        assert g(1.0) == pytest.approx(0.8)
        assert g(0.0) == pytest.approx(0.2)

    def test_constant_geodesic(self):
        g = geodesic(Interval(0.0, 2.0), 0.7, 0.7)
        for t in (0.0, 0.3, 1.0):
            assert g(t) == pytest.approx(0.7)

    def test_constant_speed_sample(self):
        sp = EuclideanRn(2)
        g = geodesic(sp, np.array([0.0, 0.0]), np.array([2.0, 0.0]))
        assert dist(sp, g(0.25), g(0.75)) == pytest.approx(0.5 * g.length)

    def test_param_range(self):
        g = geodesic(Interval(0.0, 1.0), 0.2, 0.8)
        with pytest.raises(ParamOutOfRange):
            g(1.5)

    @given(
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(0, 1), st.floats(0, 1),
    )
    def test_constant_speed_property(self, x, y, s, t):
        sp = Interval()
        g = geodesic(sp, x, y)
        lhs = dist(sp, g(s), g(t))
        assert lhs == pytest.approx(abs(t - s) * dist(sp, x, y), abs=1e-9)

    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    def test_triangle_inequality(self, vals):
        sp = EuclideanRn(2)
        a, b, c = (np.array(vals[0:2]), np.array(vals[2:4]), np.array(vals[4:6]))
        assert dist(sp, a, c) <= dist(sp, a, b) + dist(sp, b, c) + 1e-9


class TestJson:
    def test_interval_round_trip(self):
        sp = space_from_json({"kind": "interval", "a": 0, "b": "inf",
                              "open": [True, False]})
        assert sp == Interval(0.0, math.inf, True, False)
        assert space_from_json({"kind": "interval", "a": "-inf", "b": 1}) \
            == Interval(-math.inf, 1.0)

    def test_euclidean(self):
        sp = space_from_json({"kind": "euclidean", "n": 2})
        assert sp == EuclideanRn(2)

    def test_bad_kind(self):
        with pytest.raises(ConfigInvalid):
            space_from_json({"kind": "sphere"})

    @pytest.mark.parametrize("flags", [["false", 0], [True, 1], [None, False],
                                       [True], "true"])
    def test_open_flags_must_be_booleans(self, flags):
        with pytest.raises(ConfigInvalid):
            space_from_json({"kind": "interval", "a": 0, "b": 1, "open": flags})

    def test_minus_inf_endpoint(self):
        sp = space_from_json({"kind": "interval", "a": "-inf", "b": 0})
        assert sp.a == -math.inf and sp.b == 0.0


class TestGeometryStaysInTheSpaces:
    """A source scan: outside spaces.py, code asks the space for its geometry
    (distances, segment, closure_point, sampling_box, shape) instead of
    branching on its type.  The branches left are the 1-d and R^n solvers of
    flows, the samplers whose random streams differ by space, and the two
    checks that take intervals only.  A new branch must join this list."""

    BRANCH = re.compile(r"one_d|dim1|is_1d|isinstance\([^)]*(Interval|EuclideanRn)")
    SURVIVORS = Counter({
        ("analysis.py", "_stratified_z"): 1,  # per-space random stream
        ("analysis.py", "check_evi_local"): 1,  # per-space random stream
        ("analysis.py", "_definition_slopes"): 1,  # per-space probes
        ("analysis.py", "slope"): 1,  # the formula slope takes intervals only
        ("convexity.py", "check_gluing"): 1,  # takes intervals only
        ("flows.py", "ode_flow"): 3,  # boundary events on intervals
        ("flows.py", "_prox_args"): 1,  # the solver choice
        ("flows.py", "prox"): 2,
        ("flows.py", "minimizing_movement"): 9,
    })

    @staticmethod
    def _owners(tree):
        """(first line, last line, name) of each module-level function and
        each method, as "Class.method"."""
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield node.lineno, node.end_lineno, node.name
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield sub.lineno, sub.end_lineno, f"{node.name}.{sub.name}"

    def test_no_new_branch_on_the_space_type(self):
        import knflow
        found = Counter()
        for path in sorted(Path(knflow.__file__).parent.glob("*.py")):
            if path.name == "spaces.py":
                continue
            text = path.read_text()
            owners = list(self._owners(ast.parse(text)))
            for k, line in enumerate(text.splitlines(), 1):
                if self.BRANCH.search(line):
                    owner = next((name for lo, hi, name in owners if lo <= k <= hi),
                                 None)
                    found[(path.name, owner)] += 1
        assert found - self.SURVIVORS == Counter()

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from knflow.errors import ConfigInvalid, ParamOutOfRange, PointOutsideSpace
from knflow.spaces import (
    EuclideanRn,
    Interval,
    dist,
    geodesic,
    geodesic_eval,
    space_from_json,
    space_to_json,
)


class TestInterval:
    def test_membership_open_ends(self):
        sp = Interval(0.0, math.inf)
        assert sp.contains(0.5) and not sp.contains(0.0)
        assert sp.contains_closure(0.0)
        assert not sp.contains(-1.0)

    def test_membership_closed_end(self):
        sp = Interval(0.0, math.inf, open_a=False)
        assert sp.contains(0.0)

    def test_order_validation(self):
        with pytest.raises(ParamOutOfRange):
            Interval(1.0, 1.0)

    def test_dist(self):
        sp = Interval(0.0, math.inf)
        assert dist(sp, 1.0, 0.5) == pytest.approx(0.5)
        sp2 = Interval(-math.pi / 2, math.pi / 2)
        assert dist(sp2, 0.3, 0.3) == 0.0

    def test_dist_outside_raises(self):
        sp = Interval(0.0, 1.0)
        with pytest.raises(PointOutsideSpace):
            dist(sp, -0.5, 0.5)


class TestEuclidean:
    def test_dist(self):
        sp = EuclideanRn(2)
        assert dist(sp, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_membership_shape(self):
        sp = EuclideanRn(2)
        assert not sp.contains(np.array([1.0]))
        assert sp.contains(np.array([1.0, 2.0]))


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
        assert space_from_json(space_to_json(sp)) == sp

    def test_euclidean(self):
        sp = space_from_json({"kind": "euclidean", "n": 2})
        assert sp == EuclideanRn(2)
        assert space_to_json(sp) == {"kind": "euclidean", "n": 2}

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

import pytest

from knflow.core import SampleSpec, Tolerance, _integer
from knflow.errors import ConfigInvalid, ParamOutOfRange


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


class TestConfigIntegers:
    def test_large_seed_is_exact(self):
        # 2**64 - 1 has no exact float: the int must not go through one
        assert _integer(2**64 - 1, "seed") == 2**64 - 1
        assert _integer(3.0, "seed") == 3

    @pytest.mark.parametrize("value", [2.5, "3", True, float("inf"), 10**400])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ConfigInvalid):
            _integer(value, "seed")

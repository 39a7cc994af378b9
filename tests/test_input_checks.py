"""Input checks of the public functions: each bad argument raises its
KNFlowError subclass (or, for the CLI's config file, exits 1)."""
import math
import re

import numpy as np
import pytest

from knflow.analysis import bracket, check_evi_kn, check_evi_local, contraction_rate, slope
from knflow.cli import main, read_curve_csv, run
from knflow.coefficients import CurvatureParams
from knflow.convexity import check_gluing, check_lambda_convex, lifted_modulus
from knflow.core import SampleSpec
from knflow.errors import (
    ConfigInvalid,
    DisjointWindows,
    ExpressionError,
    IoError,
    NoOracle,
    NotInCPrime,
    ParamOutOfRange,
)
from knflow.flows import Curve, oracle_flow, time_grid
from knflow.functionals import expression_functional, library
from knflow.reparam import roundtrip_error
from knflow.spaces import EuclideanRn, geodesic, space_from_json

P01 = CurvatureParams(0.0, -1.0)
P11 = CurvatureParams(1.0, -1.0)
PM11 = CurvatureParams(-1.0, -1.0)
SPEC = SampleSpec(seed=3, count=20)
LOG_X = library("log-x", P01)
Q2 = library("quadratic", P11, dim=2)
GRID = time_grid(0.0, 0.4, 5)
CURVE = oracle_flow("log-x", P01, 1.0, GRID)  # in C': f decreases along it
RISING = Curve(GRID, 1.0 + GRID)  # log-x grows along it: not in C'

CASES = {
    "evi-kn-form": (ParamOutOfRange, "form must be one of",
                    lambda: check_evi_kn(CURVE, LOG_X, P01, "iii", SPEC)),
    "evi-kn-z-domain": (ParamOutOfRange, "z_domain must be",
                        lambda: check_evi_kn(CURVE, LOG_X, P01, "i", SPEC,
                                             z_domain="open")),
    "evi-local-radius-0": (ParamOutOfRange, "radius must be > 0",
                           lambda: check_evi_local(CURVE, LOG_X, 0.0, 0.0, SPEC)),
    "evi-local-radius-nan": (ParamOutOfRange, "radius must be > 0",
                             lambda: check_evi_local(CURVE, LOG_X, 0.0, math.nan, SPEC)),
    "slope-formula-without-p": (ParamOutOfRange, "needs p=",
                                lambda: slope(LOG_X, 1.0, "formula", R=0.5)),
    "slope-formula-without-R": (ParamOutOfRange, "needs p=",
                                lambda: slope(LOG_X, 1.0, "formula", p=P01)),
    "slope-formula-on-rn": (ParamOutOfRange, "on intervals",
                            lambda: slope(Q2, np.array([0.5, 0.5]), "formula",
                                          p=P11, R=0.5)),
    "slope-unknown-method": (ParamOutOfRange, "method must be",
                             lambda: slope(LOG_X, 1.0, "secant")),
    "bracket-last-time": (ParamOutOfRange, "forward neighbor",
                          lambda: bracket(CURVE, GRID[-1],
                                          geodesic(LOG_X.space, CURVE.points[-1], 2.0))),
    "bracket-foreign-geodesic": (ParamOutOfRange, "must emanate",
                                 lambda: bracket(CURVE, GRID[0],
                                                 geodesic(LOG_X.space, 2.0, 3.0))),
    "contraction-one-common-sample": (
        DisjointWindows, "fewer than two",
        lambda: contraction_rate(CURVE, Curve([0.15, 0.25], [1.0, 1.1]), 0.15)),
    "contraction-r-outside": (ParamOutOfRange, "outside the common",
                              lambda: contraction_rate(CURVE, RISING, 0.5)),
    "contraction-nothing-after-r": (ParamOutOfRange, "no grid times after r",
                                    lambda: contraction_rate(CURVE, RISING, 0.4)),
    "lambda-convex-nan": (ParamOutOfRange, "lambda must be",
                          lambda: check_lambda_convex(LOG_X, math.nan, SPEC)),
    "gluing-on-rn": (ParamOutOfRange, "interval functionals",
                     lambda: check_gluing(Q2, P11, 0.0, 1.0, 2.0, 3.0)),
    "lifted-modulus-nan": (ParamOutOfRange, "M must be",
                           lambda: lifted_modulus(PM11, math.nan)),
    "params-nan-K": (ParamOutOfRange, "must be finite",
                     lambda: CurvatureParams(math.nan, -1.0)),
    "params-inf-N": (ParamOutOfRange, "must be finite",
                     lambda: CurvatureParams(0.0, -math.inf)),
    "empty-curve": (ParamOutOfRange, "nonempty", lambda: Curve([], [])),
    "empty-segment": (ParamOutOfRange, "empty segment", lambda: CURVE.segment(1.0, 2.0)),
    "log-x-oracle-without-params": (NoOracle, "needs curvature",
                                    lambda: oracle_flow("log-x", None, 1.0, GRID)),
    "log-cosh-oracle-K0": (NoOracle, "needs K > 0",
                           lambda: oracle_flow("log-cosh", P01, 1.0, GRID)),
    "log-cosh-oracle-K-negative": (NoOracle, "needs K > 0",
                                   lambda: oracle_flow("log-cosh", PM11, 1.0, GRID)),
    "expression-string-constant": (ExpressionError, "constant 'a'",
                                   lambda: expression_functional("x + 'a'")),
    "expression-keyword": (ExpressionError, "keyword",
                           lambda: expression_functional("pow(x, y=2)")),
    "expression-argument-count": (ExpressionError, "takes 2 argument",
                                  lambda: expression_functional("pow(x)")),
    "roundtrip-order": (ParamOutOfRange, "order must be",
                        lambda: roundtrip_error(CURVE, LOG_X, P01, order="r1r1")),
    "roundtrip-r2r1-outside-cprime": (
        NotInCPrime, "not in C'",
        lambda: roundtrip_error(RISING, LOG_X, P01, order="r2r1")),
    "space-bad-endpoint": (ConfigInvalid, "bad interval endpoint",
                           lambda: space_from_json({"kind": "interval", "a": "minus"})),
    "space-not-a-dict": (ConfigInvalid, "must be a dict",
                         lambda: space_from_json(["interval"])),
    "quadratic-dim-2.5": (ParamOutOfRange, "whole, got 2.5",
                          lambda: library("quadratic", P11, dim=2.5)),
    "quadratic-dim-str": (ParamOutOfRange, "whole, got '2'",
                          lambda: library("quadratic", P11, dim="2")),
    "euclidean-2.5": (ParamOutOfRange, "whole, got 2.5", lambda: EuclideanRn(2.5)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises(case):
    error, message, call = CASES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_whole_float_dimension_is_kept():
    fn = library("quadratic", P11, dim=2.0)
    assert fn.space == EuclideanRn(2) and fn.hess(np.zeros(2)).shape == (2, 2)


class TestCli:
    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["flow", "--config", str(missing), "--out", str(tmp_path)]) == 1
        assert "cannot load config" in capsys.readouterr().err

    def test_missing_curve_file(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            read_curve_csv(str(tmp_path / "absent.csv"))

    def test_curve_file_not_utf8(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"t,x0\n0.0,\xff\xfe\n")
        with pytest.raises(ConfigInvalid, match="not a curve CSV"):
            read_curve_csv(str(path))

    def test_meta_json_holding_a_list(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("t,x0\n0.0,1.0\n0.1,0.9\n")
        (tmp_path / "curve.csv.meta.json").write_text("[1, 2]")
        with pytest.raises(ConfigInvalid, match="must hold a JSON object"):
            read_curve_csv(str(path))

    def test_flow_without_times_or_grid(self, tmp_path):
        cfg = {"command": "flow", "method": "oracle", "y0": 1.0, "out": "c.csv",
               "functional": {"library": "log-x", "K": 0, "N": -1}}
        with pytest.raises(ConfigInvalid, match="'times' or 'grid'"):
            run(cfg, str(tmp_path))

    def test_unknown_convexity_kind(self, tmp_path):
        cfg = {"command": "check-convexity", "kind": "concave", "out": "r.json",
               "functional": {"library": "log-x", "K": 0, "N": -1}}
        with pytest.raises(ConfigInvalid, match="unknown convexity kind"):
            run(cfg, str(tmp_path))

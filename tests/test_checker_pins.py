"""Pinned outputs of the sampled verifiers on small seeded grids.

`tests/data/checker_pins.json` holds, for every case below, the report
(`to_json()`) or the energy-audit arrays produced by the per-row
implementation that the shared grid kernel replaced.  The kernel must
reproduce them exactly: verdicts, worst violations, raw residuals and
witnesses, for every seed, masking rule and space used here.  The seam
test runs the same cases with blocks of a few cells, so that block
boundaries fall inside the grids, and expects the same bytes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from knflow import analysis, convexity
from knflow.coefficients import CurvatureParams
from knflow.core import SampleSpec, Tolerance
from knflow.flows import Curve, oracle_flow, time_grid
from knflow.functionals import Functional, fN_functional, library

PINS = Path(__file__).parent / "data" / "checker_pins.json"

P01 = CurvatureParams(0.0, -1.0)
P11 = CurvatureParams(1.0, -1.0)
PM11 = CurvatureParams(-1.0, -1.0)
TOL = Tolerance()

LOG_X = library("log-x", P01)
LOG_COSH = library("log-cosh", P11)
LOG_COS = library("log-cos", PM11)
LINEAR = library("linear", P01, a=1.0)
QUAD = library("quadratic", P11, c=1.0)
QUAD2 = library("quadratic", P11, c=1.0, dim=2)
COS_FN = fN_functional(LOG_COS, PM11)
WIDE_QUAD = Functional(space=QUAD.space, fvec=QUAD.fvec, name=QUAD.name,
                       sample_box=(-8.0, 8.0))


def _logx_curve(n=40):
    return oracle_flow("log-x", P01, 1.0, time_grid(0.0, 0.4, n))


def _logcos_curve(n=40):
    return oracle_flow("log-cos", PM11, 0.3, time_grid(0.0, 0.6, n))


def _logcosh_curve(n=40):
    return oracle_flow("log-cosh", P11, 1.0, time_grid(0.0, 1.5, n))


def _planar_curve(n=30):
    return oracle_flow("quadratic", None, np.array([1.0, -0.5]),
                       time_grid(0.0, 1.0, n), c=1.0)


def _cos_transform_curve(n=40):
    ts = np.linspace(0.0, 1.2, n)
    return Curve(ts, 2.0 * np.arctan(np.tan(0.15) * np.exp(ts)))


def _jittered(c, seed=3):
    rng = np.random.default_rng(seed)
    return Curve(c.times, c.points + 0.05 * rng.standard_normal(c.points.shape))


def _audit(a):
    return {"times": a.times.tolist(), "speed": a.speed.tolist(),
            "slope": a.slope.tolist(), "energy": a.energy.tolist(),
            "residual": a.residual.tolist(), "budget": a.budget.tolist(),
            "ede_residual": a.ede_residual}


CASES = {
    # convexity
    "lambda-quadratic": lambda: convexity.check_lambda_convex(
        QUAD, 1.0, SampleSpec(3, 40), TOL),
    "lambda-quadratic-fail": lambda: convexity.check_lambda_convex(
        QUAD, 1.5, SampleSpec(4, 40), TOL),
    "lambda-planar": lambda: convexity.check_lambda_convex(
        QUAD2, 1.0, SampleSpec(5, 30), TOL),
    "lambda-cos-transform": lambda: convexity.check_lambda_convex(
        COS_FN, -1.0, SampleSpec(6, 40), TOL),
    "kn-logcosh": lambda: convexity.check_kn_convex(
        LOG_COSH, P11, SampleSpec(7, 40), TOL),
    "kn-logcos-cap": lambda: convexity.check_kn_convex(
        LOG_COS, PM11, SampleSpec(8, 40), TOL),
    "kn-logx-box": lambda: convexity.check_kn_convex(
        LOG_X, P01, SampleSpec(9, 40), TOL, box=(0.5, 2.0)),
    "kn-concave-fail": lambda: convexity.check_kn_convex(
        library("quadratic", P01, c=-1.0), P01, SampleSpec(10, 40), TOL),
    # far pairs sit past the singular cap: whole rows are vacuous
    "kn-no-cap": lambda: convexity.check_kn_convex(
        WIDE_QUAD, PM11, SampleSpec(11, 40), TOL, enforce_cap=False),
    "kn-planar": lambda: convexity.check_kn_convex(
        QUAD2, P01, SampleSpec(12, 30), TOL),
    "lifting-logcos": lambda: convexity.check_lifting(
        LOG_COS, PM11, 0.0, SampleSpec(13, 40), TOL),
    "lifting-logx": lambda: convexity.check_lifting(
        LOG_X, P01, None, SampleSpec(14, 40), TOL),
    "gluing-logx": lambda: convexity.check_gluing(
        LOG_X, P01, 0.5, 1.0, 1.5, 2.0, TOL, SampleSpec(15, 40)),
    # EVI, lambda and local forms
    "evi-lambda-linear": lambda: analysis.check_evi_lambda(
        oracle_flow("fN-linear", None, 1.0, time_grid(0, 0.95, 40)), LINEAR,
        0.0, SampleSpec(20, 30), TOL, t_samples=12),
    "evi-lambda-cos": lambda: analysis.check_evi_lambda(
        _cos_transform_curve(), COS_FN, -1.0, SampleSpec(21, 30), TOL,
        t_samples=15),
    "evi-lambda-override": lambda: analysis.check_evi_lambda(
        _cos_transform_curve(), COS_FN, -1.0, SampleSpec(22, 30), TOL,
        t_samples=10, z_override=[-1.2, -0.3, 0.0, 0.4, 1.1]),
    "evi-lambda-planar": lambda: analysis.check_evi_lambda(
        _planar_curve(), QUAD2, 1.0, SampleSpec(23, 20), TOL, t_samples=9),
    "evi-lambda-planar-jitter": lambda: analysis.check_evi_lambda(
        _jittered(_planar_curve()), QUAD2, 1.0, SampleSpec(24, 20), TOL,
        t_samples=9),
    "evi-local-cos": lambda: analysis.check_evi_local(
        _cos_transform_curve(), COS_FN, -1.0, 0.2, SampleSpec(25, 30), TOL,
        t_samples=12),
    "evi-local-filter": lambda: analysis.check_evi_local(
        _cos_transform_curve(), COS_FN, -1.0, 0.3, SampleSpec(26, 30), TOL,
        t_samples=12, z_filter=lambda z: LOG_COS.value(z) <= 0.01),
    "evi-local-planar": lambda: analysis.check_evi_local(
        _planar_curve(), QUAD2, 1.0, 0.4, SampleSpec(27, 20), TOL,
        t_samples=9),
    # EVI, dimensional forms
    "evi-kn-raw-logx": lambda: analysis.check_evi_kn(
        _logx_curve(), LOG_X, P01, "raw", SampleSpec(30, 30), TOL,
        t_samples=12),
    "evi-kn-i-logcosh": lambda: analysis.check_evi_kn(
        _logcosh_curve(), LOG_COSH, P11, "i", SampleSpec(31, 30), TOL,
        t_samples=12),
    "evi-kn-ii-logcos": lambda: analysis.check_evi_kn(
        _logcos_curve(), LOG_COS, PM11, "ii", SampleSpec(32, 30), TOL,
        t_samples=12),
    "evi-kn-raw-logcos": lambda: analysis.check_evi_kn(
        _logcos_curve(), LOG_COS, PM11, "raw", SampleSpec(33, 30), TOL,
        t_samples=12),
    "evi-kn-i-closure": lambda: analysis.check_evi_kn(
        _logx_curve(), LOG_X, P01, "i", SampleSpec(34, 30), TOL,
        t_samples=12, z_domain="closure"),
    "evi-kn-ii-override": lambda: analysis.check_evi_kn(
        _logx_curve(), LOG_X, P01, "ii", SampleSpec(35, 30), TOL,
        t_samples=8, z_override=[0.0, 0.2, 0.7, 1.5, 3.0]),
    # every reference point has f = +inf: every row is masked
    "evi-kn-all-masked": lambda: analysis.check_evi_kn(
        _logx_curve(), LOG_X, P01, "raw", SampleSpec(36, 30), TOL,
        t_samples=6, z_override=[-1.0, -0.5]),
    "evi-kn-wrong-k": lambda: analysis.check_evi_kn(
        _logx_curve(), LOG_X, CurvatureParams(0.5, -1.0), "i",
        SampleSpec(37, 30), TOL, t_samples=12),
    "evi-kn-raw-jitter": lambda: analysis.check_evi_kn(
        _jittered(_logx_curve()), LOG_X, P01, "raw", SampleSpec(38, 30), TOL,
        t_samples=12),
    "evi-kn-ii-planar": lambda: analysis.check_evi_kn(
        _planar_curve(), QUAD2, P01, "ii", SampleSpec(39, 20), TOL,
        t_samples=9),
    # EVI, integrated window form
    "evi-integrated-logcosh": lambda: analysis.check_evi_integrated(
        _logcosh_curve(), LOG_COSH, P11, SampleSpec(40, 30), TOL,
        t_samples=12),
    "evi-integrated-logcos": lambda: analysis.check_evi_integrated(
        _logcos_curve(), LOG_COS, PM11, SampleSpec(41, 30), TOL,
        t_samples=12),
    "evi-integrated-jitter": lambda: analysis.check_evi_integrated(
        _jittered(_logcosh_curve()), LOG_COSH, P11, SampleSpec(42, 30), TOL,
        t_samples=12),
    "evi-integrated-planar": lambda: analysis.check_evi_integrated(
        _planar_curve(), QUAD2, PM11, SampleSpec(43, 20), TOL, t_samples=9),
    # energy audits and definition slopes
    "audit-logx": lambda: analysis.energy_audit(_logx_curve(), LOG_X, TOL),
    "audit-logcos": lambda: analysis.energy_audit(_logcos_curve(), LOG_COS, TOL),
    "audit-logcosh-r0": lambda: analysis.energy_audit(
        _logcosh_curve(), LOG_COSH, TOL, slope_r0=0.05),
    "audit-linear-edge": lambda: analysis.energy_audit(
        oracle_flow("fN-linear", None, 0.05, time_grid(0, 0.049, 20)),
        LINEAR, TOL, slope_r0=0.01),
    "audit-planar": lambda: analysis.energy_audit(_planar_curve(), QUAD2, TOL),
    "audit-planar-spec": lambda: analysis.energy_audit(
        _planar_curve(), QUAD2, TOL, spec=SampleSpec(44, 8)),
    "slopes-definition": lambda: [
        analysis.slope(LOG_X, 1e-3, "definition"),
        analysis.slope(LOG_X, 0.5, "definition"),
        analysis.slope(LOG_COS, LOG_COS.space.b - 1e-4, "definition"),
        analysis.slope(LINEAR, 0.0, "definition"),
        analysis.slope(LINEAR, 1e-5, "definition"),
        analysis.slope(LOG_COSH, 0.0, "definition"),
        analysis.slope(QUAD2, np.array([0.3, -1.0]), "definition"),
        analysis.slope(QUAD2, np.array([0.3, -1.0]), "definition",
                       spec=SampleSpec(45, 8), r0=0.1),
    ],
    # formula slopes, recorded with the per-probe `Interval.contains`
    # filter that the array mask replaced: probes past an open end are
    # dropped, a probe on the closed end of `linear` (0.00125 - 0.01/8 = 0)
    # is kept
    "slopes-formula": lambda: [
        analysis.slope(LOG_COSH, 0.7, "formula", p=P11, R=0.5),
        analysis.slope(LOG_COSH, -2.0, "formula", SampleSpec(46, 64),
                       p=P11, R=1.5),
        analysis.slope(LOG_COS, 0.3, "formula", p=PM11,
                       R=0.99 * PM11.theta_singular),
        analysis.slope(LOG_COS, -1.2, "formula", SampleSpec(47, 64), p=PM11,
                       R=0.999 * PM11.theta_singular),
        analysis.slope(LOG_X, 0.5, "formula", p=P01, R=0.4),
        analysis.slope(LOG_X, 0.5, "formula", SampleSpec(48, 64), p=P01,
                       R=1.0),
        analysis.slope(LINEAR, 0.00125, "formula", p=P01, R=0.01),
        analysis.slope(LINEAR, 0.00125, "formula", SampleSpec(49, 64),
                       p=P01, R=0.01),
        analysis.slope(LINEAR, 0.0, "formula", p=P01, R=0.01),
    ],
}


def run_case(name):
    """The case's output as it round-trips through JSON."""
    out = CASES[name]()
    if hasattr(out, "to_json"):
        out = out.to_json()
    elif hasattr(out, "budget"):
        out = _audit(out)
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_pin(name, pins):
    assert run_case(name) == pins[name]


def test_block_seams_inside_grids(pins, monkeypatch):
    # 7 cells per block: every block holds one to three rows, so each
    # grid above is cut into several blocks
    monkeypatch.setattr(convexity, "_BLOCK_CELLS", 7)
    for name in sorted(CASES):
        if not name.startswith(("audit", "slopes")):
            assert run_case(name) == pins[name], name

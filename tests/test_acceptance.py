"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from knflow.analysis import (
    check_evi_kn,
    check_evi_lambda,
    contraction_rate,
    energy_audit,
    slope,
)
from knflow.coefficients import CurvatureParams, c_kn, s_kn, sigma, sigma_values
from knflow.convexity import check_kn_convex, check_lifting
from knflow.core import SampleSpec, Tolerance
from knflow.flows import Curve, minimizing_movement, oracle_flow, time_grid
from knflow.functionals import fN_functional, library
from knflow.reparam import r1, r2, roundtrip_error
from knflow.cli import pipeline

P01 = CurvatureParams(0.0, -1.0)
P11 = CurvatureParams(1.0, -1.0)
PM11 = CurvatureParams(-1.0, -1.0)
TOL = Tolerance()

LOG_X = library("log-x", P01)
LOG_COSH = library("log-cosh", P11)
LOG_SINH = library("log-sinh", P11)
LOG_COS = library("log-cos", PM11)
LINEAR = library("linear", P01, a=1.0)
COS_FN = fN_functional(LOG_COS, PM11)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {name} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_intro_flow_reproduction():
    t0 = time.perf_counter()
    grid = time_grid(0.0, 0.4, 401)
    oracle = oracle_flow("log-x", P01, 1.0, grid)
    exact = np.sqrt(1.0 - 2.0 * grid)
    oracle_err = float(np.max(np.abs(oracle.points - exact)))

    errs = []
    for tau in (4e-4, 2e-4, 1e-4):
        c = minimizing_movement(LOG_X, tau, 1.0, 0.4, TOL)
        ref = np.sqrt(1.0 - 2.0 * c.times)
        errs.append(float(np.max(np.abs(c.points - ref))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0

    ok = (oracle_err <= 1e-14 and errs[-1] <= 5e-3
          and min(orders) >= 0.8 and elapsed < 5.0)
    report(1, "intro flow reproduction", ok,
           f"(oracle_err={oracle_err:.2e}, mms_err={errs[-1]:.2e}, "
           f"orders={[round(o, 2) for o in orders]}, {elapsed:.2f}s)")


def test_criterion_02_coefficient_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_outer, n_inner = 100, 100  # 10^4 draws per identity

    worst_half = worst_prod = worst_sum = 0.0
    for _ in range(n_outer):
        K = rng.uniform(-3, 3)
        while abs(K) < 1e-3:
            K = rng.uniform(-3, 3)
        N = -rng.uniform(0.2, 4)
        p = CurvatureParams(K, N)
        cap = 0.98 * p.theta_singular if K < 0 else math.inf
        hi = min(cap, 3.0 / max(p.omega, 1.0), 3.0)

        theta = rng.uniform(1e-3, hi, size=n_inner)
        lhs = np.array([s_kn(p, t / 2) ** 2 for t in theta])
        rhs = np.array([-(N / (2 * K)) * (c_kn(p, t) - 1) for t in theta])
        worst_half = max(worst_half, float(np.max(np.abs(lhs - rhs))))

        pts = np.sort(rng.uniform(0, 2.0 / max(p.omega, 1.0),
                                  size=(n_inner, 4)), axis=1)
        for a, b, c, d in pts:
            gap = (s_kn(p, c - a) * s_kn(p, d - b)
                   - s_kn(p, b - a) * s_kn(p, d - c)
                   - s_kn(p, d - a) * s_kn(p, c - b))
            worst_prod = max(worst_prod, abs(gap))

        ss = rng.uniform(0, 1, size=n_inner)
        theta = rng.uniform(1e-3, hi, size=n_inner)
        for s, t in zip(ss, theta):
            total = (float(sigma(p, 1 - s, t)) * c_kn(p, s * t)
                     + float(sigma(p, s, t)) * c_kn(p, (1 - s) * t))
            worst_sum = max(worst_sum, abs(total - 1.0))

    # ratio-coefficient monotonicity: non-increasing in K always;
    # in N: non-decreasing for K<0, non-increasing for K>0
    violations = 0
    for _ in range(n_outer):
        t = rng.uniform(0, 1, size=n_inner)
        N = -rng.uniform(0.2, 4)
        K1, K2 = np.sort(rng.uniform(-3, 3, size=2))
        p1, p2 = CurvatureParams(K1, N), CurvatureParams(K2, N)
        cap = 0.98 * min(p1.theta_singular, p2.theta_singular, 3.0)
        theta = rng.uniform(0, cap, size=n_inner)
        s1 = sigma_values(p1, t, theta)
        s2 = sigma_values(p2, t, theta)
        violations += int(np.sum(s1 < s2 - 1e-12))

        K = rng.uniform(-3, 3)
        Na, Nb = -np.sort(rng.uniform(0.2, 4, size=2))  # Na >= Nb
        pa, pb = CurvatureParams(K, Na), CurvatureParams(K, Nb)
        cap = 0.98 * min(pa.theta_singular, pb.theta_singular, 3.0)
        theta = rng.uniform(0, cap, size=n_inner)
        sa = sigma_values(pa, t, theta)
        sb = sigma_values(pb, t, theta)
        if K < 0:
            violations += int(np.sum(sa < sb - 1e-12))
        elif K > 0:
            violations += int(np.sum(sa > sb + 1e-12))

    elapsed = time.perf_counter() - t0
    ok = (worst_half <= 1e-10 and worst_prod <= 1e-10
          and worst_sum <= 1e-10 and violations == 0 and elapsed < 5.0)
    report(2, "coefficient identity suite", ok,
           f"(half={worst_half:.1e}, prod={worst_prod:.1e}, "
           f"sum={worst_sum:.1e}, mono_viol={violations}, {elapsed:.2f}s)")


def test_criterion_03_convexity_battery():
    t0 = time.perf_counter()
    spec = SampleSpec(seed=33, count=2000)
    battery = [(LOG_COSH, P11), (LOG_SINH, P11), (LOG_X, P01), (LOG_COS, PM11)]
    all_pass = True
    details = []
    for fn, p in battery:
        rep = check_kn_convex(fn, p, spec, TOL)
        all_pass &= rep.passed and rep.t_grid_size == 33
        details.append(f"{fn.name}:{rep.max_violation:.1e}")
    concave = library("quadratic", P01, c=-1.0)
    bad = check_kn_convex(concave, P01, spec, TOL)
    failure_ok = (not bad.passed) and bad.witness is not None
    elapsed = time.perf_counter() - t0
    ok = all_pass and failure_ok and elapsed < 10.0
    report(3, "convexity battery", ok,
           f"({'; '.join(details)}; concave witness={bad.witness}, "
           f"{elapsed:.2f}s)")


def test_criterion_04_lifting():
    spec = SampleSpec(seed=44, count=2000)
    cases = [(LOG_X, P01, None, 0.0), (LOG_COSH, P11, None, 0.0),
             (LOG_SINH, P11, None, 0.0), (LOG_COS, PM11, 0.0, -1.0)]
    ok = True
    details = []
    for fn, p, M, lam in cases:
        rep = check_lifting(fn, p, M, spec, TOL)
        ok &= rep.passed and rep.params["lambda"] == pytest.approx(lam)
        details.append(f"{fn.name}->{rep.params['lambda']}")
    report(4, "transform lifting", ok, f"({', '.join(details)})")


def test_criterion_05_round_trip():
    c1 = oracle_flow("log-x", P01, 1.0, time_grid(0.0, 0.45, 1000))
    c2 = oracle_flow("log-x", P01, 1.0, time_grid(0.0, 0.45, 2000))
    e1 = roundtrip_error(c1, LOG_X, P01, TOL)
    e2 = roundtrip_error(c2, LOG_X, P01, TOL)
    ok = e1 <= 1e-5 and (e1 / e2) >= 3.5
    report(5, "time-change round trip", ok,
           f"(err@1000={e1:.2e}, err@2000={e2:.2e}, gain={e1 / e2:.2f}x)")


def test_criterion_06_correspondence():
    spec = SampleSpec(seed=66, count=500)
    ok = True
    details = []

    # forward: f-side flows become transform-side flows
    c_logx = oracle_flow("log-x", P01, 1.0, time_grid(0.0, 0.45, 2000))
    z1 = r1(c_logx, LOG_X, P01, TOL)
    rep = check_evi_lambda(z1, LINEAR, 0.0, spec, TOL, t_samples=50)
    ok &= rep.passed
    details.append(f"r1(log-x)|0:{rep.passed}")

    t_end = 0.8 * (-math.log(math.sin(0.3)))
    c_logcos = oracle_flow("log-cos", PM11, 0.3, time_grid(0.0, t_end, 2000))
    z2 = r1(c_logcos, LOG_COS, PM11, TOL)
    rep = check_evi_lambda(z2, COS_FN, -1.0, spec, TOL, t_samples=50)
    ok &= rep.passed
    details.append(f"r1(log-cos)|-1:{rep.passed}")

    # backward: closed-form transform-side flows become f-side flows
    lin_flow = oracle_flow("fN-linear", None, 1.0, time_grid(0.0, 0.95, 2000))
    y1 = r2(lin_flow, LOG_X, P01, TOL)
    for form in ("raw", "i", "ii"):
        rep = check_evi_kn(y1, LOG_X, P01, form, spec, TOL, t_samples=50)
        ok &= rep.passed
    details.append("r2(linear)|(0,-1):all-forms")

    ts = np.linspace(0.0, 1.5, 2000)
    cos_flow = Curve(ts, 2.0 * np.arctan(math.tan(0.15) * np.exp(ts)))
    y2 = r2(cos_flow, LOG_COS, PM11, TOL)
    for form in ("raw", "i", "ii"):
        rep = check_evi_kn(y2, LOG_COS, PM11, form, spec, TOL, t_samples=50)
        ok &= rep.passed
    details.append("r2(cos)|(-1,-1):all-forms")

    report(6, "flow correspondence", ok, f"({'; '.join(details)})")


def test_criterion_07_form_equivalence():
    spec = SampleSpec(seed=77, count=200)
    t_end = 0.8 * (-math.log(math.sin(0.3)))
    quad = library("quadratic", P11, c=1.0)
    lin_flow = oracle_flow("fN-linear", None, 1.0, time_grid(0.0, 0.95, 800))

    valid = [
        ("log-x flow", oracle_flow("log-x", P01, 1.0, time_grid(0, 0.45, 800)),
         LOG_X, P01),
        ("log-cosh flow", oracle_flow("log-cosh", P11, 1.0, time_grid(0, 2, 800)),
         LOG_COSH, P11),
        ("log-cos flow", oracle_flow("log-cos", PM11, 0.3,
                                     time_grid(0, t_end, 800)), LOG_COS, PM11),
        ("quadratic flow", oracle_flow("quadratic", None, 1.0,
                                       time_grid(0, 1, 800), c=1.0), quad, P11),
        ("stationary", Curve(np.linspace(0, 1, 50), np.zeros(50)),
         LOG_COSH, P11),
        ("r2(linear)", r2(lin_flow, LOG_X, P01, TOL), LOG_X, P01),
    ]

    def jitter(c, lo=None, hi=None, seed=3):
        rng = np.random.default_rng(seed)
        pts = c.points + 0.05 * rng.standard_normal(c.points.shape)
        if lo is not None:
            pts = np.clip(pts, lo, hi if hi is not None else np.inf)
        return Curve(c.times, pts)

    reversed_logx = Curve(valid[0][1].times, valid[0][1].points[::-1].copy())
    perturbed = [
        ("jittered log-x", jitter(valid[0][1], lo=1e-3), LOG_X, P01),
        ("jittered log-cosh", jitter(valid[1][1]), LOG_COSH, P11),
        ("jittered log-cos", jitter(valid[2][1], lo=-1.55, hi=1.55),
         LOG_COS, PM11),
        ("jittered quadratic", jitter(valid[3][1]), quad, P11),
        ("log-x at wrong K", valid[0][1], LOG_X, CurvatureParams(0.5, -1.0)),
        ("time-reversed log-x", reversed_logx, LOG_X, P01),
    ]

    agreements = 0
    total = 0
    rows = []
    for name, c, fn, p in valid + perturbed:
        expected = name in {v[0] for v in valid}
        outcomes = [check_evi_kn(c, fn, p, form, spec, TOL, t_samples=40).passed
                    for form in ("raw", "i", "ii")]
        total += 1
        agree = (len(set(outcomes)) == 1) and outcomes[0] == expected
        agreements += int(agree)
        rows.append(f"{name}:{outcomes}")
    ok = agreements == total and total >= 12
    report(7, "three-form equivalence", ok,
           f"({agreements}/{total} agree: {'; '.join(rows)})")


def test_criterion_08_contraction_certificates():
    grid = time_grid(0.0, 0.9, 1000)
    c1 = oracle_flow("fN-linear", None, 1.0, grid)
    c2 = oracle_flow("fN-linear", None, 1.5, grid)
    lin_rate = contraction_rate(c1, c2, 0.1).max_log_slope

    grid = time_grid(0.0, 1.5, 2000)
    z1 = r1(oracle_flow("log-cosh", P11, 1.0, grid), LOG_COSH, P11, TOL)
    z2 = r1(oracle_flow("log-cosh", P11, 1.6, grid), LOG_COSH, P11, TOL)
    cosh_rate = contraction_rate(z1, z2, 0.05).max_log_slope

    t_end = 0.8 * (-math.log(math.sin(0.4)))
    grid = time_grid(0.0, t_end, 2000)
    w1 = r1(oracle_flow("log-cos", PM11, 0.3, grid), LOG_COS, PM11, TOL)
    w2 = r1(oracle_flow("log-cos", PM11, 0.4, grid), LOG_COS, PM11, TOL)
    cos_rate = contraction_rate(w1, w2, 0.02).max_log_slope

    ok = (abs(lin_rate) <= 1e-6 and cosh_rate <= 1e-3
          and cos_rate <= 1.0 + 1e-3)
    report(8, "contraction certificates", ok,
           f"(linear={lin_rate:.1e}, cosh={cosh_rate:.1e}, "
           f"cos={cos_rate:.4f} vs bound 1)")


def test_criterion_09_energy_audit():
    ok = True
    details = []
    for name, fn, p, window in [
        ("log-x", LOG_X, P01, (0.01, 0.48)),
        ("log-cosh", LOG_COSH, P11, (0.01, 2.0)),
    ]:
        c = oracle_flow(name, p, 1.0, time_grid(window[0], window[1], 1000))
        audit = energy_audit(c, fn, TOL)
        ok &= audit.passes_pointwise_balance and audit.ede_residual <= 1e-3
        details.append(f"{name}: ede={audit.ede_residual:.1e}")
    fixture = Curve(np.linspace(0, 1, 200), np.full(200, 0.5))
    audit = energy_audit(fixture, LOG_X, TOL)
    ok &= audit.fails_dissipation_inequality
    details.append("stalled-curve EDI fails")
    report(9, "energy dissipation audit", ok, f"({'; '.join(details)})")


def test_criterion_10_stationary_equality():
    spec = SampleSpec(seed=10, count=500)
    c = Curve(np.linspace(0, 1, 50), np.zeros(50))
    worst = 0.0
    ok = True
    for form in ("raw", "i", "ii"):
        rep = check_evi_kn(c, LOG_COSH, P11, form, spec, TOL)
        ok &= rep.passed and abs(rep.max_residual) <= 1e-10
        worst = max(worst, abs(rep.max_residual))
    report(10, "stationary half-angle equality", ok,
           f"(max residual={worst:.1e} <= 1e-10)")


def test_criterion_11_slope_formula():
    rng = np.random.default_rng(11)
    cases = [(LOG_X, P01, 0.5), (LOG_COSH, P11, 0.5),
             (LOG_SINH, P11, 0.5), (LOG_COS, PM11, 0.45 * PM11.theta_singular)]
    worst_rel = 0.0
    ok = True
    for fn, p, R in cases:
        lo, hi = fn.sample_box
        pad = 0.01 * (hi - lo)
        for _ in range(50):
            y = rng.uniform(lo + pad, hi - pad)
            s_def = slope(fn, y, "definition")
            s_for = slope(fn, y, "formula", spec=SampleSpec(5, 100), p=p, R=R)
            rel = abs(s_for - s_def) / max(abs(s_def), 1e-12)
            worst_rel = max(worst_rel, rel)
            ok &= rel <= 1e-3
    report(11, "slope formula vs definition", ok,
           f"(worst relative gap={worst_rel:.2e} over 200 points)")


def test_criterion_12_determinism(tmp_path):
    stages = [
        {"command": "flow", "method": "oracle",
         "functional": {"library": "log-x", "K": 0, "N": -1},
         "y0": 1.0, "grid": {"t0": 0.0, "t1": 0.45, "n": 500},
         "out": "c.csv"},
        {"command": "reparam", "direction": "r1", "input": "c.csv",
         "functional": {"library": "log-x", "K": 0, "N": -1},
         "out": "c_r1.csv"},
        {"command": "check-evi", "input": "c_r1.csv",
         "functional": {"library": "linear", "K": 0, "N": -1, "a": 1.0},
         "form": "lambda", "lambda": 0.0, "z_per_time": 300,
         "time_samples": 40, "seed": 12, "out": "rep.json"},
        {"command": "coeff", "K": -1.0, "N": -1.0,
         "thetas": {"min": 0.1, "max": 3.0, "n": 12},
         "ts": {"min": 0.0, "max": 1.0, "n": 9}, "out": "sigma.csv"},
    ]
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    m1 = pipeline(stages, str(d1))
    m2 = pipeline(stages, str(d2))
    ok = m1.status == "ok" == m2.status
    for name in ("c.csv", "c_r1.csv", "rep.json", "sigma.csv"):
        ok &= (d1 / name).read_bytes() == (d2 / name).read_bytes()
    rep = json.loads((d1 / "rep.json").read_text())
    ok &= rep["pass"] is True
    report(12, "pipeline determinism", ok,
           "(byte-identical outputs across repeated runs)")

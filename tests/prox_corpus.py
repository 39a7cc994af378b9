"""A seeded corpus of 1-d ``prox`` and ``minimizing_movement`` solves, for
comparing the proximal search of two source trees bit for bit.

    PYTHONPATH=<tree>/src python tests/prox_corpus.py > <tree>.jsonl
    PYTHONPATH=src python tests/prox_corpus.py --compare old.jsonl new.jsonl

The first form prints one JSON line per solve: its index, kind, functional,
arguments and result (the output and counters, floats by repr, or the error
type and message).  The second prints the number of solves and, by
functional, the indices of the lines whose results differ; a prox index
is starred where the old solve made 601 f' calls.  26 functionals, each
with 500 prox solves (v in the sampling box, every 50th at an end of the
closure; tau log-uniform in [1e-4, 10]) and 30 minimizing movements (tau
log-uniform in [1e-3, 0.5], 10 to 299 steps), 13780 solves in all.
"""
import hashlib
import json
import math
import sys
from collections import defaultdict

import numpy as np

from knflow.coefficients import CurvatureParams as P
from knflow.core import Tolerance
from knflow.flows import minimizing_movement, prox
from knflow.functionals import expression_functional, fN_functional, library
from knflow.spaces import Interval


def functionals():
    for K, N in [(0.0, -1.0), (0.0, -0.5), (0.0, -10.0)]:
        yield f"log-x{K, N}", library("log-x", P(K, N))
    for K, N in [(1.0, -1.0), (10.0, -2.0), (1000.0, -1.0), (0.01, -1.0), (100.0, -0.1)]:
        yield f"log-cosh{K, N}", library("log-cosh", P(K, N))
    for K, N in [(1.0, -1.0), (1000.0, -1.0), (0.5, -3.0)]:
        yield f"log-sinh{K, N}", library("log-sinh", P(K, N))
    for K, N in [(-1.0, -1.0), (-1000.0, -1.0), (-0.1, -2.0)]:
        yield f"log-cos{K, N}", library("log-cos", P(K, N))
    for c in [1.0, -0.5, -3.0, 10.0]:
        yield f"quadratic({c})", library("quadratic", P(0.0, -1.0), c=c)
    for a in [1.0, 2.0]:
        yield f"linear({a})", library("linear", P(0.0, -1.0), a=a)
    for name, K in [("log-cos", -1.0), ("log-cosh", 1.0), ("log-cosh", 1000.0)]:
        yield f"{name}{K, -1.0}_N", fN_functional(library(name, P(K, -1.0)), P(K, -1.0))
    box = (-3.0, 3.0)
    yield "|x|", expression_functional("pow(x*x, 0.5)", Interval(), sample_box=box)
    yield "x^2/2+cos(3x)", expression_functional("x*x/2 + cos(3*x)", Interval(),
                                                 sample_box=box)
    yield "x^2/2+log(x-0.3)", expression_functional(
        "x*x/2 + log(x - 0.3)", Interval(0.3, math.inf), sample_box=(0.3, 3.0))


def _result(solve):
    try:
        return solve()
    except Exception as exc:
        return {"err": type(exc).__name__, "msg": str(exc)}


def _prox(fn, tau, v):
    s = prox(fn, tau, v)
    return {"w": repr(float(s.output)), "obj": repr(s.objective), "fw": repr(s.f_output),
            "psi": s.psi_evals, "k": s.expansions, "hess": s.hess_evals}


def _mms(fn, tau, y0, horizon):
    c = minimizing_movement(fn, tau, y0, horizon, Tolerance())
    pts = np.asarray(c.points, dtype=float)
    return {"sha": hashlib.sha256(pts.tobytes()).hexdigest()[:16], "n": len(pts),
            "stop": repr(c.stop_time), "psi": c.meta["prox_psi_evals"],
            "hess": c.meta["prox_hess_evals"], "k": c.meta["prox_expansions"]}


def run(n_prox=500, n_mms=30):
    index = 0
    for i, (name, fn) in enumerate(functionals()):
        rng = np.random.default_rng(1000 + i)
        lo, hi = (float(x) for x in fn.sample_box)
        a, b = fn.space.a, fn.space.b
        for j in range(n_prox):
            v = float(rng.uniform(lo, hi))
            if j % 50 == 0 and math.isfinite(a):
                v = a if (j // 50) % 2 == 0 or not math.isfinite(b) else b
            tau = float(10 ** rng.uniform(-4, 1))
            yield {"i": index, "kind": "prox", "fn": name, "v": repr(v), "tau": repr(tau),
                   "out": _result(lambda: _prox(fn, tau, v))}
            index += 1
        for _ in range(n_mms):
            y0 = float(rng.uniform(lo, hi))
            tau = float(10 ** rng.uniform(-3, -0.3))
            horizon = int(rng.integers(10, 300)) * tau
            yield {"i": index, "kind": "mms", "fn": name, "y0": repr(y0), "tau": repr(tau),
                   "horizon": repr(horizon),
                   "out": _result(lambda: _mms(fn, tau, y0, horizon))}
            index += 1


def compare(old_path, new_path):
    old = [json.loads(line) for line in open(old_path)]
    new = [json.loads(line) for line in open(new_path)]
    assert [r["i"] for r in old] == [r["i"] for r in new]
    moved = defaultdict(list)
    for o, n in zip(old, new):
        if o["out"] != n["out"]:
            star = "*" if o["kind"] == "prox" and o["out"].get("psi") == 601 else ""
            moved[o["fn"], o["kind"]].append(f"{o['i']}{star}")
    print(f"{len(old)} solves, {sum(map(len, moved.values()))} differ")
    for (name, kind), idx in moved.items():
        print(f"{name} {kind} ({len(idx)}): {' '.join(idx)}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        compare(*sys.argv[2:4])
    else:
        for record in run():
            print(json.dumps(record))

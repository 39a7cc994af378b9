"""Only ``ode_flow`` loads SciPy, at its first call, not at ``import knflow``.

Each run case uses a fresh interpreter, since a module once imported stays
in ``sys.modules`` for the rest of the process.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints, after each step, the scipy* modules loaded so far.
PRELUDE = """
import json, os, sys, tempfile
import numpy as np

def loaded(step):
    mods = sorted(m for m in sys.modules if m.startswith("scipy"))
    print(json.dumps([step, mods]), flush=True)
"""

NUMPY_ONLY = PRELUDE + """
import knflow
from knflow import (CurvatureParams, SampleSpec, Tolerance, check_evi_kn,
                    check_kn_convex, library, minimizing_movement, oracle_flow,
                    time_grid)
from knflow.cli import main
loaded("import")
with tempfile.TemporaryDirectory() as out:
    cfg = os.path.join(out, "coeff.json")
    with open(cfg, "w") as fh:
        json.dump({"command": "coeff", "K": -1, "N": -1, "out": "s.csv"}, fh)
    assert main(["coeff", "--config", cfg, "--out", out]) == 0
loaded("cli coeff")
p = CurvatureParams(0.0, -1.0)
f = library("log-x", p)
minimizing_movement(f, 1e-3, 1.0, 0.2)
loaded("1-d minimizing_movement")
assert check_kn_convex(f, p, SampleSpec(seed=0, count=200), Tolerance()).passed
loaded("check_kn_convex")
curve = oracle_flow("log-x", p, 1.0, time_grid(0.0, 0.45, 200))
assert check_evi_kn(curve, f, p, "i", SampleSpec(seed=1, count=50), Tolerance()).passed
loaded("check_evi_kn")
from knflow import EuclideanRn, expression_functional, prox
q = library("quadratic", p, c=1.0, dim=2)
prox(q, 0.1, np.array([1.0, -0.5]))
prox(expression_functional("x1*x1 + x2*x2", EuclideanRn(2)), 0.1, np.array([1.0, -0.5]))
loaded("R^n prox")
minimizing_movement(q, 0.1, np.array([1.0, -0.5]), 0.5)
loaded("R^n minimizing_movement")
"""

ODE = PRELUDE + """
from knflow import CurvatureParams, library, ode_flow, time_grid
f = library("log-x", CurvatureParams(0.0, -1.0))
loaded("import")
ode_flow(f, 1.0, time_grid(0.0, 0.2, 20))
loaded("ode_flow")
"""


def _steps(script):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(line) for line in proc.stdout.splitlines()
                if line.startswith("["))


@pytest.fixture(scope="module")
def numpy_only_steps():
    return _steps(NUMPY_ONLY)


@pytest.mark.parametrize("step", ["import", "cli coeff", "1-d minimizing_movement",
                                  "check_kn_convex", "check_evi_kn"])
def test_numpy_paths_load_no_scipy(numpy_only_steps, step):
    assert numpy_only_steps[step] == []


def test_rn_prox_and_minimizing_movement_load_no_scipy(numpy_only_steps):
    # the Newton system goes to numpy's own LAPACK gesv
    assert numpy_only_steps["R^n prox"] == []
    assert numpy_only_steps["R^n minimizing_movement"] == []


def test_ode_flow_loads_scipy_integrate():
    steps = _steps(ODE)
    assert steps["import"] == []
    assert "scipy.integrate" in steps["ode_flow"]


def test_scipy_is_imported_only_in_ode_flow():
    # a source scan: each import statement of scipy*, with its outermost function
    import knflow
    found = []
    for path in sorted(Path(knflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}
        for func in ast.walk(tree):  # breadth first: outer functions come first
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    scope.setdefault(node, func.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, scope.get(node), name) for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == [("flows.py", "ode_flow", "scipy.integrate")]

"""knflow needs numpy only: no import, solve or CLI stage loads SciPy.

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
from knflow import CurvatureParams, EuclideanRn, expression_functional, library
from knflow import ode_flow, time_grid
from knflow.cli import main
loaded("import")
f = library("log-cos", CurvatureParams(-1.0, -1.0))
assert ode_flow(f, 0.5, time_grid(0.0, 2.0, 41)).meta["ode_status"] == 1
loaded("1-d ode_flow to a boundary event")
g = expression_functional("x1*x1/2 + x2*x2 + cos(3*x1)", EuclideanRn(2))
ode_flow(g, np.array([0.4, -1.0]), time_grid(0.0, 1.0, 21))
loaded("R^2 ode_flow")
with tempfile.TemporaryDirectory() as out:
    cfg = os.path.join(out, "flow.json")
    with open(cfg, "w") as fh:
        json.dump({"command": "flow", "method": "ode", "y0": 1.0, "out": "ode.csv",
                   "functional": {"library": "log-x", "K": 0, "N": -1},
                   "grid": {"t0": 0.0, "t1": 0.49, "n": 101}}, fh)
    assert main(["flow", "--config", cfg, "--out", out]) == 0
loaded("cli flow ode")
"""

# Refuses every scipy* import before the script runs.
NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} refused")

sys.meta_path.insert(0, RefuseScipy())
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


ODE_STEPS = ["import", "1-d ode_flow to a boundary event", "R^2 ode_flow",
             "cli flow ode"]


def test_ode_flow_loads_no_scipy():
    steps = _steps(ODE)
    assert list(steps) == ODE_STEPS
    assert all(steps[step] == [] for step in ODE_STEPS)


def test_ode_flow_runs_where_scipy_cannot_be_imported():
    steps = _steps(NO_SCIPY + ODE)
    assert list(steps) == ODE_STEPS
    with pytest.raises(AssertionError, match="scipy refused"):
        _steps(NO_SCIPY + "import scipy.integrate")


def test_no_scipy_import_in_the_package():
    # a source scan of every import statement, at any depth
    import knflow
    found = []
    for path in sorted(Path(knflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert found == []

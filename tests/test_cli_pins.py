"""Pinned bytes of every output of a small fixed CLI pipeline.

`tests/data/cli_pins.json` maps each output file of `PIN_STAGES` to the
sha256 of its bytes as written by the per-value CSV writer and per-token
reader that the vectorised CSV path replaced.  The stages cover oracle,
ODE and minimizing-movement flows, r1 and r2, an EVI check, an energy
audit, a coefficient table with `inf` entries and a curve on R^2, so the
pins hold every CSV layout the CLI writes and every file it reads back.
"""

import hashlib
import json
import math
from pathlib import Path

from knflow.cli import pipeline

PINS = Path(__file__).parent / "data" / "cli_pins.json"

LOG_X = {"library": "log-x", "K": 0, "N": -1}
LOG_COSH = {"library": "log-cosh", "K": 1, "N": -1}
PLANE = {"library": "quadratic", "K": 1, "N": -1, "c": 1.0, "dim": 2}
GRID = {"t0": 0.0, "t1": 0.49, "n": 393}

PIN_STAGES = [
    {"command": "flow", "method": "oracle", "functional": LOG_X, "y0": 1.0,
     "grid": GRID, "out": "c.csv"},
    {"command": "flow", "method": "ode", "functional": LOG_X, "y0": 1.0,
     "grid": {"t0": 0.0, "t1": 0.49, "n": 101}, "out": "ode.csv"},
    {"command": "flow", "method": "mms", "functional": LOG_X, "y0": 1.0,
     "tau": 0.01, "horizon": 0.3, "out": "mms.csv"},
    {"command": "reparam", "direction": "r1", "input": "c.csv",
     "functional": LOG_X, "out": "c_r1.csv"},
    {"command": "reparam", "direction": "r2", "input": "c_r1.csv",
     "functional": LOG_X, "out": "c_rt.csv"},
    {"command": "check-evi", "input": "c.csv", "functional": LOG_X,
     "form": "i", "K": 0, "N": -1, "z_per_time": 60, "time_samples": 20,
     "seed": 7, "out": "evi.json"},
    {"command": "flow", "method": "oracle", "functional": LOG_COSH, "y0": 1.0,
     "grid": {"t0": 0.01, "t1": 2.0, "n": 400}, "out": "cosh.csv"},
    {"command": "audit-energy", "input": "cosh.csv", "functional": LOG_COSH,
     "out_csv": "audit.csv", "out_json": "audit.json"},
    {"command": "coeff", "K": -1.0, "N": -1.0,
     "thetas": [0.0, 1e-5, 1.0, math.pi, 4.0], "ts": [0.0, 1e-4, 0.5, 1.0],
     "out": "sigma.csv"},
    {"command": "flow", "method": "oracle", "functional": PLANE,
     "y0": [1.0, -0.5], "grid": {"t0": 0.0, "t1": 1.0, "n": 50}, "c": 1.0,
     "out": "plane.csv"},
    {"command": "flow", "method": "mms", "functional": PLANE,
     "y0": [1.0, -0.5], "tau": 0.1, "horizon": 0.5, "out": "plane_mms.csv"},
]


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def test_outputs_match_pins(tmp_path):
    manifest = pipeline(PIN_STAGES, str(tmp_path))
    assert manifest.status == "ok"
    assert _digests(tmp_path) == json.loads(PINS.read_text())

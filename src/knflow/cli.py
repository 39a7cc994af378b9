"""Batch driver: JSON experiment configs in, curves / reports / manifests out.

One config file describes one command; a pipeline is an explicit ordered
list of such configs.  All numeric output is serialized with shortest
round-trip decimal formatting and written atomically (temp file + rename),
so re-running a config with the same seed reproduces every output byte for
byte.  Exit codes: 0 success, 2 a check ran and failed, 1 hard error.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analysis import (
    EVI_KN_FORMS,
    check_evi_integrated,
    check_evi_kn,
    check_evi_lambda,
    check_evi_local,
    contraction_rate,
    energy_audit,
)
from .coefficients import CurvatureParams, sigma_values
from .convexity import check_kn_convex, check_lambda_convex, check_lifting
from .core import SampleSpec, Tolerance, _integer, _number, _pair, _points
from .errors import ConfigInvalid, IoError, KNFlowError
from .flows import Curve, minimizing_movement, ode_flow, oracle_flow
from .functionals import functional_from_json
from .reparam import r1, r2

logger = logging.getLogger("knflow")

COMMANDS = ("coeff", "flow", "check-convexity", "check-evi", "reparam",
            "contract", "audit-energy", "pipeline")


@dataclass
class RunManifest:
    """What a run produced; numeric outputs are byte-reproducible."""

    version: str
    command: str
    config_sha256: str
    outputs: list
    status: str  # "pass", "fail" (check failed) or "ok" (no check involved)
    started: float
    finished: float
    stages: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 2 if self.status == "fail" else 0

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "config_sha256": self.config_sha256,
            "outputs": self.outputs,
            "status": self.status,
            "timestamps": {"start": self.started, "end": self.finished},
            "stages": self.stages,
        }


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

# Curves written in the running pipeline, by real path: (table, meta JSON
# text, stat identity of the CSV and its sidecar).  None outside a pipeline.
_CURVES = contextvars.ContextVar("knflow_curves", default=None)
# Text of the columns the running pipeline wrote, by their bytes; else None.
_COLUMNS = contextvars.ContextVar("knflow_columns", default=None)


def _atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-knflow-")
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None:  # the write or the rename failed
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    curves = _CURVES.get()
    if curves:
        curves.pop(os.path.realpath(path), None)


def _texts(col) -> list:
    """repr() of each value of a float column, the shortest decimal that
    round-trips it (``inf`` and ``-inf`` spelled out); NaN is refused.  A
    column that the running pipeline already wrote is not formatted again."""
    col = np.asarray(col, dtype=float)
    if np.isnan(col).any():
        raise IoError("NaN cannot be serialized")
    memo = _COLUMNS.get()
    if memo is None or not col.size:
        return list(map(repr, col.tolist()))
    key = col.tobytes()  # exact bits: -0.0 and 0.0 differ
    if key not in memo:
        memo[key] = "\n".join(map(repr, col.tolist()))
    return memo[key].split("\n")


def _csv_text(header: str, *cols) -> str:
    """CSV text: the header, then one line per row of the columns of texts."""
    return "\n".join([header, *map(",".join, zip(*cols)), ""])


def write_curve_csv(path: str, curve: Curve) -> np.ndarray:
    """Write the curve's (t, x...) table; returns the table."""
    table = np.column_stack((curve.times, curve.points))
    header = ",".join(["t", *(f"x{j}" for j in range(table.shape[1] - 1))])
    _atomic_write(path, _csv_text(header, *map(_texts, table.T)))
    return table


def _read_curve(path: str, space) -> Curve:
    """The curve CSV at path in the space: one x column is a curve on R^1 too."""
    curve = read_curve_csv(path)
    shape = (curve.n_samples, *space.shape)
    if curve.points.size == math.prod(shape):
        curve.points = curve.points.reshape(shape)
    return curve


def _curve_from_table(arr: np.ndarray, meta: dict) -> Curve:
    pts = arr[:, 1] if arr.shape[1] == 2 else arr[:, 1:]
    return Curve(arr[:, 0], pts, stop_time=meta.get("stop_time"), meta=meta)


def _file_identity(path: str):
    """(inode, mtime, size) of a curve CSV and its sidecar; None if missing."""
    try:
        return tuple((st.st_ino, st.st_mtime_ns, st.st_size)
                     for st in map(os.stat, (path, path + ".meta.json")))
    except OSError:
        return None


def _handed_over(path: str):
    """The curve this pipeline last wrote to path, if the files are unchanged.

    The repr/loadtxt round trip is bit-exact, so the table kept at write
    time equals what the CSV parses to; each caller gets its own copy.
    """
    curves = _CURVES.get()
    if not curves:
        return None
    key = os.path.realpath(path)
    entry = curves.get(key)
    if entry is None:
        return None
    table, meta_text, identity = entry
    if _file_identity(path) != identity:  # changed outside this pipeline
        del curves[key]
        return None
    logger.debug("curve %s handed over in memory", path)
    return _curve_from_table(table.copy(), json.loads(meta_text))


def read_curve_csv(path: str) -> Curve:
    """Curve from a CSV with header t,x0[,x1...]; blanks and spaces tolerated.

    Within a pipeline, a curve that write_curve wrote to path earlier in
    the same pipeline comes from memory, equal to what the files parse to.
    """
    curve = _handed_over(path)
    if curve is not None:
        return curve
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"{path} is not a curve CSV: {exc}") from exc
    header, _, body = text.lstrip().partition("\n")
    names = [name.strip() for name in header.split(",")]
    if names != ["t"] + [f"x{j}" for j in range(max(len(names) - 1, 1))]:
        raise ConfigInvalid(f"{path} is not a curve CSV (header t,x0[,x1...])")
    if not body.strip():
        raise ConfigInvalid(f"{path} holds no samples")
    try:
        arr = np.loadtxt(body.splitlines(), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigInvalid(f"{path}: malformed curve CSV: {exc}") from exc
    if arr.shape[1] != len(names):
        raise ConfigInvalid(f"{path}: {arr.shape[1]} columns, {len(names)} names")
    meta = {}
    meta_path = path + ".meta.json"
    if os.path.exists(meta_path):
        try:
            with open(meta_path) as f:
                meta = json.load(f)
        except OSError as exc:
            raise IoError(f"cannot read {meta_path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigInvalid(f"{meta_path} is not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise ConfigInvalid(f"{meta_path} must hold a JSON object")
    return _curve_from_table(arr, meta)


def write_json(path: str, payload: dict) -> str:
    """Write payload as sorted, indented JSON; returns the text written."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, text)
    return text


def write_curve(path: str, curve: Curve):
    table = write_curve_csv(path, curve)
    meta = {**curve.meta, "stop_time": curve.stop_time}
    meta_text = write_json(path + ".meta.json", _jsonable(meta))
    curves = _CURVES.get()
    if curves is not None:
        curves[os.path.realpath(path)] = (table, meta_text, _file_identity(path))
    return [path, path + ".meta.json"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "coeff": {"required": {"K", "N", "out"},
              "optional": {"command", "thetas", "theta", "ts", "t", "seed"}},
    "flow": {"required": {"method", "functional", "y0", "out"},
             "optional": {"command", "times", "grid", "tau", "horizon",
                          "rtol", "seed", "oracle", "c", "a"}},
    "check-convexity": {"required": {"kind", "functional", "out"},
                        "optional": {"command", "lambda", "K", "N", "pairs",
                                     "seed", "tolerance", "M", "box"}},
    "check-evi": {"required": {"input", "functional", "form", "out"},
                  "optional": {"command", "lambda", "K", "N", "radius",
                               "z_per_time", "time_samples", "seed",
                               "tolerance", "z_domain"}},
    "reparam": {"required": {"direction", "input", "functional", "out"},
                "optional": {"command", "K", "N", "tolerance"}},
    "contract": {"required": {"input1", "input2", "r", "out"},
                 "optional": {"command", "s_grid"}},
    "audit-energy": {"required": {"input", "functional", "out_csv",
                                  "out_json"},
                     "optional": {"command", "tolerance", "slope_r0",
                                  "window"}},
    "pipeline": {"required": {"stages"}, "optional": {"command"}},
}


def validate_config(cfg: dict, command: str) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    if command not in COMMANDS:  # a tuple: no hashing of a list or a dict
        raise ConfigInvalid(f"unknown command {command!r}")
    if "command" in cfg and cfg["command"] != command:
        raise ConfigInvalid(
            f"config says command={cfg['command']!r}, invoked as {command!r}")
    schema = _SCHEMAS[command]
    keys = set(cfg)
    unknown = keys - schema["required"] - schema["optional"]
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    missing = schema["required"] - keys
    if missing:
        raise ConfigInvalid(f"missing config keys: {sorted(missing)}")
    return cfg


def _tolerance_from(cfg: dict) -> Tolerance:
    t = cfg.get("tolerance", {})
    if not isinstance(t, dict):
        raise ConfigInvalid(f"tolerance must be a mapping, got {t!r}")
    return Tolerance(**{k: _number(t[k], f"tolerance {k}")
                        for k in ("abs", "rel", "h_min") if k in t})


def _linspace(spec, lo: str, hi: str, what: str, least: int,
              default_n=None) -> np.ndarray:
    """np.linspace from a {lo, hi, n} mapping with an integer n >= least."""
    if not isinstance(spec, dict) or lo not in spec or hi not in spec \
            or set(spec) - {lo, hi, "n"}:
        raise ConfigInvalid(f"{what} must be a list of numbers or a mapping "
                            f"with keys {lo}, {hi} and n")
    n = _number(spec.get("n", default_n), f"{what} n")
    if not (n.is_integer() and n >= least):
        raise ConfigInvalid(f"{what} n must be an integer >= {least}, "
                            f"got {spec.get('n')!r}")
    return np.linspace(_number(spec[lo], f"{what} {lo}"),
                       _number(spec[hi], f"{what} {hi}"), int(n))


def _grid_from(cfg: dict) -> np.ndarray:
    if "times" in cfg:
        return _points(cfg["times"], "times", 2)
    if "grid" in cfg:
        return _linspace(cfg["grid"], "t0", "t1", "grid", 2)
    raise ConfigInvalid("flow config needs 'times' or 'grid'")


def _axis_from(spec, what: str, default_n=33) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        return _points(spec, what, 1)
    return _linspace(spec, "min", "max", what, 1, default_n)


def _params(cfg: dict, K=None, N=None) -> CurvatureParams:
    """(K, N) from a config; K and N are required unless given defaults."""
    return CurvatureParams(_number(cfg.get("K", K), "K"),
                           _number(cfg.get("N", N), "N"))


def _out_path(cfg_value: str, out_dir: str) -> str:
    if not isinstance(cfg_value, str):
        raise ConfigInvalid(f"a file name must be a string, got {cfg_value!r}")
    return os.path.join(out_dir, cfg_value)  # an absolute cfg_value stays as it is


# ---------------------------------------------------------------------------
# command handlers: each returns (outputs, status)
# ---------------------------------------------------------------------------

def _run_coeff(cfg, out_dir):
    p = _params(cfg)
    thetas = _axis_from(cfg.get("thetas", cfg.get("theta", {"min": 0.0, "max": 2.0})),
                        "theta axis")
    ts = _axis_from(cfg.get("ts", cfg.get("t", {"min": 0.0, "max": 1.0})), "t axis")
    sig = _texts(sigma_values(p, ts, thetas[:, None]).ravel())
    t_col = _texts(ts)  # each axis value is formatted once, not once per row
    th_col = [th for th in _texts(thetas) for _ in t_col]
    path = _out_path(cfg["out"], out_dir)
    _atomic_write(path, _csv_text("theta,t,sigma", th_col, t_col * len(thetas), sig))
    return [path], "ok"


def _run_flow(cfg, out_dir):
    fn = functional_from_json(cfg["functional"])
    method = cfg["method"]
    y0 = _points(cfg["y0"], "y0", 1) if fn.space.shape else _number(cfg["y0"], "y0")
    if method == "oracle":
        name = cfg.get("oracle", cfg["functional"].get("library"))
        kwargs = {key: _number(cfg[key], key) for key in ("c", "a") if key in cfg}
        curve = oracle_flow(name, fn.params, y0, _grid_from(cfg), **kwargs)
    elif method == "ode":
        curve = ode_flow(fn, y0, _grid_from(cfg),
                         rtol=_number(cfg.get("rtol", 1e-9), "rtol"))
    elif method == "mms":
        curve = minimizing_movement(fn, _number(cfg["tau"], "tau"), y0,
                                    _number(cfg["horizon"], "horizon"))
    else:
        raise ConfigInvalid(f"unknown flow method {method!r}")
    return write_curve(_out_path(cfg["out"], out_dir), curve), "ok"


def _run_check_convexity(cfg, out_dir):
    fn = functional_from_json(cfg["functional"])
    spec = SampleSpec(seed=_integer(cfg.get("seed", 0), "seed"),
                      count=_integer(cfg.get("pairs", 2000), "pairs"))
    tol = _tolerance_from(cfg)
    box = _pair(cfg["box"], "box") if "box" in cfg else None
    if cfg["kind"] == "lambda":
        rep = check_lambda_convex(fn, _number(cfg["lambda"], "lambda"), spec,
                                  tol, box=box)
    elif cfg["kind"] == "kn":
        rep = check_kn_convex(fn, _params(cfg), spec, tol, box=box)
    elif cfg["kind"] == "lifting":
        M = cfg.get("M", fn.upper_bound)  # null: no upper bound
        M = None if M is None else _number(M, "M")
        rep = check_lifting(fn, _params(cfg), M, spec, tol, box=box)
    else:
        raise ConfigInvalid(f"unknown convexity kind {cfg['kind']!r}")
    return _write_report(rep, _out_path(cfg["out"], out_dir))


def _write_report(rep, path: str):
    write_json(path, _jsonable(rep.to_json()))
    return [path], ("pass" if rep.passed else "fail")


def _run_check_evi(cfg, out_dir):
    fn = functional_from_json(cfg["functional"])
    curve = _read_curve(_out_path(cfg["input"], out_dir), fn.space)
    spec = SampleSpec(seed=_integer(cfg.get("seed", 0), "seed"),
                      count=_integer(cfg.get("z_per_time", 500), "z_per_time"))
    tol = _tolerance_from(cfg)
    t_samples = _integer(cfg.get("time_samples", 50), "time_samples")
    form = cfg["form"]
    if form == "lambda":
        rep = check_evi_lambda(curve, fn, _number(cfg["lambda"], "lambda"),
                               spec, tol, t_samples=t_samples)
    elif form in EVI_KN_FORMS:
        rep = check_evi_kn(curve, fn, _params(cfg), form, spec, tol,
                           t_samples=t_samples,
                           z_domain=cfg.get("z_domain", "extended"))
    elif form == "integrated":
        rep = check_evi_integrated(curve, fn, _params(cfg), spec, tol,
                                   t_samples=t_samples)
    elif form == "local":
        rep = check_evi_local(curve, fn, _number(cfg["lambda"], "lambda"),
                              _number(cfg["radius"], "radius"), spec, tol,
                              t_samples=t_samples)
    else:
        raise ConfigInvalid(f"unknown evi form {form!r}")
    return _write_report(rep, _out_path(cfg["out"], out_dir))


def _run_reparam(cfg, out_dir):
    fn = functional_from_json(cfg["functional"])
    curve = _read_curve(_out_path(cfg["input"], out_dir), fn.space)
    p = fn.params
    if p is None or "K" in cfg:
        p = _params(cfg, 0.0, -1.0)
    tol = _tolerance_from(cfg)
    if cfg["direction"] not in ("r1", "r2"):
        raise ConfigInvalid("direction must be r1 or r2")
    change = r1 if cfg["direction"] == "r1" else r2
    return write_curve(_out_path(cfg["out"], out_dir), change(curve, fn, p, tol)), "ok"


def _run_contract(cfg, out_dir):
    c1 = read_curve_csv(_out_path(cfg["input1"], out_dir))
    c2 = read_curve_csv(_out_path(cfg["input2"], out_dir))
    s_grid = _points(cfg["s_grid"], "s_grid", 1) if "s_grid" in cfg else None
    rate = contraction_rate(c1, c2, _number(cfg["r"], "r"), s_grid)
    path = _out_path(cfg["out"], out_dir)
    write_json(path, {"max_log_slope": rate.max_log_slope,
                      "fitted_rate": rate.fitted_rate,
                      "n_samples": int(len(rate.times))})
    return [path], "ok"


def _run_audit_energy(cfg, out_dir):
    fn = functional_from_json(cfg["functional"])
    curve = _read_curve(_out_path(cfg["input"], out_dir), fn.space)
    if "window" in cfg:
        lo, hi = _pair(cfg["window"], "window")
        curve = curve.segment(_number(lo, "window"), _number(hi, "window"))
    audit = energy_audit(curve, fn, _tolerance_from(cfg),
                         slope_r0=_number(cfg.get("slope_r0", 1e-3), "slope_r0"))
    csv_path = _out_path(cfg["out_csv"], out_dir)
    _atomic_write(csv_path, _csv_text("t,speed,slope,energy,residual", *map(_texts, (
        audit.times, audit.speed, audit.slope, audit.energy, audit.residual))))
    json_path = _out_path(cfg["out_json"], out_dir)
    write_json(json_path, {
        "ede_residual": audit.ede_residual,
        "pointwise_balance": audit.passes_pointwise_balance,
        "fails_dissipation_inequality": audit.fails_dissipation_inequality,
    })
    status = "pass" if audit.passes_pointwise_balance else "fail"
    return [csv_path, json_path], status


_HANDLERS = {
    "coeff": _run_coeff,
    "flow": _run_flow,
    "check-convexity": _run_check_convexity,
    "check-evi": _run_check_evi,
    "reparam": _run_reparam,
    "contract": _run_contract,
    "audit-energy": _run_audit_energy,
}


def _config_hash(cfg) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run(cfg: dict, out_dir: str = ".", command: str = None) -> RunManifest:
    """Execute one experiment config and write its outputs atomically."""
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    command = command or cfg.get("command")
    if command is None:
        raise ConfigInvalid("no command given")
    cfg = validate_config(cfg, command)
    if command == "pipeline":
        return pipeline(cfg["stages"], out_dir)
    started = time.time()
    outputs, status = _HANDLERS[command](cfg, out_dir)
    return RunManifest(version=__version__, command=command,
                       config_sha256=_config_hash(cfg), outputs=outputs,
                       status=status, started=started, finished=time.time())


def pipeline(configs, out_dir: str = ".") -> RunManifest:
    """Run stages sequentially.

    A hard error stops the pipeline; a check failure is recorded in the
    manifest and the remaining stages still run.  A stage that reads a
    curve written earlier in this pipeline gets it from memory, and a
    column that the pipeline already wrote is not formatted again; outputs
    are byte-identical to standalone runs that read and write the disk.
    """
    if not isinstance(configs, list):
        raise ConfigInvalid("pipeline expects a list of stage configs")
    started = time.time()
    outputs, stages = [], []
    status = "ok"
    tokens = _CURVES.set({}), _COLUMNS.set({})
    try:
        for k, stage_cfg in enumerate(configs):
            t0 = time.perf_counter()
            manifest = run(stage_cfg, out_dir)
            outputs.extend(manifest.outputs)
            stages.append({"index": k, "command": manifest.command,
                           "status": manifest.status,
                           "config_sha256": manifest.config_sha256,
                           "elapsed_s": time.perf_counter() - t0})
            if manifest.status == "fail":
                status = "fail"
    finally:
        _COLUMNS.reset(tokens[1])
        _CURVES.reset(tokens[0])
    return RunManifest(version=__version__, command="pipeline",
                       config_sha256=_config_hash({"stages": configs}),
                       outputs=outputs, status=status, started=started,
                       finished=time.time(), stages=stages)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="knflow",
        description="Gradient flows of dimensionally convex functionals: "
                    "flow generation, inequality checking, reparametrization "
                    "and dissipation audits.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 1
    try:
        manifest = run(cfg, args.out, command=args.command)
    except KNFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_json(os.path.join(args.out, "manifest.json"), manifest.to_json())
    print(json.dumps({"status": manifest.status, "outputs": manifest.outputs}))
    return manifest.exit_code


if __name__ == "__main__":
    sys.exit(main())

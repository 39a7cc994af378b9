import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knflow.cli import (
    _csv_text,
    main,
    pipeline,
    read_curve_csv,
    run,
    validate_config,
    write_curve,
)
from knflow.errors import ConfigInvalid, IoError
from knflow.flows import Curve


def flow_cfg(out="curve.csv"):
    # grid spacing 0.00125 puts t = 0.375 exactly on the grid (index 300)
    return {
        "command": "flow", "method": "oracle",
        "functional": {"library": "log-x", "K": 0, "N": -1},
        "y0": 1.0, "grid": {"t0": 0.0, "t1": 0.49, "n": 393},
        "out": out,
    }


def evi_cfg(form, K, out, curve="curve.csv"):
    return {
        "command": "check-evi", "input": curve,
        "functional": {"library": "log-x", "K": 0, "N": -1},
        "form": form, "K": K, "N": -1,
        "z_per_time": 200, "time_samples": 30, "seed": 5,
        "out": out,
    }


class TestValidation:
    def test_unknown_keys_rejected(self):
        cfg = flow_cfg()
        cfg["bogus"] = 1
        with pytest.raises(ConfigInvalid, match="bogus"):
            validate_config(cfg, "flow")

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigInvalid, match="missing"):
            validate_config({"method": "oracle"}, "flow")

    def test_command_mismatch(self):
        with pytest.raises(ConfigInvalid):
            validate_config(flow_cfg(), "coeff")


class TestFlowCommand:
    def test_oracle_curve_values(self, tmp_path):
        manifest = run(flow_cfg(), str(tmp_path))
        assert manifest.status == "ok"
        curve = read_curve_csv(str(tmp_path / "curve.csv"))
        i = int(np.argmin(np.abs(curve.times - 0.375)))
        assert curve.times[i] == pytest.approx(0.375, abs=1e-12)
        assert curve.points[i] == pytest.approx(0.5, abs=1e-12)
        meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
        assert meta["stop_time"] == pytest.approx(0.5)

    def test_mms_flow(self, tmp_path):
        cfg = {
            "command": "flow", "method": "mms",
            "functional": {"library": "quadratic", "K": 1, "N": -1, "c": 1.0},
            "y0": 1.0, "tau": 0.5, "horizon": 1.0, "out": "mms.csv",
        }
        run(cfg, str(tmp_path))
        curve = read_curve_csv(str(tmp_path / "mms.csv"))
        assert curve.points[1] == pytest.approx(2 / 3, abs=1e-9)

    def test_expr_functional_ode(self, tmp_path):
        cfg = {
            "command": "flow", "method": "ode",
            "functional": {"expr": "pow(x,2)/2"},
            "y0": 2.0, "grid": {"t0": 0.0, "t1": 1.0, "n": 11},
            "out": "ode.csv",
        }
        manifest = run(cfg, str(tmp_path))
        assert manifest.status == "ok"
        # the forward-mode gradient of x^2/2 is x, so y(t) = 2 e^{-t}
        curve = read_curve_csv(str(tmp_path / "ode.csv"))
        np.testing.assert_allclose(curve.points, 2.0 * np.exp(-curve.times),
                                   rtol=1e-7)
        assert curve.meta["ode_nfev"] > 0 and curve.meta["ode_status"] == 0


class TestCheckCommands:
    def test_evi_pass_and_fail_exit_codes(self, tmp_path):
        run(flow_cfg(), str(tmp_path))
        good = run(evi_cfg("ii", 0.0, "rep_good.json"), str(tmp_path))
        assert good.status == "pass" and good.exit_code == 0
        bad = run(evi_cfg("ii", 0.5, "rep_bad.json"), str(tmp_path))
        assert bad.status == "fail" and bad.exit_code == 2
        rep = json.loads((tmp_path / "rep_bad.json").read_text())
        assert rep["pass"] is False and rep["worst"] is not None

    def test_convexity_report_schema(self, tmp_path):
        cfg = {
            "command": "check-convexity", "kind": "kn",
            "functional": {"library": "log-x", "K": 0, "N": -1},
            "K": 0, "N": -1, "pairs": 300, "seed": 2, "out": "conv.json",
        }
        manifest = run(cfg, str(tmp_path))
        assert manifest.status == "pass"
        rep = json.loads((tmp_path / "conv.json").read_text())
        assert rep["kind"] == "KN"
        assert {"K", "N", "pairs", "max_violation", "witness", "pass"} <= set(rep)

    def test_lifting_kind(self, tmp_path):
        cfg = {
            "command": "check-convexity", "kind": "lifting",
            "functional": {"library": "log-cos", "K": -1, "N": -1},
            "K": -1, "N": -1, "M": 0.0, "pairs": 300, "seed": 2,
            "out": "lift.json",
        }
        manifest = run(cfg, str(tmp_path))
        assert manifest.status == "pass"
        rep = json.loads((tmp_path / "lift.json").read_text())
        assert rep["lambda"] == pytest.approx(-1.0)

    def test_audit_energy_command(self, tmp_path):
        cfg = {
            "command": "flow", "method": "oracle",
            "functional": {"library": "log-cosh", "K": 1, "N": -1},
            "y0": 1.0, "grid": {"t0": 0.01, "t1": 2.0, "n": 400},
            "out": "cosh.csv",
        }
        run(cfg, str(tmp_path))
        audit_cfg = {
            "command": "audit-energy", "input": "cosh.csv",
            "functional": {"library": "log-cosh", "K": 1, "N": -1},
            "out_csv": "audit.csv", "out_json": "audit.json",
        }
        manifest = run(audit_cfg, str(tmp_path))
        assert manifest.status == "pass"
        head = (tmp_path / "audit.csv").read_text().splitlines()[0]
        assert head == "t,speed,slope,energy,residual"
        summary = json.loads((tmp_path / "audit.json").read_text())
        assert summary["ede_residual"] < 1e-3

    def test_contract_command(self, tmp_path):
        base = {
            "command": "flow", "method": "oracle",
            "functional": {"library": "linear", "K": 0, "N": -1, "a": 1.0},
            "oracle": "fN-linear",
            "grid": {"t0": 0.0, "t1": 0.9, "n": 200},
        }
        run({**base, "y0": 1.0, "out": "l1.csv"}, str(tmp_path))
        run({**base, "y0": 1.5, "out": "l2.csv"}, str(tmp_path))
        cfg = {"command": "contract", "input1": "l1.csv", "input2": "l2.csv",
               "r": 0.1, "out": "rate.json"}
        manifest = run(cfg, str(tmp_path))
        assert manifest.status == "ok"
        rate = json.loads((tmp_path / "rate.json").read_text())
        assert abs(rate["max_log_slope"]) <= 1e-6

    def test_coeff_table(self, tmp_path):
        cfg = {"command": "coeff", "K": -1.0, "N": -1.0,
               "thetas": [1.0, math.pi], "ts": [0.0, 0.5, 1.0],
               "out": "sigma.csv"}
        run(cfg, str(tmp_path))
        rows = (tmp_path / "sigma.csv").read_text().strip().split("\n")
        assert rows[0] == "theta,t,sigma"
        # singular theta = pi emits inf
        assert any(row.endswith(",inf") for row in rows[1:])


class TestPipeline:
    def stages(self):
        return [
            flow_cfg("c.csv"),
            {"command": "reparam", "direction": "r1", "input": "c.csv",
             "functional": {"library": "log-x", "K": 0, "N": -1},
             "out": "c_r1.csv"},
            {"command": "check-evi", "input": "c_r1.csv",
             "functional": {"library": "linear", "K": 0, "N": -1, "a": 1.0},
             "form": "lambda", "lambda": 0.0, "z_per_time": 200,
             "time_samples": 30, "seed": 5, "out": "rep.json"},
        ]

    def test_correspondence_pipeline(self, tmp_path):
        manifest = pipeline(self.stages(), str(tmp_path))
        assert manifest.status == "ok"
        assert manifest.exit_code == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["pass"] is True

    def test_check_failure_recorded_but_continues(self, tmp_path):
        stages = self.stages()
        stages.insert(2, evi_cfg("ii", 0.5, "bad.json", curve="c.csv"))
        manifest = pipeline(stages, str(tmp_path))
        assert manifest.status == "fail"
        assert manifest.exit_code == 2
        # later stage still executed
        assert (tmp_path / "rep.json").exists()

    def test_empty_pipeline(self, tmp_path):
        manifest = pipeline([], str(tmp_path))
        assert manifest.status == "ok" and manifest.outputs == []

    def test_stage_times_in_manifest(self, tmp_path, capsys):
        cfg_path = tmp_path / "pipe.json"
        cfg_path.write_text(json.dumps({"stages": self.stages()}))
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["pipeline", "--config", str(cfg_path), "--out",
                         str(d)]) == 0
            stages = json.loads((d / "manifest.json").read_text())["stages"]
            assert [s["index"] for s in stages] == [0, 1, 2]
            for s in stages:
                assert isinstance(s["elapsed_s"], float) and s["elapsed_s"] >= 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            if name != "manifest.json":
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_determinism_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        pipeline(self.stages(), str(d1))
        pipeline(self.stages(), str(d2))
        for name in ("c.csv", "c_r1.csv", "rep.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


class TestMain:
    def test_cli_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(flow_cfg()))
        code = main(["flow", "--config", str(cfg_path), "--out",
                     str(tmp_path)])
        assert code == 0
        assert (tmp_path / "manifest.json").exists()
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["version"] and man["config_sha256"]

    def test_cli_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"method": "oracle"}))
        assert main(["flow", "--config", str(cfg_path), "--out",
                     str(tmp_path)]) == 1

    def test_curve_csv_roundtrip(self, tmp_path):
        c = Curve(np.array([0.0, 0.1, 0.3]), np.array([1.0, 0.9, 0.7]),
                  stop_time=2.0, meta={"method": "test"})
        write_curve(str(tmp_path / "x.csv"), c)
        back = read_curve_csv(str(tmp_path / "x.csv"))
        np.testing.assert_array_equal(back.times, c.times)
        np.testing.assert_array_equal(back.points, c.points)
        assert back.stop_time == 2.0


def _reference_csv(header, rows):
    """The per-value writer the vectorised one replaced."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# repr switches to exponent form below 1e-4 and from 1e16 on
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e-4, 9.999999999999999e-05, 1e-5,
               1e16, 9999999999999998.0, 1e15, 0.1, 1.7976931348623157e308]
finite = st.one_of(st.sampled_from(EDGE_FLOATS + [-x for x in EDGE_FLOATS]),
                   st.floats(allow_nan=False, allow_infinity=False))


class TestCsvFormat:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.one_of(finite, st.sampled_from([math.inf, -math.inf])),
                 min_size=k, max_size=k), min_size=0, max_size=20)))
    def test_text_matches_per_value_repr(self, rows):
        k = len(rows[0]) if rows else 2
        arr = np.array(rows, dtype=float).reshape(len(rows), k)
        assert _csv_text("h", arr) == _reference_csv("h", rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(0.0)),
                    min_size=1, max_size=20, unique=True),
           st.integers(1, 3), st.data())
    def test_read_is_bit_identical(self, tmp_path_factory, times, k, data):
        times = np.sort(np.abs(np.array(times)))
        times = times[np.concatenate(([True], np.diff(times) > 0))]
        if times[0] == 0.0 and data.draw(st.booleans()):
            times[0] = -0.0
        pts = np.array(data.draw(st.lists(finite, min_size=len(times) * k,
                                          max_size=len(times) * k)))
        pts = pts.reshape(len(times), k) if k > 1 else pts
        path = str(tmp_path_factory.mktemp("csv") / "c.csv")
        write_curve(path, Curve(times, pts))
        back = read_curve_csv(path)
        assert np.array_equal(back.times.view(np.int64), times.view(np.int64))
        assert np.array_equal(back.points.view(np.int64), pts.view(np.int64))

    def test_nan_refused(self):
        arr = np.array([[0.0, 1.0], [0.5, math.nan]])
        with pytest.raises(IoError):
            _csv_text("t,x0", arr)

    def test_read_tolerates_blank_lines_and_spaces(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("\n  t,x0 \n\n 0.0 , 1.0\n\n\t0.5,0.75  \n\n")
        back = read_curve_csv(str(path))
        assert back.times.tolist() == [0.0, 0.5]
        assert back.points.tolist() == [1.0, 0.75]


class TestMalformedCurve:
    """Bad curve files end the CLI with exit code 1 and an error line."""

    def _reparam(self, tmp_path, capsys):
        cfg = {"command": "reparam", "direction": "r1", "input": "c.csv",
               "functional": {"library": "log-x", "K": 0, "N": -1},
               "out": "r1.csv"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["reparam", "--config", str(cfg_path), "--out",
                     str(tmp_path)])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return code

    @pytest.mark.parametrize("text", [
        "t,x0\n0.0,1.0\n0.1,abc\n",
        "t,x0\n0.0,1.0\n0.1,0.9,0.8\n",
        "t,x0\n",
    ], ids=["non-numeric", "ragged", "header-only"])
    def test_bad_csv(self, tmp_path, capsys, text):
        (tmp_path / "c.csv").write_text(text)
        with pytest.raises(ConfigInvalid):
            read_curve_csv(str(tmp_path / "c.csv"))
        assert self._reparam(tmp_path, capsys) == 1

    def test_bad_meta_json(self, tmp_path, capsys):
        (tmp_path / "c.csv").write_text("t,x0\n0.0,1.0\n0.1,0.9\n")
        (tmp_path / "c.csv.meta.json").write_text('{"stop_time": 0.5,')
        with pytest.raises(ConfigInvalid):
            read_curve_csv(str(tmp_path / "c.csv"))
        assert self._reparam(tmp_path, capsys) == 1


class TestBadAxis:
    """Malformed axis, grid and scalar configs end the CLI with exit code 1."""

    LOG_X = {"library": "log-x", "K": 0, "N": -1}

    @pytest.mark.parametrize("cfg", [
        {"command": "coeff", "K": -1, "N": -1, "theta": 1.0, "out": "s.csv"},
        {"command": "coeff", "K": -1, "N": -1,
         "thetas": {"min": 0, "max": 1, "n": -3}, "out": "s.csv"},
        {"command": "coeff", "K": -1, "N": -1,
         "ts": {"min": 0, "max": 1, "n": 2.5}, "out": "s.csv"},
        {"command": "coeff", "K": -1, "N": -1, "thetas": [0.5, "1"],
         "out": "s.csv"},
        {"command": "coeff", "K": -1, "N": -1, "ts": [], "out": "s.csv"},
        {"command": "flow", "method": "oracle", "functional": LOG_X,
         "y0": 1.0, "grid": {"t0": 0.0, "t1": 0.4, "n": 1}, "out": "c.csv"},
        {"command": "flow", "method": "oracle", "functional": LOG_X,
         "y0": 1.0, "grid": {"t0": 0.0, "t1": 0.4}, "out": "c.csv"},
        {"command": "flow", "method": "oracle", "functional": LOG_X,
         "y0": 1.0, "times": [0.0, [0.1]], "out": "c.csv"},
        {"command": "coeff", "K": "abc", "N": -1, "out": "s.csv"},
        {"command": "check-convexity", "kind": "kn", "functional": LOG_X,
         "K": 0, "N": -1, "seed": "x", "out": "r.json"},
        {"command": "check-convexity", "kind": "kn", "functional": LOG_X,
         "K": 0, "N": -1, "box": 3, "out": "r.json"},
        {"command": "check-convexity", "kind": "kn", "functional": LOG_X,
         "K": 0, "N": -1, "tolerance": 5, "out": "r.json"},
        {"command": "flow", "method": "oracle", "functional": LOG_X,
         "y0": "a", "grid": {"t0": 0.0, "t1": 0.4, "n": 5}, "out": "c.csv"},
        {"command": "flow", "method": "oracle",
         "functional": {"library": "quadratic", "K": "z", "N": -1},
         "y0": 1.0, "grid": {"t0": 0.0, "t1": 0.4, "n": 5}, "out": "c.csv"},
        {"command": "coeff", "K": -1, "N": -1, "out": 5},
        {"command": "check-convexity", "kind": "lambda", "lambda": 0.0,
         "functional": {"expr": 5}, "out": "r.json"},
    ], ids=["scalar-theta", "negative-n", "fractional-n", "string-entry",
            "empty-list", "one-point-grid", "grid-without-n", "nested-times",
            "string-K", "string-seed", "scalar-box", "scalar-tolerance",
            "string-y0", "string-functional-K", "numeric-out",
            "numeric-expr"])
    def test_exit_one_without_traceback(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main([cfg["command"], "--config", str(cfg_path), "--out",
                     str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        with pytest.raises(ConfigInvalid):
            run(cfg, str(tmp_path))

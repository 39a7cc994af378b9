import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from knflow.cli import (
    _atomic_write,
    _csv_text,
    _jsonable,
    _texts,
    main,
    pipeline,
    read_curve_csv,
    run,
    validate_config,
    write_curve,
    write_json,
)
from knflow.coefficients import CurvatureParams, sigma_values
from knflow.errors import ConfigInvalid, IoError, KNFlowError, ParamOutOfRange
from knflow.flows import Curve
from test_cli_pins import PIN_STAGES


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
        assert rep["pass"] is False and rep["witness"] is not None

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
        assert {"K", "N", "rows", "max_violation", "witness", "pass"} <= set(rep)

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


class TestDispatch:
    """Each branch of the check and reparam handlers runs from a config."""

    COSH = {"library": "log-cosh", "K": 1, "N": -1}

    def cosh_curve(self, tmp_path):
        run({"command": "flow", "method": "oracle", "functional": self.COSH,
             "y0": 1.0, "grid": {"t0": 0.0, "t1": 2.0, "n": 400},
             "out": "cosh.csv"}, str(tmp_path))

    def test_evi_integrated(self, tmp_path):
        self.cosh_curve(tmp_path)
        manifest = run({"command": "check-evi", "input": "cosh.csv",
                        "functional": self.COSH, "form": "integrated",
                        "K": 1, "N": -1, "z_per_time": 100, "seed": 3,
                        "out": "int.json"}, str(tmp_path))
        rep = json.loads((tmp_path / "int.json").read_text())
        assert manifest.status == "pass" and rep["kind"] == "evi_integrated"

    def test_evi_local(self, tmp_path):
        self.cosh_curve(tmp_path)
        manifest = run({"command": "check-evi", "input": "cosh.csv",
                        "functional": self.COSH, "form": "local", "lambda": -1.0, "radius": 0.2,
                        "z_per_time": 100, "seed": 3, "out": "loc.json"},
                       str(tmp_path))
        rep = json.loads((tmp_path / "loc.json").read_text())
        assert manifest.status == "pass"
        assert rep["kind"] == "evi_local" and rep["radius"] == 0.2

    def test_convexity_lambda(self, tmp_path):
        base = {"command": "check-convexity", "kind": "lambda",
                "functional": {"library": "quadratic", "c": 2.0},
                "pairs": 200, "seed": 4}
        good = run({**base, "lambda": 2.0, "out": "good.json"}, str(tmp_path))
        bad = run({**base, "lambda": 2.5, "out": "bad.json"}, str(tmp_path))
        assert (good.status, bad.status) == ("pass", "fail")
        assert json.loads((tmp_path / "good.json").read_text())["kind"] == "lambda"

    def test_reparam_defaults_to_k0_n_minus_1(self, tmp_path):
        run(flow_cfg("c.csv"), str(tmp_path))
        base = {"command": "reparam", "direction": "r1", "input": "c.csv"}
        run({**base, "functional": {"library": "log-x", "K": 0, "N": -1},
             "out": "lib.csv"}, str(tmp_path))
        # log(x) with no K and N: the reparametrization takes (K, N) = (0, -1)
        run({**base, "functional": {"expr": "log(x)", "domain": {
            "kind": "interval", "a": 0, "b": "inf"}}, "out": "expr.csv"},
            str(tmp_path))
        assert (tmp_path / "expr.csv").read_bytes() == \
            (tmp_path / "lib.csv").read_bytes()

    def test_zero_time_samples_is_an_error(self, tmp_path):
        run(flow_cfg(), str(tmp_path))
        cfg = {**evi_cfg("ii", 0.0, "rep.json"), "time_samples": 0}
        with pytest.raises(ParamOutOfRange, match="t_samples"):
            run(cfg, str(tmp_path))
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("method, extra", [
        ("oracle", {"grid": {"t0": 0.0, "t1": 0.4, "n": 5}}),
        ("ode", {"grid": {"t0": 0.0, "t1": 0.4, "n": 5}}),
        ("mms", {"tau": 0.1, "horizon": 0.4}),
    ])
    @pytest.mark.parametrize("functional, y0", [
        ({"library": "log-x", "K": 0, "N": -1}, [1.0]),
        ({"library": "log-x", "K": 0, "N": -1}, [1.0, 2.0]),
        ({"library": "quadratic", "c": 1.0, "dim": 2}, 1.0),
    ])
    def test_y0_form_follows_the_space(self, tmp_path, method, extra,
                                       functional, y0):
        cfg = {"command": "flow", "method": method, "functional": functional,
               "y0": y0, "out": "c.csv", **extra}
        with pytest.raises(ConfigInvalid, match="y0"):
            run(cfg, str(tmp_path))


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

    def test_jsonable_numpy_infinities(self, tmp_path):
        obj = {"a": np.float64(np.inf), "b": math.inf,
               "c": np.float64(-np.inf)}
        assert _jsonable(obj) == {"a": "inf", "b": "inf", "c": "-inf"}
        write_json(str(tmp_path / "x.json"), _jsonable(obj))
        assert "Infinity" not in (tmp_path / "x.json").read_text()


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
        assert _csv_text("h", *map(_texts, arr.T)) == _reference_csv("h", rows)

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
            _csv_text("t,x0", *map(_texts, arr.T))

    def test_read_tolerates_blank_lines_and_spaces(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("\n  t,x0 \n\n 0.0 , 1.0\n\n\t0.5,0.75  \n\n")
        back = read_curve_csv(str(path))
        assert back.times.tolist() == [0.0, 0.5]
        assert back.points.tolist() == [1.0, 0.75]


class TestAtomicWrite:
    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "s.csv"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(IoError):
            _atomic_write(str(target), "t,x0\n0.0,1.0\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
        cfg_path = tmp_path / "s.csv" / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "coeff", "K": 1, "N": -1,
                                        "out": str(target)}))
        assert main(["coeff", "--config", str(cfg_path), "--out",
                     str(tmp_path)]) == 1
        assert "cannot write" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
        assert [p.name for p in target.iterdir()] == ["cfg.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            _atomic_write(str(tmp_path / "a.json"), None)
        assert list(tmp_path.iterdir()) == []


class TestCoeffTableText:
    """The coeff table, theta-major, with every value written as its repr;
    an axis value is formatted once, however many rows repeat it."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-5, 1.0, math.pi, 4.0]),
                              st.floats(0.0, 40.0)), min_size=1, max_size=6),
           st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-4, 0.5, 1.0]),
                              st.floats(0.0, 1.0)), min_size=1, max_size=6),
           st.sampled_from([-1.0, 0.0, 1.0]), st.booleans())
    @example([-0.0], [0.25], -1.0, False)
    @example([2.0], [-0.0], 0.0, False)
    @example([1.0, 1.0, math.pi], [0.0, -0.0, 1.0], 1.0, True)
    def test_text_matches_per_value_repr(self, tmp_path_factory, thetas, ts,
                                         K, repeat):
        if repeat:  # repeated axis values
            thetas, ts = thetas + thetas[:1], ts[-1:] + ts
        cfg = {"command": "coeff", "K": K, "N": -1.0, "thetas": thetas,
               "ts": ts, "out": "a.csv"}
        out = tmp_path_factory.mktemp("coeff")
        run(cfg, str(out))  # standalone, then twice in one pipeline
        pipeline([dict(cfg, out="b.csv"), dict(cfg, out="c.csv")], str(out))
        sig = sigma_values(CurvatureParams(K, -1.0), np.array(ts),
                           np.array(thetas)[:, None]).tolist()
        want = "theta,t,sigma\n" + "".join(
            f"{th!r},{t!r},{s!r}\n"
            for th, row in zip(thetas, sig) for t, s in zip(ts, row))
        for name in ("a.csv", "b.csv", "c.csv"):
            assert (out / name).read_text() == want


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
        "t,speed,slope,energy,residual\n0.0,1.0,1.0,0.5,0.0\n",
        "t,x1\n0.0,1.0\n0.1,0.9\n",
        "t\n0.0\n0.1\n",
        "t,x0\n0.0,1.0,2.0\n0.1,0.9,1.8\n",
        "s,x0\n0.0,1.0\n0.1,0.9\n",
    ], ids=["non-numeric", "ragged", "header-only", "audit-table",
            "misnamed-column", "no-point-column", "unnamed-column",
            "not-t"])
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
        {"command": "check-convexity", "kind": "lambda", "lambda": 0.0,
         "functional": {"expr": "x*x", "sample_box": 3}, "out": "r.json"},
        {"command": "check-convexity", "kind": "lambda", "lambda": 0.0,
         "functional": {"expr": "x*x", "sample_box": ["a", "b"]},
         "out": "r.json"},
        {"command": "check-convexity", "kind": "lambda", "lambda": 0.0,
         "functional": {"expr": "-" * 1000 + "x"}, "out": "r.json"},
        {"command": "check-convexity", "kind": "lambda", "lambda": 0.0,
         "functional": {"expr": "x" + "+x" * 1000}, "out": "r.json"},
    ], ids=["scalar-theta", "negative-n", "fractional-n", "string-entry",
            "empty-list", "one-point-grid", "grid-without-n", "nested-times",
            "string-K", "string-seed", "scalar-box", "scalar-tolerance",
            "string-y0", "string-functional-K", "numeric-out",
            "numeric-expr", "scalar-sample-box", "string-sample-box",
            "deep-unary-expr", "deep-sum-expr"])
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


class TestNanInConfig:
    """JSON's NaN token in a config number or list is a config error (exit
    1): no check runs on it and no report is written."""

    LOG_X = {"library": "log-x", "K": 0, "N": -1}

    @pytest.mark.parametrize("cfg", [
        {"command": "check-evi", "input": "curve.csv", "functional": LOG_X,
         "form": "lambda", "lambda": math.nan, "z_per_time": 20,
         "time_samples": 5, "out": "rep.json"},
        {"command": "check-evi", "input": "curve.csv", "functional": LOG_X,
         "form": "local", "lambda": 0.0, "radius": math.nan, "z_per_time": 20,
         "time_samples": 5, "out": "rep.json"},
        {"command": "audit-energy", "input": "curve.csv", "functional": LOG_X,
         "slope_r0": math.nan, "out_csv": "rep.csv", "out_json": "rep.json"},
        {"command": "contract", "input1": "curve.csv", "input2": "curve.csv",
         "r": 0.1, "s_grid": [0.1, math.nan, 0.3], "out": "rep.json"},
        {"command": "coeff", "K": math.nan, "N": -1, "out": "rep.csv"},
    ], ids=["evi-lambda", "evi-local-radius", "audit-slope-r0", "contract-s-grid",
            "coeff-K"])
    def test_exit_one_without_report(self, tmp_path, capsys, cfg):
        run(flow_cfg(), str(tmp_path))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert "NaN" in cfg_path.read_text()
        code = main([cfg["command"], "--config", str(cfg_path), "--out",
                     str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(p.name.startswith("rep.") for p in tmp_path.iterdir())
        with pytest.raises(ConfigInvalid):
            run(cfg, str(tmp_path))


class TestCoeffOutsideKernelDomain:
    """A coeff axis outside the kernels' domain ends the CLI with exit code
    1, as the scalar sigma would reject the same theta or t."""

    @pytest.mark.parametrize("axes", [
        {"thetas": [-1.0, 0.5], "ts": [0.5]},
        {"thetas": [0.5], "ts": [0.5, 1.5]},
    ], ids=["negative-theta", "t-past-one"])
    def test_exit_one_without_traceback(self, tmp_path, capsys, axes):
        cfg = {"command": "coeff", "K": -1, "N": -1, "out": "s.csv", **axes}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["coeff", "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()
        with pytest.raises(ParamOutOfRange):
            run(cfg, str(tmp_path))


class TestBoxShape:
    """A check-convexity box must be a pair of points of the functional's
    space; any other shape ends the CLI with exit code 1, not a verdict or
    a traceback.  x1^2 + x2^2 is exactly 2-convex on R^2."""

    PLANE = {"expr": "x1*x1 + x2*x2", "domain": {"kind": "euclidean", "n": 2}}
    LOG_COSH = {"library": "log-cosh", "K": 1, "N": -1}

    @pytest.mark.parametrize("functional, box", [
        (PLANE, [[0, 0, 0], [1, 1, 1]]),
        (PLANE, [0, 1]),
        (PLANE, [[0], [1]]),
        (LOG_COSH, [[0, 0], [1, 1]]),
    ], ids=["r3-box-on-r2", "scalar-box-on-r2", "r1-box-on-r2",
            "r2-box-on-interval"])
    def test_exit_one_without_report(self, tmp_path, capsys, functional, box):
        cfg = {"command": "check-convexity", "kind": "lambda", "lambda": 2.0,
               "functional": functional, "box": box, "pairs": 200,
               "out": "r.json"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["check-convexity", "--config", str(cfg_path), "--out",
                     str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "pair of points" in err
        assert not (tmp_path / "r.json").exists()
        with pytest.raises(ParamOutOfRange):
            run(cfg, str(tmp_path))

    def test_box_of_the_space_shape_passes(self, tmp_path):
        cfg = {"command": "check-convexity", "kind": "lambda", "lambda": 2.0,
               "functional": self.PLANE, "box": [[0, 0], [1, 1]], "pairs": 200,
               "out": "r.json"}
        assert run(cfg, str(tmp_path)).status == "pass"


class TestCurveInTheFunctionalSpace:
    """Curves are read in the functional's space, and a curve of another
    point shape is PointOutsideSpace (exit code 1)."""

    R1 = {"expr": "x1*x1", "domain": {"kind": "euclidean", "n": 1}}
    FLOW = {"command": "flow", "method": "ode", "functional": R1, "y0": [1.0],
            "grid": {"t0": 0.0, "t1": 1.0, "n": 50}, "out": "r1.csv"}

    def _evi(self, lam, out):
        return {"command": "check-evi", "input": "r1.csv", "functional": self.R1,
                "form": "lambda", "lambda": lam, "z_per_time": 50,
                "time_samples": 20, "seed": 3, "out": out}

    def _in_memory(self, lam):
        from knflow.analysis import check_evi_lambda
        from knflow.core import SampleSpec
        from knflow.flows import ode_flow, time_grid
        from knflow.functionals import expression_functional
        from knflow.spaces import EuclideanRn
        fn = expression_functional("x1*x1", EuclideanRn(1))
        c = ode_flow(fn, np.array([1.0]), time_grid(0.0, 1.0, 50))
        rep = check_evi_lambda(c, fn, lam, SampleSpec(seed=3, count=50),
                               t_samples=20)
        return json.loads(json.dumps(_jsonable(rep.to_json())))

    @pytest.mark.parametrize("piped", [False, True], ids=["standalone", "pipeline"])
    def test_r1_curve_round_trips(self, tmp_path, piped):
        stages = [self.FLOW, self._evi(2.0, "pass.json"),
                  self._evi(2.5, "fail.json"),
                  {"command": "audit-energy", "input": "r1.csv",
                   "functional": self.R1, "out_csv": "a.csv", "out_json": "a.json"},
                  {"command": "reparam", "direction": "r1", "input": "r1.csv",
                   "functional": self.R1, "K": 0, "N": -1, "out": "r1_r1.csv"}]
        if piped:
            assert [s["status"] for s in pipeline(stages, str(tmp_path)).stages] \
                == ["ok", "pass", "fail", "pass", "ok"]
        else:
            assert [run(s, str(tmp_path)).status for s in stages] \
                == ["ok", "pass", "fail", "pass", "ok"]
        for lam, name in ((2.0, "pass.json"), (2.5, "fail.json")):
            assert json.loads((tmp_path / name).read_text()) == self._in_memory(lam)
        assert read_curve_csv(str(tmp_path / "r1_r1.csv")).n_samples == 50

    @pytest.mark.parametrize("inputs", [("line.csv", "plane.csv"),
                                        ("plane.csv", "line.csv")],
                             ids=["2-column-first", "3-column-first"])
    def test_contract_of_a_2_and_a_3_column_curve(self, tmp_path, capsys, inputs):
        grid = {"t0": 0.0, "t1": 0.4, "n": 50}
        pipeline([{"command": "flow", "method": "oracle", "grid": grid,
                   "functional": {"library": "log-x", "K": 0, "N": -1},
                   "y0": 1.0, "out": "line.csv"},
                  {"command": "flow", "method": "oracle", "grid": grid,
                   "functional": {"library": "quadratic", "K": 1, "N": -1,
                                  "c": 1.0, "dim": 2},
                   "y0": [1.0, 1.0], "out": "plane.csv"}], str(tmp_path))
        cfg = {"command": "contract", "input1": inputs[0], "input2": inputs[1],
               "r": 0.1, "out": "c.json"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["contract", "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "not in" in err
        assert not (tmp_path / "c.json").exists()


class TestPipelineConfig:
    """A pipeline config is validated like the config of any other command."""

    @pytest.mark.parametrize("cfg", [
        {"stagez": [flow_cfg()]},
        {"stages": [flow_cfg()], "bogus": 1},
        [flow_cfg()],
        {"stages": [[1, 2]]},
        {"stages": [flow_cfg(), 3]},
        {"stages": {"a": 1}},
        {"stages": [dict(flow_cfg(), command=[])]},
        {"stages": [dict(flow_cfg(), command={})]},
    ], ids=["misspelt-stages", "unknown-key", "top-level-list", "list-stage",
            "number-stage", "mapping-stages", "list-command", "mapping-command"])
    def test_exit_one_without_traceback(self, tmp_path, capsys, cfg):
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_empty_stages_is_an_empty_pipeline(self, tmp_path, capsys):
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps({"stages": []}))
        assert main(["pipeline", "--config", str(path), "--out",
                     str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "ok" and manifest["outputs"] == []

    @pytest.mark.parametrize("value", [[], {}, 1, None])
    def test_command_must_be_a_command_name(self, tmp_path, value):
        with pytest.raises(ConfigInvalid):
            run(dict(flow_cfg(), command=value), str(tmp_path))

    @pytest.mark.parametrize("value", [[], {}, 1, None, "r3"])
    def test_direction_must_be_r1_or_r2(self, tmp_path, value):
        reparam = {"command": "reparam", "direction": value,
                   "input": "curve.csv", "out": "r.csv",
                   "functional": {"library": "log-x", "K": 0, "N": -1}}
        with pytest.raises(ConfigInvalid, match="direction must be r1 or r2"):
            pipeline([flow_cfg(), reparam], str(tmp_path))


def _key_paths(node, prefix=()):
    """Every key path into nested mappings and lists, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


def _substituted(node, path, value):
    node = copy.deepcopy(node)
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


# Malformed values of every JSON type; none sizes an array beyond 3 entries
# per axis, so each run stays small.
MALFORMED = [None, "x", [], {}, True, -1, 0, 0.5, [1, "a"], {"a": 1},
             [[1, 2], [3]], "inf", 3]
INPUT_KEYS = ("input", "input1", "input2")


def test_malformed_values_raise_only_knflow_errors(tmp_path):
    """Each key path of a one-stage pipeline of each pinned stage, set to
    each malformed value, either runs or raises a KNFlowError.  The stages
    read their inputs from a finished run of the pinned pipeline and write
    elsewhere, so no substitution changes what a later one reads."""
    base = tmp_path / "base"
    assert pipeline(PIN_STAGES, str(base)).status == "ok"
    out = str(tmp_path / "out")
    escapes = set()
    for stage in PIN_STAGES:
        stage = {key: str(base / value) if key in INPUT_KEYS else value
                 for key, value in stage.items()}
        cfg = {"command": "pipeline", "stages": [stage]}
        for path in _key_paths(cfg):
            for value in MALFORMED:
                try:
                    run(_substituted(cfg, path, value), out)
                except KNFlowError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the escapes are the finding
                    escapes.add((stage["command"], path, repr(value),
                                 f"{type(exc).__name__}: {exc}"))
    assert not escapes, sorted(escapes)

"""Curves and column texts handed from stage to stage within one pipeline.

A stage that reads a curve written earlier in the same pipeline gets it
from memory.  It must get exactly what reading the files would give:
bitwise-equal arrays with the reader's memory layout, and the meta of
the `.meta.json` round trip.  A stage that overwrites the files, or any
change to them from outside the pipeline, sends the next read to disk.

A column that the pipeline already wrote (a time grid shared by two
flows, the points that r1 and r2 keep) takes its text from memory; the
bytes written are those of a standalone run.
"""

import json
import logging
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knflow import cli
from knflow.cli import pipeline, run
from knflow.errors import ConfigInvalid, IoError
from knflow.flows import Curve

from test_cli_pins import GRID, LOG_COSH, LOG_X, PIN_STAGES, PLANE

READ_CURVE = cli.read_curve_csv


def _disk_read(path):
    token = cli._CURVES.set(None)
    try:
        return READ_CURVE(path)
    finally:
        cli._CURVES.reset(token)


@dataclass
class Read:
    path: str
    held: bool  # the map held an entry for the path before the read
    handed_over: bool
    curve: Curve  # as read from disk, as the stage got it; None if it raised
    curves: object  # the map active during the read


@pytest.fixture
def reads(monkeypatch, caplog):
    """Every curve read through `read_curve_csv`, checked against a disk
    read of the same files at the time of the read."""
    caplog.set_level(logging.DEBUG, logger="knflow")
    log = []

    def read(path):
        curves = cli._CURVES.get()
        held = curves is not None and os.path.realpath(path) in curves
        n = len(caplog.records)
        try:
            curve = READ_CURVE(path)
        except ConfigInvalid:
            log.append(Read(os.path.basename(path), held, False, None, curves))
            raise
        handed = any("handed over" in r.getMessage()
                     for r in caplog.records[n:])
        disk = _disk_read(path)
        assert_same_curve(curve, disk)
        log.append(Read(os.path.basename(path), held, handed, disk, curves))
        return curve

    monkeypatch.setattr(cli, "read_curve_csv", read)
    return log


def assert_same_curve(got, want):
    for name in ("times", "points"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.strides == b.strides
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()
    assert got.meta == want.meta
    assert json.dumps(got.meta, sort_keys=True) == \
        json.dumps(want.meta, sort_keys=True)
    assert got.stop_time == want.stop_time


def _oracle(y0, out, fn=LOG_X, t1=0.49, n=393):
    return {"command": "flow", "method": "oracle", "functional": fn,
            "y0": y0, "grid": {"t0": 0.0, "t1": t1, "n": n}, "out": out}


def _r1(inp, out):
    return {"command": "reparam", "direction": "r1", "input": inp,
            "functional": LOG_X, "out": out}


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


# the pinned pipeline, then two stages that read its R^2 curves
R2_STAGES = PIN_STAGES + [
    {"command": "audit-energy", "input": "plane.csv", "functional": PLANE,
     "out_csv": "plane_audit.csv", "out_json": "plane_audit.json"},
    {"command": "contract", "input1": "plane.csv", "input2": "plane_mms.csv",
     "r": 0.01, "out": "plane_contract.json"},
]


# two flows on one grid, then r1 and r2 of the first: ode.csv writes the
# times of c.csv again, c_r1.csv and c_rt.csv its points
SAME_GRID_STAGES = [
    _oracle(1.0, "c.csv"),
    {"command": "flow", "method": "ode", "functional": LOG_X, "y0": 1.0,
     "grid": GRID, "out": "ode.csv"},
    _r1("c.csv", "c_r1.csv"),
    {"command": "reparam", "direction": "r2", "input": "c_r1.csv",
     "functional": LOG_X, "out": "c_rt.csv"},
]


class TestSameAsDisk:
    def test_every_handed_curve_equals_the_disk_read(self, tmp_path, reads):
        manifest = pipeline(R2_STAGES, str(tmp_path))
        assert manifest.status == "ok"
        assert [r.path for r in reads] == [
            "c.csv", "c_r1.csv", "c.csv", "cosh.csv", "plane.csv",
            "plane.csv", "plane_mms.csv"]
        assert all(r.handed_over for r in reads)
        assert {r.curve.points.ndim for r in reads} == {1, 2}

    def test_outputs_equal_standalone_runs(self, tmp_path):
        for name, stages in (("r2", R2_STAGES), ("same-grid", SAME_GRID_STAGES)):
            piped, alone = tmp_path / name / "piped", tmp_path / name / "alone"
            pipeline(stages, str(piped))
            for stage in stages:
                run(stage, str(alone))
            assert _outputs(piped) == _outputs(alone), name

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=12,
                    unique=True),
           st.integers(1, 3), st.data())
    def test_round_trip_property(self, tmp_path_factory, times, k, data):
        times = np.sort(np.array(times))
        pts = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=len(times) * k, max_size=len(times) * k)))
        pts = pts.reshape(len(times), k) if k > 1 else pts
        path = str(tmp_path_factory.mktemp("csv") / "c.csv")
        curve = Curve(times, pts, stop_time=data.draw(st.sampled_from(
            [None, float(times[-1])])), meta={"tag": ("a", 1)})
        token = cli._CURVES.set({})
        try:
            cli.write_curve(path, curve)
            handed = cli._handed_over(path)
        finally:
            cli._CURVES.reset(token)
        assert handed is not None
        assert_same_curve(handed, _disk_read(path))


class TestStale:
    def test_flow_overwrite_hands_over_the_new_curve(self, tmp_path, reads):
        pipeline([_oracle(1.0, "c.csv"), _oracle(0.8, "c.csv"),
                  _r1("c.csv", "r.csv")], str(tmp_path))
        (r,) = reads
        assert r.handed_over and r.curve.points[0] == 0.8

    def test_nested_flow_overwrite_is_read_from_disk(self, tmp_path, reads):
        pipeline([_oracle(1.0, "c.csv"),
                  {"command": "pipeline", "stages": [_oracle(0.8, "c.csv")]},
                  _r1("c.csv", "r.csv")], str(tmp_path))
        (r,) = reads
        assert r.held and not r.handed_over  # stale: the files changed
        assert r.curve.points[0] == 0.8

    def test_audit_csv_overwrite_is_read_from_disk(self, tmp_path, reads,
                                                   capsys):
        # the audit table (t,speed,slope,energy,residual) replaces the
        # curve but not its sidecar; the contract stage must not take it
        # for a curve paired with the old flow's meta
        cfg_path = tmp_path / "pipe.json"
        cfg_path.write_text(json.dumps({"stages": [
            _oracle(1.0, "c.csv"),
            _oracle(1.0, "h.csv", LOG_COSH, 2.0, 400),
            {"command": "audit-energy", "input": "h.csv",
             "functional": LOG_COSH, "out_csv": "c.csv",
             "out_json": "audit.json"},
            {"command": "contract", "input1": "c.csv", "input2": "c.csv",
             "r": 0.01, "out": "cc.json"}]}))
        code = cli.main(["pipeline", "--config", str(cfg_path), "--out",
                         str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "not a curve CSV" in err
        assert [(r.path, r.handed_over, r.curve is None) for r in reads] == [
            ("h.csv", True, False), ("c.csv", False, True)]
        assert not reads[1].held  # the audit's write dropped the entry
        assert (tmp_path / "c.csv.meta.json").exists()
        assert not (tmp_path / "cc.json").exists()
        with pytest.raises(ConfigInvalid):  # and from disk, outside a pipeline
            _disk_read(str(tmp_path / "c.csv"))

    def test_rewrite_from_outside_is_read_from_disk(self, tmp_path, reads,
                                                    monkeypatch):
        def rewrite(cfg, out_dir):  # in place: same inode, new size
            with open(os.path.join(out_dir, "c.csv"), "w") as f:
                f.write("t,x0\n0.0,0.5\n0.25,0.25\n")
            return [], "ok"

        monkeypatch.setitem(cli._HANDLERS, "coeff", rewrite)
        pipeline([_oracle(1.0, "c.csv"),
                  {"command": "coeff", "K": 0, "N": -1, "out": "-"},
                  _r1("c.csv", "r.csv")], str(tmp_path))
        (r,) = reads
        assert r.held and not r.handed_over
        assert r.curve.points.tolist() == [0.5, 0.25]


class TestCopies:
    def test_mutations_do_not_reach_the_next_stage(self, tmp_path,
                                                   monkeypatch, reads):
        write, read = cli.write_curve, cli.read_curve_csv

        def write_then_mutate(path, curve):
            out = write(path, curve)
            curve.points[...] = -1.0
            curve.meta["method"] = "mutated"
            return out

        def mutate_then_read_again(path):
            curve = read(path)
            curve.times[...] = 7.0
            curve.points[...] = -1.0
            curve.meta["stop_time"] = "mutated"
            curve.meta.setdefault("added", []).append(1)
            return read(path)  # checked against the disk read

        monkeypatch.setattr(cli, "write_curve", write_then_mutate)
        monkeypatch.setattr(cli, "read_curve_csv", mutate_then_read_again)
        pipeline([_oracle(1.0, "c.csv"), _r1("c.csv", "r1.csv"),
                  _r1("c.csv", "r2.csv")], str(tmp_path))
        assert [r.handed_over for r in reads] == [True] * 4
        assert (tmp_path / "r1.csv").read_bytes() == \
            (tmp_path / "r2.csv").read_bytes()


class TestScope:
    def test_no_map_outside_a_pipeline(self, tmp_path, reads):
        assert cli._CURVES.get() is None
        run(_oracle(1.0, "c.csv"), str(tmp_path))
        run(_r1("c.csv", "r.csv"), str(tmp_path))
        assert not reads[0].handed_over and reads[0].curves is None
        pipeline([_oracle(1.0, "c.csv"), _r1("c.csv", "r.csv")],
                 str(tmp_path))
        assert reads[1].handed_over
        assert cli._CURVES.get() is None

    def test_no_map_after_a_pipeline_that_raises(self, tmp_path):
        bad = dict(_oracle(1.0, "d.csv"), method="bogus")
        with pytest.raises(ConfigInvalid):
            pipeline([_oracle(1.0, "c.csv"), bad], str(tmp_path))
        assert cli._CURVES.get() is None

    def test_nested_pipeline_has_its_own_map(self, tmp_path, reads):
        pipeline([_oracle(1.0, "c.csv"), _r1("c.csv", "a.csv"),
                  {"command": "pipeline", "stages": [
                      _r1("c.csv", "b.csv"), _r1("b.csv", "b2.csv")]},
                  _r1("b.csv", "d.csv"), _r1("c.csv", "e.csv")],
                 str(tmp_path))
        outer = [reads[0], reads[3], reads[4]]
        inner = [reads[1], reads[2]]
        assert [r.handed_over for r in reads] == [True, False, True, False,
                                                  True]
        assert all(r.curves is outer[0].curves for r in outer)
        assert inner[0].curves is inner[1].curves
        assert inner[0].curves is not outer[0].curves
        assert cli._CURVES.get() is None

    def test_threads_see_no_map(self, tmp_path, monkeypatch):
        seen = []
        read = cli.read_curve_csv

        def read_and_look(path):
            t = threading.Thread(target=lambda: seen.append(cli._CURVES.get()))
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            return read(path)

        monkeypatch.setattr(cli, "read_curve_csv", read_and_look)
        pipeline([_oracle(1.0, "c.csv"), _r1("c.csv", "r.csv")],
                 str(tmp_path))
        assert seen == [None]


class TestColumnMemo:
    """The column texts are bytes-exact under the memo."""

    @pytest.fixture
    def memo(self):
        token = cli._COLUMNS.set({})
        yield cli._COLUMNS.get()
        cli._COLUMNS.reset(token)

    def test_minus_zero_after_zero(self, memo):
        zeros = np.array([0.0, 1.0, 0.0])
        assert cli._texts(zeros) == ["0.0", "1.0", "0.0"]
        assert cli._texts(-zeros) == ["-0.0", "-1.0", "-0.0"]
        assert cli._texts(np.array([-0.0, 1.0, 0.0])) == ["-0.0", "1.0", "0.0"]
        assert cli._texts(zeros) == ["0.0", "1.0", "0.0"]
        assert len(memo) == 3

    def test_infinities_unchanged(self, memo):
        col = np.array([math.inf, -math.inf, 0.5, -0.0, 5e-324])
        want = ["inf", "-inf", "0.5", "-0.0", "5e-324"]
        assert cli._texts(col) == want
        assert cli._texts(col.copy()) == want  # from the memo
        assert cli._csv_text("a,b", cli._texts(col), cli._texts(col[::-1])) == \
            "a,b\ninf,5e-324\n-inf,-0.0\n0.5,0.5\n-0.0,-inf\n5e-324,inf\n"

    def test_nan_refused_when_the_column_hits(self, memo):
        col = np.linspace(0.0, 1.0, 7)
        cli._texts(col)
        keys = set(memo)
        bad = col.copy()
        bad[3] = math.nan
        with pytest.raises(IoError):
            cli._texts(bad)
        # a table whose first column hits the memo and whose second holds NaN
        with pytest.raises(IoError):
            cli._csv_text("t,x0", *map(cli._texts, np.column_stack((col, bad)).T))
        assert set(memo) == keys

    def test_empty_column(self, memo):
        assert cli._texts(np.array([])) == []
        assert cli._csv_text("t,x0", [], []) == "t,x0\n"
        assert not memo


@pytest.fixture
def memos(monkeypatch):
    """The memo active at each `_texts` call."""
    log = []
    texts = cli._texts

    def spy(col):
        log.append(cli._COLUMNS.get())
        return texts(col)

    monkeypatch.setattr(cli, "_texts", spy)
    return log


class TestColumnScope:
    def test_no_memo_outside_a_pipeline(self, tmp_path, memos):
        assert cli._COLUMNS.get() is None
        run(_oracle(1.0, "c.csv"), str(tmp_path))
        run(_r1("c.csv", "r.csv"), str(tmp_path))
        assert len(memos) == 4 and all(m is None for m in memos)
        pipeline([_oracle(1.0, "c.csv"), _r1("c.csv", "r.csv")],
                 str(tmp_path))
        assert memos[4] is not None and all(m is memos[4] for m in memos[4:])
        assert cli._COLUMNS.get() is None

    def test_no_memo_after_a_pipeline_that_raises(self, tmp_path):
        bad = dict(_oracle(1.0, "d.csv"), method="bogus")
        with pytest.raises(ConfigInvalid):
            pipeline([_oracle(1.0, "c.csv"), bad], str(tmp_path))
        assert cli._COLUMNS.get() is None

    def test_nested_pipeline_has_its_own_memo(self, tmp_path, memos):
        pipeline([_oracle(1.0, "c.csv"),
                  {"command": "pipeline", "stages": [_oracle(1.0, "b.csv")]},
                  _oracle(1.0, "d.csv")], str(tmp_path))
        outer, inner = memos[:2] + memos[4:], memos[2:4]
        assert len(memos) == 6
        assert all(m is outer[0] for m in outer)
        assert inner[0] is inner[1] and inner[0] is not outer[0]
        assert cli._COLUMNS.get() is None
        names = ("c.csv", "b.csv", "d.csv")
        assert len({(tmp_path / n).read_bytes() for n in names}) == 1

    def test_threads_see_no_memo(self, tmp_path, monkeypatch):
        seen = []
        texts = cli._texts

        def texts_and_look(col):
            t = threading.Thread(target=lambda: seen.append(cli._COLUMNS.get()))
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            return texts(col)

        monkeypatch.setattr(cli, "_texts", texts_and_look)
        pipeline([_oracle(1.0, "c.csv")], str(tmp_path))
        assert seen == [None, None]

    def test_repeated_column_formatted_once_per_pipeline(self, tmp_path,
                                                         monkeypatch):
        formatted = []

        def spy_repr(x):
            formatted.append(x)
            return repr(x)

        monkeypatch.setattr(cli, "repr", spy_repr, raising=False)
        n = GRID["n"]
        twice = [_oracle(1.0, "c.csv"), _oracle(1.0, "c2.csv")]
        for k in (1, 2):  # each pipeline formats the columns again
            pipeline(twice, str(tmp_path / str(k)))
            assert len(formatted) == 2 * n * k
        run(twice[1], str(tmp_path / "alone"))
        assert len(formatted) == 6 * n
        assert (tmp_path / "1" / "c2.csv").read_bytes() == \
            (tmp_path / "alone" / "c2.csv").read_bytes()

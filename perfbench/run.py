#!/usr/bin/env python3
"""knflow benchmark: end-to-end job timings and per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pointwise --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Workloads (each a fixed, seeded list of jobs; see jobs.py):

* ``pointwise``    - minimizing-movement solves and scalar kernel calls:
                     the proximal solver and the scalar paths of
                     functionals, core and coefficients do the work;
* ``batch-verify`` - array-at-a-time checkers on oracle curves: convexity,
                     analysis and the vectorised coefficient paths;
* ``cli-pipeline`` - ``knflow.cli.main`` pipelines on 20k-sample curves:
                     CSV formatting and parsing, reparam, spaces loops.

The process runs the job list again and again, in whole passes, until
``--seconds`` have gone by; it is a closed loop with one client.  Before
each job it times a fixed calibration loop that does not use knflow, and
every job time is host-normalised: wall time x nominal calibration time /
the mean of the calibrations just before and just after the job.  Host
speed on a shared machine drifts by tens of percent between runs minutes
apart; the normalisation cancels most of that.  ``setup_s`` is the median
over five fresh processes of the time from process start to ready
(import, build the inputs, one warm-up job), normalised by the median of
the calibrations taken between them.

With ``--trace 1`` the run alternates untraced and traced passes, reports
per-layer metrics from the traced ones and the tracing overhead, and makes
one more traced pass with another seed to check that the work counters do
not depend on the seed.  End-to-end metrics come only from untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (per-job
times, failures, counters, provenance) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# single process, no pool: BLAS must not spread over the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("pointwise", "batch-verify", "cli-pipeline")
NOMINAL_CAL_S = 0.05      # calibration time of the nominal host
SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "jobs_per_s": "1/s", "fail_ratio": "ratio", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "flows.prox_steps": "count", "flows.fevals_per_step": "count",
    "flows.grads_per_step": "count", "flows.self_s": "s",
    "flows.ode_rhs_evals": "count", "flows.max_err": "abs",
    "flows.order": "order",
    "functionals.fvec_calls": "count", "functionals.points": "count",
    "functionals.points_per_call": "count", "functionals.grad_calls": "count",
    "functionals.self_s": "s",
    "core.nan_checks": "count", "core.self_s": "s",
    "coefficients.scalar_calls": "count", "coefficients.us_per_scalar_call": "us",
    "coefficients.array_calls": "count", "coefficients.elements": "count",
    "coefficients.ns_per_element": "ns",
    "convexity.cells": "count", "convexity.pairs_tested_ratio": "ratio",
    "convexity.ns_per_cell": "ns", "convexity.self_s": "s",
    "analysis.evi.cells": "count", "analysis.evi.ns_per_cell": "ns",
    "analysis.evi.self_s": "s", "analysis.audit.samples": "count",
    "analysis.audit.self_s": "s", "analysis.slope.calls": "count",
    "analysis.slope.self_s": "s", "analysis.contract.self_s": "s",
    "reparam.points": "count", "reparam.self_s": "s",
    "reparam.roundtrip_err": "abs",
    "spaces.calls": "count", "spaces.self_s": "s",
    **{f"cli.stage_s.{c}": "s" for c in (
        "coeff", "flow", "check-convexity", "check-evi", "reparam",
        "contract", "audit-energy")},
    "cli.self_s": "s", "cli.rows_written": "count",
    "cli.bytes_written": "bytes", "cli.files_written": "count",
    "bench.cal_s": "s", "bench.wall_p50_s": "s", "bench.trace_overhead": "ratio",
}

# Counters that measure work the job list asks for.  They must be equal
# for every seed.  The others (solver evaluations, bytes of formatted
# numbers, points that happen to fall inside a domain) follow the inputs;
# they repeat exactly for the same seed only.
SEED_FREE_COUNTERS = (
    "flows.prox_steps", "flows.ode_solves", "coefficients.scalar_calls",
    "convexity.cells", "convexity.pairs_drawn", "analysis.evi.cells",
    "analysis.audit.samples", "analysis.slope.calls", "reparam.points",
    "reparam.roundtrips", "cli.files_written", "cli.rows_written",
)


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_knflow():
    """Import knflow from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "knflow", "__init__.py")):
        fail(f"no knflow sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import knflow
    if not os.path.realpath(knflow.__file__).startswith(os.path.realpath(SRC) + os.sep):
        fail(f"knflow imported from {knflow.__file__}, not from {SRC}")
    import jobs
    return jobs


# ---------------------------------------------------------------------------
# host calibration and provenance
# ---------------------------------------------------------------------------

class Calibration:
    """A fixed loop of interpreter and small-array numpy work, about 50 ms.

    A streaming pass over an array larger than the caches was tried as a
    third part; it did not track job times any better.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.x = np.linspace(0.0, 10.0, 20_000)

    def run(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        y = self.x
        for _ in range(100):
            y = np.sin(y) + 0.5 * y
        y.sort()
        return time.perf_counter() - t0


def _openblas_threads():
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


_FS_MAGIC = {0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
             0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
             0x01021997: "9p", 0x65735546: "fuse", 0xFF534D42: "cifs"}


def _filesystem(path):
    """Filesystem type of ``path``, from the f_type word of statfs(2)."""
    import ctypes
    buf = ctypes.create_string_buffer(256)
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def provenance():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "output_fs": _filesystem(OUT),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# set-up time, in fresh processes
# ---------------------------------------------------------------------------

def setup_probe(workload, seed):
    """Child process: import, build the inputs, run one warm-up job."""
    jobs = import_knflow()
    work = os.path.join(OUT, f"probe-{os.getpid()}")
    try:
        job_list = jobs.build(workload, seed, work_dir=work)
        run_job(job_list[0], jobs)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(workload, seed, cal):
    """Wall times of fresh set-up processes, with calibrations around them.

    The parent idles while a probe runs, so the calibrations between the
    probes measure the host the probes ran on.  Returns the raw times and
    the median calibration.
    """
    raw, cals = [], [cal.run()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t_ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe for {workload} failed (exit {proc.returncode})")
        raw.append(t_ready - t0)
        cals.append(cal.run())
    return raw, statistics.median(cals)


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def run_job(job, jobs):
    """Time one job, then check it.  Returns (wall_s, ok, message, values)."""
    exc = result = None
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception as e:  # noqa: BLE001 - any escape is a failed job
        exc = e
    wall = time.perf_counter() - t0
    if exc is not None:
        if job.accept_error(exc):
            return wall, True, f"reported {type(exc).__name__}", None
        return wall, False, f"raised {type(exc).__name__}: {exc}", None
    try:
        values = job.check(result)
    except jobs.CheckFailed as e:
        return wall, False, str(e), None
    except Exception as e:  # noqa: BLE001 - a broken output is a failed job
        return wall, False, f"check raised {type(e).__name__}: {e}", None
    return wall, True, "", values


class Run:
    """Measured jobs of one process, with the calibrations between them."""

    def __init__(self, jobs):
        self.jobs_mod = jobs
        self.cal = Calibration()
        self.cals = []
        self.records = []   # dicts: job name, pass, traced, wall, ok, ...

    def one_pass(self, job_list, pass_no, traced=False, tracer=None):
        values = []
        for job in job_list:
            gc.collect()
            self.cals.append(self.cal.run())
            if tracer is not None:
                tracer.job = len(self.records)
            wall, ok, msg, vals = run_job(job, self.jobs_mod)
            self.records.append({"job": job.name, "pass": pass_no,
                                 "traced": traced, "wall": wall, "ok": ok,
                                 "known_defect": job.known_defect, "msg": msg})
            if vals:
                values.append(vals)
        return values

    def finish(self):
        self.cals.append(self.cal.run())
        for i, rec in enumerate(self.records):
            # the calibrations just before and just after the job
            rec["factor"] = 2 * NOMINAL_CAL_S / (self.cals[i] + self.cals[i + 1])
            rec["norm"] = rec["wall"] * rec["factor"]


def tail(values):
    """Highest integer percentile with at least TAIL_BEYOND jobs beyond it
    (nearest-rank), as (value, percentile)."""
    v = sorted(values)
    n = len(v)
    pct = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return v[rank - 1], pct


def end_to_end(run, setup_raw, setup_cal):
    recs = [r for r in run.records if not r["traced"]]
    norm = [r["norm"] for r in recs]
    tail_v, tail_pct = tail(norm)
    failed = sum(not r["ok"] for r in run.records)
    metrics = {
        "setup_s": statistics.median(setup_raw) * NOMINAL_CAL_S / setup_cal,
        "job_p50_s": statistics.median(norm),
        "job_tail_s": tail_v,
        "jobs_per_s": len(norm) / sum(norm),
        "fail_ratio": failed / len(run.records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"tail_percentile": tail_pct, "jobs_timed": len(norm),
             "wall_p50_s": statistics.median(r["wall"] for r in recs),
             "setup_raw_s": statistics.median(setup_raw),
             "cal_median_s": statistics.median(run.cals)}
    return metrics, extra


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def _accuracy(values):
    out = {"flows.max_err": 0.0, "flows.order": 0.0, "reparam.roundtrip_err": 0.0}
    orders = [v["flows.order"] for v in values if "flows.order" in v]
    for key in ("flows.max_err", "reparam.roundtrip_err"):
        out[key] = max([v[key] for v in values if key in v], default=0.0)
    if orders:
        out["flows.order"] = min(orders)
    return out


def per_layer(run, tracer, counts, accuracy, traced_passes):
    from tracer import SELF_GROUPS
    traced = [(i, r) for i, r in enumerate(run.records)
              if r["traced"] and r["pass"] in traced_passes]
    factor = {i: r["factor"] for i, r in traced}
    npass = len(traced_passes)

    def norm_sum(table, key):
        return sum(t * factor[j] for (k, j), t in table.items()
                   if k == key and j in factor)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    c = counts
    m = {
        "flows.prox_steps": c["flows.prox_steps"],
        "flows.fevals_per_step": ratio(c["flows.prox_fvec_calls"], c["flows.prox_steps"]),
        "flows.grads_per_step": ratio(c["flows.prox_grad_calls"], c["flows.prox_steps"]),
        "flows.ode_rhs_evals": c["flows.ode_rhs_evals"],
        "functionals.fvec_calls": c["functionals.fvec_calls"],
        "functionals.points": c["functionals.points"],
        "functionals.points_per_call": ratio(c["functionals.points"],
                                             c["functionals.fvec_calls"]),
        "functionals.grad_calls": c["functionals.grad_calls"],
        "core.nan_checks": c["core.nan_checks"],
        "coefficients.scalar_calls": c["coefficients.scalar_calls"],
        "coefficients.us_per_scalar_call": ratio(
            norm_sum(tracer.entry_time, "coefficients.scalar") / npass,
            c["coefficients.scalar_calls"], 1e6),
        "coefficients.array_calls": c["coefficients.array_calls"],
        "coefficients.elements": c["coefficients.elements"],
        "coefficients.ns_per_element": ratio(
            norm_sum(tracer.entry_time, "coefficients.array") / npass,
            c["coefficients.elements"], 1e9),
        "convexity.cells": c["convexity.cells"],
        "convexity.pairs_tested_ratio": ratio(c["convexity.pairs_tested"],
                                              c["convexity.pairs_drawn"]),
        "convexity.ns_per_cell": ratio(norm_sum(tracer.entry_time, "convexity") / npass,
                                       c["convexity.cells"], 1e9),
        "analysis.evi.cells": c["analysis.evi.cells"],
        "analysis.evi.ns_per_cell": ratio(
            norm_sum(tracer.entry_time, "analysis.evi") / npass,
            c["analysis.evi.cells"], 1e9),
        "analysis.audit.samples": c["analysis.audit.samples"],
        "analysis.slope.calls": c["analysis.slope.calls"],
        "reparam.points": c["reparam.points"],
        "spaces.calls": c["spaces.calls"],
        "cli.rows_written": c["cli.rows_written"],
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.files_written": c["cli.files_written"],
    }
    for group in SELF_GROUPS:
        m[f"{group}.self_s"] = norm_sum(tracer.self_time, group) / npass
    for name in PER_LAYER:
        if name.startswith("cli.stage_s."):
            cmd = name[len("cli.stage_s."):]
            m[name] = ratio(norm_sum(tracer.entry_time, f"cli.stage.{cmd}") / npass,
                            c[f"cli.stage_calls.{cmd}"])
    m.update(accuracy)
    untraced = [r for r in run.records if not r["traced"]]
    traced_recs = [r for _, r in traced]
    n_un = len({r["pass"] for r in untraced})
    m["bench.cal_s"] = statistics.median(run.cals)
    m["bench.wall_p50_s"] = statistics.median(r["wall"] for r in untraced)
    m["bench.traced_pass_s"] = sum(r["norm"] for r in traced_recs) / npass
    m["bench.trace_overhead"] = m["bench.traced_pass_s"] / \
        (sum(r["norm"] for r in untraced) / n_un) - 1.0
    return m


def traced_measure(jobs, run, workload, seed, seconds, work_dir):
    from tracer import Tracer
    tracer = Tracer()
    plain = jobs.build(workload, seed, work_dir=os.path.join(work_dir, "plain"))
    traced = jobs.build(workload, seed, tracer.instrument,
                        os.path.join(work_dir, "traced"))
    other_seed = seed + 1
    other = jobs.build(workload, other_seed, tracer.instrument,
                       os.path.join(work_dir, "other"))
    for job_list in (plain, traced, other):
        run_job(job_list[0], jobs)  # warm-up and first-run digests

    pass_counts, pass_values = {}, {}
    t_start = time.perf_counter()
    pass_no = 0
    while True:
        run.one_pass(plain, pass_no)
        pass_no += 1
        tracer.start_pass(recording=pass_no == 1)
        tracer.install()
        try:
            pass_values[pass_no] = run.one_pass(traced, pass_no, True, tracer)
        finally:
            tracer.uninstall()
        pass_counts[pass_no] = tracer.counts
        pass_no += 1
        if time.perf_counter() - t_start >= seconds:
            break
    tracer.start_pass(recording=False)
    tracer.install()
    try:
        run.one_pass(other, pass_no, True, tracer)
    finally:
        tracer.uninstall()
    other_counts = tracer.counts
    run.finish()

    problems = []
    first = pass_counts[1]
    for p, cnt in pass_counts.items():
        if cnt != first:
            diff = sorted(k for k in set(cnt) | set(first) if cnt[k] != first[k])
            problems.append(f"pass {p} counters differ from pass 1: {diff}")
    for key in SEED_FREE_COUNTERS:
        if other_counts[key] != first[key]:
            problems.append(f"{key} is {first[key]} at seed {seed} but "
                            f"{other_counts[key]} at seed {other_seed}")
    layers = per_layer(run, tracer, first, _accuracy(pass_values[1]),
                       set(pass_counts))
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{workload}.csv"))
    details = {"counters": dict(first), "counters_other_seed": dict(other_counts),
               "layer_metrics": layers, "spans_recorded": len(tracer.span_start)}
    return {k: layers[k] for k in PER_LAYER}, problems, details


def untraced_measure(jobs, run, workload, seed, seconds, work_dir):
    job_list = jobs.build(workload, seed, work_dir=work_dir)
    run_job(job_list[0], jobs)  # warm-up and first-run digests
    t_start = time.perf_counter()
    pass_no = 0
    while True:
        run.one_pass(job_list, pass_no)
        pass_no += 1
        if time.perf_counter() - t_start >= seconds:
            break
    run.finish()


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "knflow", "__init__.py")):
        fail(f"no knflow sources under {SRC}")
    setup_raw, setup_cal = measure_setup(args.workload, args.seed, Calibration())
    t0 = time.perf_counter()
    jobs = import_knflow()
    t_import = time.perf_counter() - t0
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    run = Run(jobs)
    metrics, problems, details = None, [], {}
    try:
        if args.trace:
            metrics, problems, details = traced_measure(
                jobs, run, args.workload, args.seed, args.seconds, work_dir)
        else:
            untraced_measure(jobs, run, args.workload, args.seed, args.seconds,
                             work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    e2e, extra = end_to_end(run, setup_raw, setup_cal)

    failed = [r for r in run.records if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    for r in unexpected:
        problems.append(f"job {r['job']} (pass {r['pass']}): {r['msg']}")
    correct = not problems

    by_job = {}
    for r in run.records:
        by_job.setdefault(r["job"], []).append(r)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "problems": problems,
        "end_to_end": e2e, **extra, "per_layer": metrics,
        "setup_raw_samples_s": setup_raw, "setup_cal_s": setup_cal,
        "parent_import_s": t_import,
        "cal_min_max_s": [min(run.cals), max(run.cals)],
        "known_defect_failures": sorted({r["job"] + ": " + r["msg"]
                                         for r in failed if r["known_defect"]}),
        "jobs": {name: {"runs": len(rs),
                        "median_norm_s": statistics.median(x["norm"] for x in rs),
                        "median_wall_s": statistics.median(x["wall"] for x in rs),
                        "failed": sum(not x["ok"] for x in rs)}
                 for name, rs in by_job.items()},
        "provenance": provenance(), **details,
        "calibrations_s": run.cals,
        "records": [[r["job"], r["pass"], r["traced"], r["wall"], r["ok"]]
                    for r in run.records],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    n_passes = len({r["pass"] for r in run.records})
    print(f"{args.workload} seed {args.seed}: {len(run.records)} jobs in "
          f"{n_passes} passes, {len(failed)} failed "
          f"({len(failed) - len(unexpected)} known-defect), correct={correct}")
    print("  host: " + ", ".join(f"{k} {v}" for k, v in report["provenance"].items()))
    notes = {
        "setup_s": f"raw {extra['setup_raw_s']:.4g} s",
        "job_p50_s": f"raw {extra['wall_p50_s']:.4g} s, calibration "
                     f"{extra['cal_median_s'] * 1e3:.4g} ms against "
                     f"{NOMINAL_CAL_S * 1e3:.4g} ms nominal",
        "job_tail_s": f"p{extra['tail_percentile']} of {extra['jobs_timed']} jobs",
    }
    for k, v in e2e.items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:34s} {v:14.6g} {END_TO_END[k]}{note}")
    if args.trace:
        for k, v in metrics.items():
            print(f"  {k:34s} {v:14.6g} {PER_LAYER[k]}")
        print(result_line(correct, len(run.records), len(failed), metrics, PER_LAYER))
    else:
        print(result_line(correct, len(run.records), len(failed), e2e, END_TO_END))


def run_all(args):
    """Each workload in its own process (peak RSS is per process)."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            metrics[f"{workload}.{k}"] = v["value"]
            units[f"{workload}.{k}"] = v["unit"]
    print(result_line(correct, attempted, failed, metrics, units))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()

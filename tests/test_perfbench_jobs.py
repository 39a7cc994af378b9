"""Every benchmark job runs once and gives a correct outcome.

This is the benchmark's own ``correct=true`` gate on a single pass: each
job of the three workloads is built from ``perfbench/jobs.py`` at one seed,
run through ``perfbench/run.py``'s ``run_job`` and must be ok, the jobs
marked ``known_defect`` included: they exercise edge branches (such as
the sinh-overflow form of the coefficients) that would otherwise fail
unseen.  A library name that a job calls and that was renamed or deleted
fails here.
"""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SEED = 51


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = dict(os.environ)  # run.py pins the BLAS thread counts at import
    try:
        return _load("jobs"), _load("run")
    finally:
        os.environ.clear()
        os.environ.update(saved)


@pytest.mark.parametrize("workload", ["pointwise", "batch-verify", "cli-pipeline"])
def test_every_job_is_correct(bench, workload, tmp_path):
    jobs, run = bench
    job_list = jobs.build(workload, SEED, work_dir=str(tmp_path))
    assert job_list
    failed = []
    for job in job_list:
        _, ok, msg, _ = run.run_job(job, jobs)
        if not ok:
            failed.append(f"{job.name}: {msg}")
    assert not failed, failed

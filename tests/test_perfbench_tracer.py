"""The report attributes that the benchmark tracer reads still exist.

`perfbench/tracer.py` counts convexity pairs and cells and EVI cells from
each report's `pairs_tested`, `t_grid_size`, `t_samples` and `z_samples`,
read through `getattr` with a default of 0, so a renamed attribute would
turn those counters to 0 without an error.  This test runs one convexity
and one EVI check under the tracer and compares its counters with the
grid shapes of the reports.
"""

from knflow import analysis, convexity
from knflow.coefficients import CurvatureParams
from knflow.core import SampleSpec
from knflow.flows import oracle_flow, time_grid
from knflow.functionals import library

from test_perfbench_jobs import _load

P01 = CurvatureParams(0.0, -1.0)


def test_tracer_counts_report_grids():
    fn = library("log-x", P01)
    curve = oracle_flow("log-x", P01, 1.0, time_grid(0.0, 0.4, 40))
    pairs, zs = SampleSpec(3, 40), SampleSpec(3, 9)
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        conv = convexity.check_kn_convex(fn, P01, pairs)
        evi = analysis.check_evi_kn(curve, fn, P01, "i", zs, t_samples=10)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["convexity.pairs_tested"] == conv.rows == 40
    assert counts["convexity.cells"] == pairs.count * conv.cols == 1320
    assert counts["analysis.evi.cells"] == evi.rows * evi.cols == 90

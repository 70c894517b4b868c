"""Benchmark: Figures 8-10 -- cross-platform sweep on one combined frontier."""

from _bench_io import report

from tests import claims


def test_sweep_multiplatform_combined_frontier():
    report(claims.check("sweepmp"))

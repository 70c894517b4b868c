"""Benchmark: Figure 14 -- cross-dataset / cross-load / cross-platform summary."""

from _bench_io import report

from tests import claims


def test_fig14_summary():
    report(claims.check("fig14"))

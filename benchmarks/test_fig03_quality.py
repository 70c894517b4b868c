"""Benchmark: Figure 3 -- quality vs accuracy."""

from _bench_io import report

from tests import claims


def test_fig03_quality():
    report(claims.check("fig03"))

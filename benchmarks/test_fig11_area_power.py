"""Benchmark: Figure 11 -- area and power breakdown."""

from _bench_io import report

from tests import claims


def test_fig11_area_power():
    report(claims.check("fig11"))

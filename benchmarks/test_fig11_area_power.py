"""Benchmark: Figure 11 -- area and power breakdown."""

from conftest import report

from tests import claims


def test_fig11_area_power():
    report(claims.check("fig11"))

"""Benchmark: Figure 3 -- quality vs accuracy."""

from conftest import report

from tests import claims


def test_fig03_quality():
    report(claims.check("fig03"))

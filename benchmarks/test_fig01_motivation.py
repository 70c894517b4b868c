"""Benchmark: Figure 1(c) -- multi-stage demand reduction at iso-quality."""

from conftest import report

from tests import claims


def test_fig01_motivation():
    report(claims.check("fig01"))

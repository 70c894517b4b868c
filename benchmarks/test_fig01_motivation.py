"""Benchmark: Figure 1(c) -- multi-stage demand reduction at iso-quality."""

from _bench_io import report

from tests import claims


def test_fig01_motivation():
    report(claims.check("fig01"))

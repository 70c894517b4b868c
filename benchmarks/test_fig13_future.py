"""Benchmark: Figure 13 -- future, SSD-backed model scaling."""

from _bench_io import report

from tests import claims


def test_fig13_locality():
    report(claims.check("fig13", claims.larger_tables_spill_to_ssd))


def test_fig13_scaling():
    report(claims.check("fig13", claims.multistage_scales_more_gracefully))

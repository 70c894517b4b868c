"""Benchmark: Table 1 / Figure 2 -- the Pareto-optimal model sweep."""

from _bench_io import report

from tests import claims


def test_tab01_pareto_models():
    report(claims.check("tab01"))

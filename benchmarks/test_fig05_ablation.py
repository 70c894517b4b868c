"""Benchmark: Figure 5 -- RPAccel ablation (O.1 - O.5)."""

from _bench_io import report

from tests import claims


def test_fig05_ablation():
    report(claims.check("fig05"))

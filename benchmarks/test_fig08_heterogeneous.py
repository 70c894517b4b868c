"""Benchmark: Figure 8 -- heterogeneous CPU-GPU mapping."""

from _bench_io import report

from tests import claims


def test_fig08_iso_quality():
    report(
        claims.check(
            "fig08",
            claims.gpu_has_the_lowest_p99_at_low_load,
            claims.only_cpu_keeps_up_at_high_load,
        )
    )


def test_fig08_sla_quality():
    report(
        claims.check(
            "fig08",
            claims.gpu_ranks_more_items_under_sla,
            claims.gpu_reaches_higher_quality_under_sla,
        )
    )

"""Benchmark: Figure 10 -- RPAccel micro-architecture design space."""

from _bench_io import report

from tests import claims


def test_fig10a_utilization():
    report(
        claims.check(
            "fig10",
            claims.small_models_waste_large_arrays,
            claims.reconfigurable_array_raises_utilization,
        )
    )


def test_fig10b_topk():
    report(
        claims.check(
            "fig10", claims.topk_filter_is_exact_and_fast, claims.ctr_threshold_cuts_topk_sram
        )
    )


def test_fig10c_cache_partition():
    report(claims.check("fig10", claims.larger_static_cache_lowers_amat))

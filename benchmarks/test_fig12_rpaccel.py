"""Benchmark: Figure 12 -- RPAccel at-scale evaluation."""

from _bench_io import report

from tests import claims


def test_fig12_at_scale():
    report(
        claims.check(
            "fig12",
            claims.rpaccel_cuts_latency_3x_and_raises_throughput_6x,
            claims.rpaccel_capacity_grows_with_stages,
        )
    )


def test_fig12_asymmetric_provisioning():
    report(claims.check("fig12", claims.fewer_backend_subarrays_cut_low_load_latency))

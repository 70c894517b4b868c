"""Benchmark: Figure 7 -- multi-stage scheduling on CPUs."""

from _bench_io import report

from tests import claims


def test_fig07_single_stage():
    report(claims.check("fig07", claims.larger_model_trades_p99_for_quality))


def test_fig07_multistage():
    report(
        claims.check(
            "fig07",
            claims.two_stage_cuts_cpu_p99_about_4x,
            claims.rmsmall_frontend_beats_rmmed_frontend,
        )
    )


def test_fig07_iso_quality():
    report(claims.check("fig07", claims.two_stage_beats_one_and_three_stage))

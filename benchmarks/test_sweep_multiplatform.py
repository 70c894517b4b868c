"""Benchmark: Figures 8-10 -- cross-platform sweep on one combined frontier."""

from conftest import report

from repro.experiments.registry import default_registry, packaged_scenario
from repro.scenarios.runner import platform_names


def test_sweep_multiplatform_combined_frontier(benchmark):
    spec = default_registry().get("sweepmp")
    result = benchmark.pedantic(spec.execute, rounds=1, iterations=1, warmup_rounds=0)
    report(result)
    (cell,) = packaged_scenario("sweepmp").expand()
    platforms = {r["platform"] for r in result.rows}
    assert platforms == set(platform_names(cell.params["platforms"]))
    # Quality is platform- and load-independent: each pipeline reports one
    # NDCG across every (platform, qps) cell.
    by_pipeline = {}
    for row in result.rows:
        by_pipeline.setdefault(row["pipeline"], set()).add(row["quality_ndcg"])
    assert all(len(values) == 1 for values in by_pipeline.values())
    # RPAccel rows that avoid saturation beat the CPU baseline (paper: the
    # accelerator dominates general-purpose hardware at iso-quality).
    speedups = [
        r["speedup_vs_baseline"]
        for r in result.rows
        if r["platform"] == "rpaccel" and r["speedup_vs_baseline"] is not None
    ]
    assert speedups and all(s > 1.0 for s in speedups)
    # The combined frontier is reported for every load point.
    frontier_notes = [n for n in result.notes if "combined frontier" in n]
    assert len(frontier_notes) >= len(cell.params["qps"])

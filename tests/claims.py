"""Every claim about a registry entry's rows, written once.

A claim is a named function over one registry entry's
:class:`~repro.experiments.common.ExperimentResult`.  It asserts one
qualitative result of the paper (or of a serving or fleet extension) on the
rows that ``recpipe run --only <id>`` writes, so it checks the registry's
own configuration.  A multi-panel figure's claims pick their panel by the
merged ``panel`` column.

:data:`CLAIMS` maps each entry to its claims.  ``tests/test_experiments.py``
runs every (entry, claim) pair; the per-figure tests there and in
``benchmarks/`` call into the same table.  :func:`entry_result` runs an
entry at most once per process, so every suite in one pytest run reads the
same rows.  Claims read those rows and must not change them.
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache
from typing import Callable

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import default_registry, packaged_scenario
from repro.scenarios.runner import platform_names

Claim = Callable[[ExperimentResult], None]

#: Entry id -> the claims about its rows, in declaration order.
CLAIMS: dict[str, list[Claim]] = {}

#: The reactive load estimator the predictive ones are measured against.
BASELINE_ESTIMATOR = "windowed"

#: Relative quality the online router may give up against the oracle.
QUALITY_SLACK = 1e-3


def claim(*entry_ids: str) -> Callable[[Claim], Claim]:
    """Register the decorated function as a claim about each entry's rows."""

    def register(function: Claim) -> Claim:
        for entry_id in entry_ids:
            CLAIMS.setdefault(entry_id, []).append(function)
        return function

    return register


@lru_cache(maxsize=None)
def entry_result(entry_id: str) -> ExperimentResult:
    """The registry entry's result, run at most once per process."""
    return default_registry().get(entry_id).execute()


def check(
    entry_id: str, *claims: Claim, result: ExperimentResult | None = None
) -> ExperimentResult:
    """Assert ``claims`` (every claim of the entry when none is named) and return the rows.

    ``result`` defaults to the entry's shared run, :func:`entry_result`.
    """
    result = entry_result(entry_id) if result is None else result
    before = copy.deepcopy((result.rows, result.notes))
    for function in claims or CLAIMS[entry_id]:
        assert function in CLAIMS[entry_id], f"{function.__name__} is no claim about {entry_id}"
        function(result)
    assert (result.rows, result.notes) == before, f"a claim changed the rows of {entry_id}"
    return result


def _scenario_params(name: str) -> dict:
    """The knobs of a packaged one-cell scenario."""
    (cell,) = packaged_scenario(name).expand()
    return cell.params


# --------------------------------------------------------------------------- #
# Paper figures and Table 1
# --------------------------------------------------------------------------- #


@claim("fig01")
def multistage_cuts_compute_and_embedding_demand(result):
    reduction = result.filtered(config="reduction")[0]
    assert 5.0 < reduction["compute_macs"] < 10.0  # paper: 7.5x
    assert 3.0 < reduction["embedding_bytes"] < 5.5  # paper: 4.0x


@claim("fig01")
def two_stage_keeps_one_stage_quality(result):
    one = result.filtered(config="one-stage")[0]
    two = result.filtered(config="two-stage")[0]
    assert two["quality_ndcg"] >= one["quality_ndcg"] - 1.0


def _by_model(result) -> dict:
    return {row["model"]: row for row in result.rows}


@claim("tab01")
def three_pareto_models(result):
    assert set(_by_model(result)) == {"RMsmall", "RMmed", "RMlarge"}


@claim("tab01")
def larger_model_lowers_test_loss(result):
    rows = _by_model(result)
    assert rows["RMlarge"]["measured_test_loss"] <= rows["RMsmall"]["measured_test_loss"] + 0.05


@claim("tab01")
def published_error_falls_with_model_size(result):
    rows = _by_model(result)
    assert (
        rows["RMlarge"]["paper_error_pct"]
        < rows["RMmed"]["paper_error_pct"]
        < rows["RMsmall"]["paper_error_pct"]
    )


@claim("tab01")
def reference_flops_grow_with_model_size(result):
    rows = _by_model(result)
    assert (
        rows["RMsmall"]["reference_flops"]
        < rows["RMmed"]["reference_flops"]
        < rows["RMlarge"]["reference_flops"]
    )


@claim("fig03")
def quality_grows_with_items_ranked(result):
    for model in ("RMsmall", "RMmed", "RMlarge"):
        rows = sorted(result.filtered(model=model), key=lambda r: r["items_ranked"])
        values = [r["quality_ndcg"] for r in rows]
        assert values == sorted(values)


@claim("fig03")
def quality_grows_with_model_size(result):
    at_4096 = {r["model"]: r["quality_ndcg"] for r in result.filtered(items_ranked=4096)}
    assert at_4096["RMlarge"] > at_4096["RMmed"] > at_4096["RMsmall"]


@claim("fig03")
def items_axis_dominates_model_axis(result):
    """Paper: ranking more items moves quality more than a bigger model."""
    small_4096 = result.filtered(model="RMsmall", items_ranked=4096)[0]["quality_ndcg"]
    large_256 = result.filtered(model="RMlarge", items_ranked=256)[0]["quality_ndcg"]
    assert small_4096 > large_256


@claim("fig05")
def rpaccel_cuts_latency_and_raises_throughput(result):
    final = result.rows[-1]
    assert final["latency_speedup"] > 2.0  # paper: up to 5x
    assert final["throughput_gain"] > 3.0  # paper: up to 10x


@claim("fig05")
def full_rpaccel_is_the_best_step(result):
    final = result.rows[-1]
    assert final["latency_ms"] == min(r["latency_ms"] for r in result.rows)
    assert final["capacity_qps"] == max(r["capacity_qps"] for r in result.rows)


@claim("fig05")
def reconfigurable_arrays_raise_capacity(result):
    by_step = {r["step"]: r for r in result.rows}
    assert (
        by_step["O.3 + reconfigurable sub-arrays"]["capacity_qps"]
        > by_step["O.2 + on-chip top-k filter"]["capacity_qps"]
    )


FIG07_LEFT = "fig07_left_single_stage_cpu"
FIG07_CENTER = "fig07_center_multistage_cpu"
FIG07_RIGHT = "fig07_right_iso_quality_cpu"


@claim("fig07")
def larger_model_trades_p99_for_quality(result):
    at_4096 = {r["model"]: r for r in result.filtered(panel=FIG07_LEFT, items_ranked=4096)}
    assert at_4096["RMlarge"]["quality_ndcg"] > at_4096["RMsmall"]["quality_ndcg"]
    assert at_4096["RMlarge"]["p99_latency_ms"] > at_4096["RMsmall"]["p99_latency_ms"]


def _fig07_center(result) -> dict:
    return {r["config"]: r for r in result.filtered(panel=FIG07_CENTER)}


@claim("fig07")
def two_stage_cuts_cpu_p99_about_4x(result):
    rows = _fig07_center(result)
    one, two = rows["one-stage"], rows["two-stage (RMsmall-RMlarge)"]
    assert one["p99_latency_ms"] / two["p99_latency_ms"] > 2.0  # paper: ~4x
    assert two["quality_ndcg"] >= one["quality_ndcg"] - 1.0


@claim("fig07")
def rmsmall_frontend_beats_rmmed_frontend(result):
    """Paper Takeaway 1: RMmed-RMlarge is slower at (roughly) equal quality."""
    rows = _fig07_center(result)
    small_fe, med_fe = rows["two-stage (RMsmall-RMlarge)"], rows["two-stage (RMmed-RMlarge)"]
    assert med_fe["p99_latency_ms"] > 1.2 * small_fe["p99_latency_ms"]  # paper: 1.6x
    assert abs(med_fe["quality_ndcg"] - small_fe["quality_ndcg"]) < 2.5


@claim("fig07")
def two_stage_beats_one_and_three_stage(result):
    at_500 = {r["config"]: r for r in result.filtered(panel=FIG07_RIGHT, qps=500)}
    assert at_500["two-stage"]["p99_latency_ms"] < at_500["one-stage"]["p99_latency_ms"]
    # Three-stage loses part of the benefit to inter-stage overheads.
    assert at_500["three-stage"]["p99_latency_ms"] >= at_500["two-stage"]["p99_latency_ms"]


FIG08_TOP = "fig08_top_heterogeneous_iso_quality"
FIG08_BOTTOM = "fig08_bottom_sla_quality"


@claim("fig08")
def gpu_has_the_lowest_p99_at_low_load(result):
    low_load = {r["config"]: r for r in result.filtered(panel=FIG08_TOP, qps=50)}
    assert low_load["gpu 1-stage"]["p99_latency_ms"] < low_load["cpu 2-stage"]["p99_latency_ms"]


@claim("fig08")
def only_cpu_keeps_up_at_high_load(result):
    high_load = {r["config"]: r for r in result.filtered(panel=FIG08_TOP, qps=1000)}
    assert not high_load["cpu 2-stage"]["saturated"]
    assert high_load["gpu 1-stage"]["saturated"]


def _best_under_sla(result, config: str) -> dict:
    """The highest-quality row of ``config`` meeting the 25 ms SLA at QPS 70."""
    rows = result.filtered(panel=FIG08_BOTTOM, config=config)
    return max((r for r in rows if r["meets_sla"]), key=lambda r: r["quality_ndcg"])


@claim("fig08")
def gpu_ranks_more_items_under_sla(result):
    gpu, cpu = _best_under_sla(result, "gpu 1-stage"), _best_under_sla(result, "cpu 2-stage")
    assert gpu["items_ranked"] > cpu["items_ranked"]


@claim("fig08")
def gpu_reaches_higher_quality_under_sla(result):
    """Paper: NDCG 92.25 on the GPU against 87 on the CPU."""
    gpu, cpu = _best_under_sla(result, "gpu 1-stage"), _best_under_sla(result, "cpu 2-stage")
    assert gpu["quality_ndcg"] > cpu["quality_ndcg"]


FIG10_UTILIZATION = "fig10a_systolic_utilization"
FIG10_TOPK = "fig10b_topk_filter"
FIG10_CACHE = "fig10c_cache_partition"


def _utilization(result, model: str) -> dict:
    rows = result.filtered(panel=FIG10_UTILIZATION, model=model)
    return {r["array"]: r["utilization"] for r in rows}


@claim("fig10")
def small_models_waste_large_arrays(result):
    small, large = _utilization(result, "RMsmall"), _utilization(result, "RMlarge")
    assert small["8x8"] > small["128x128"]
    assert large["128x128"] > small["128x128"]


@claim("fig10")
def reconfigurable_array_raises_utilization(result):
    two_stage = _utilization(result, "two-stage")
    assert two_stage["reconfigurable"] > 1.3 * two_stage["monolithic"]  # paper: ~30% -> ~60%


def _topk(result) -> dict:
    return {r["metric"]: r["value"] for r in result.filtered(panel=FIG10_TOPK)}


@claim("fig10")
def topk_filter_is_exact_and_fast(result):
    values = _topk(result)
    assert values["recall_vs_exact_topk"] > 0.95
    assert values["drain_cycles"] < 1000


@claim("fig10")
def ctr_threshold_cuts_topk_sram(result):
    values = _topk(result)
    without = values["sram_overhead_no_threshold"]
    with_threshold = values["sram_overhead_with_threshold"]
    # Paper: ~12% SRAM overhead without the CTR threshold vs ~3% with it.
    assert 0.08 < without < 0.16
    assert 0.01 < with_threshold < 0.05
    assert without > 2.5 * with_threshold


@claim("fig10")
def larger_static_cache_lowers_amat(result):
    def lowest_amat(static_cache_mb: float, **ratio) -> float:
        rows = result.filtered(panel=FIG10_CACHE, static_cache_mb=static_cache_mb, **ratio)
        return min(r["amat_cycles"] for r in rows)

    assert lowest_amat(12.0) < lowest_amat(4.0)
    assert lowest_amat(12.0, filtering_ratio="1/8") < lowest_amat(4.0, filtering_ratio="1/8")


@claim("fig11")
def rpaccel_area_and_power_overheads(result):
    assert "area overhead" in " ".join(result.notes)
    totals = {r["component"]: r for r in result.rows}
    base, rp = totals["TOTAL baseline"], totals["TOTAL rpaccel"]
    assert 1.05 < rp["area_mm2"] / base["area_mm2"] < 1.2  # paper: +11%
    assert 1.2 < rp["power_w"] / base["power_w"] < 1.5  # paper: +36%


FIG12_SCALE = "fig12_top_rpaccel_at_scale"
FIG12_ASYMMETRIC = "fig12_bottom_asymmetric_provisioning"


def _at_scale(result, config: str, qps: float) -> dict:
    return result.filtered(panel=FIG12_SCALE, config=config, qps=qps)[0]


@claim("fig12")
def rpaccel_cuts_latency_3x_and_raises_throughput_6x(result):
    base = _at_scale(result, "baseline accel (1-stage)", 200)
    rp2 = _at_scale(result, "rpaccel 2-stage", 200)
    assert base["unloaded_latency_ms"] / rp2["unloaded_latency_ms"] > 2.0  # paper: ~3x
    assert rp2["capacity_qps"] / base["capacity_qps"] > 4.0  # paper: ~6x


@claim("fig12")
def rpaccel_capacity_grows_with_stages(result):
    base = _at_scale(result, "baseline accel (1-stage)", 200)
    rp1 = _at_scale(result, "rpaccel 1-stage", 200)
    rp2 = _at_scale(result, "rpaccel 2-stage", 200)
    assert rp1["capacity_qps"] > base["capacity_qps"]
    assert rp2["capacity_qps"] > rp1["capacity_qps"]


@claim("fig12")
def baseline_saturates_before_rpaccel(result):
    assert _at_scale(result, "baseline accel (1-stage)", 1600)["saturated"]
    assert not _at_scale(result, "rpaccel 2-stage", 1600)["saturated"]


@claim("fig12")
def fewer_backend_subarrays_cut_low_load_latency(result):
    low = {r["config"]: r for r in result.filtered(panel=FIG12_ASYMMETRIC, load="low")}
    assert low["RPAccel8,2"]["unloaded_latency_ms"] < low["RPAccel8,16"]["unloaded_latency_ms"]


FIG13_LOCALITY = "fig13_top_ssd_locality"
FIG13_SCALING = "fig13_bottom_future_scaling"


def _by_scale(result, panel: str) -> list[dict]:
    return sorted(result.filtered(panel=panel), key=lambda r: r["embedding_scale"])


@claim("fig13")
def larger_tables_spill_to_ssd(result):
    rows = _by_scale(result, FIG13_LOCALITY)
    assert rows[0]["fraction_in_ssd"] == 0.0
    assert rows[-1]["fraction_in_ssd"] > 0.85  # paper: ~97% at 32x
    assert rows[-1]["onchip_miss_rate"] >= rows[0]["onchip_miss_rate"]
    assert rows[-1]["overlap_fraction"] <= rows[0]["overlap_fraction"]


@claim("fig13")
def multistage_scales_more_gracefully(result):
    rows = _by_scale(result, FIG13_SCALING)
    single_growth = rows[-1]["single_stage_latency_ms"] / rows[0]["single_stage_latency_ms"]
    multi_growth = rows[-1]["multi_stage_latency_ms"] / rows[0]["multi_stage_latency_ms"]
    assert math.isfinite(single_growth) and math.isfinite(multi_growth)
    assert multi_growth < single_growth
    assert rows[-1]["multi_stage_latency_ms"] < rows[-1]["single_stage_latency_ms"]


def _best_p99(result, dataset: str, qps: float, platform: str) -> float:
    """The lowest unsaturated p99 of one (dataset, load, platform) cell, inf if none."""
    rows = result.filtered(dataset=dataset, qps=qps, platform=platform)
    return min((r["p99_latency_ms"] for r in rows if not r["saturated"]), default=math.inf)


@claim("fig14")
def accelerator_has_the_lowest_tail_latency(result):
    for dataset in ("criteo", "movielens-1m", "movielens-20m"):
        for qps in (100, 500):
            accel = _best_p99(result, dataset, qps, "accel")
            gpu = _best_p99(result, dataset, qps, "gpu")
            assert accel < _best_p99(result, dataset, qps, "cpu")
            assert accel <= gpu or math.isinf(gpu)


@claim("fig14")
def accelerator_keeps_up_at_high_load(result):
    """At QPS 2000 the accelerator keeps up on Criteo while the GPU designs saturate."""
    accel_high = _best_p99(result, "criteo", 2000, "accel")
    gpu_high = _best_p99(result, "criteo", 2000, "gpu")
    assert math.isfinite(accel_high)
    assert math.isinf(gpu_high) or gpu_high > accel_high


@claim("fig14")
def multistage_is_the_best_cpu_design(result):
    rows = result.filtered(dataset="criteo", qps=500, platform="cpu")
    best = min((r for r in rows if not r["saturated"]), key=lambda r: r["p99_latency_ms"])
    assert best["num_stages"] > 1


# --------------------------------------------------------------------------- #
# Sweep, serving and fleet scenarios
# --------------------------------------------------------------------------- #


@claim("sweepmp")
def every_platform_is_swept(result):
    platforms = platform_names(_scenario_params("sweepmp")["platforms"])
    assert {r["platform"] for r in result.rows} == set(platforms)


@claim("sweepmp")
def quality_is_platform_and_load_independent(result):
    """Each pipeline reports one NDCG across every (platform, qps) cell."""
    by_pipeline = {}
    for row in result.rows:
        by_pipeline.setdefault(row["pipeline"], set()).add(row["quality_ndcg"])
    assert all(len(values) == 1 for values in by_pipeline.values())


@claim("sweepmp")
def rpaccel_beats_the_cpu_baseline(result):
    """Unsaturated RPAccel rows beat the CPU baseline at iso-quality."""
    speedups = [
        r["speedup_vs_baseline"]
        for r in result.rows
        if r["platform"] == "rpaccel" and r["speedup_vs_baseline"] is not None
    ]
    assert speedups and all(s > 1.0 for s in speedups)


@claim("sweepmp")
def combined_frontier_at_every_load(result):
    frontier_notes = [n for n in result.notes if "combined frontier" in n]
    assert len(frontier_notes) >= len(_scenario_params("sweepmp")["qps"])


def _policy_rows(result) -> dict:
    return {(row["trace"], row["policy"], row["estimator"]): row for row in result.rows}


def _estimators(result, policy: str) -> list[str]:
    return list(dict.fromkeys(row["estimator"] for row in result.rows if row["policy"] == policy))


@claim("router")
def router_replays_every_trace_and_estimator(result):
    assert {row["trace"] for row in result.rows} == {"diurnal", "spike", "ramp"}
    assert set(_estimators(result, "online")) == set(_scenario_params("router")["estimator"])


@claim("router")
def effective_quality_discounts_violations(result):
    for row in result.rows:
        assert "effective_quality" in row
        assert row["effective_quality"] <= row["quality_ndcg"] + 1e-12


@claim("router")
def online_router_sits_between_oracle_and_static(result):
    """Clairvoyance bounds every online policy, which bounds static."""
    by_key = _policy_rows(result)
    for trace in {row["trace"] for row in result.rows}:
        static, oracle = by_key[(trace, "static", "-")], by_key[(trace, "oracle", "-")]
        assert static["num_switches"] == 0
        for estimator in _estimators(result, "online"):
            online = by_key[(trace, "online", estimator)]
            assert oracle["sla_violation_rate"] <= online["sla_violation_rate"]
            assert online["sla_violation_rate"] <= static["sla_violation_rate"]


@claim("router")
def predictive_estimator_wins_the_spike(result):
    """The MP-Rec-style headline on the flash-crowd trace.

    The best predictive estimator matches or beats the reactive baseline at
    equal or fewer switches, within 0.1% of the oracle's quality.
    """
    by_key = _policy_rows(result)
    baseline = by_key[("spike", "online", BASELINE_ESTIMATOR)]
    static, oracle = by_key[("spike", "static", "-")], by_key[("spike", "oracle", "-")]
    predictive = [
        by_key[("spike", "online", name)]
        for name in _estimators(result, "online")
        if name != BASELINE_ESTIMATOR
    ]
    best = min(predictive, key=lambda row: (row["sla_violation_rate"], row["num_switches"]))
    assert baseline["sla_violation_rate"] < static["sla_violation_rate"]
    assert best["sla_violation_rate"] <= baseline["sla_violation_rate"]
    assert best["num_switches"] <= baseline["num_switches"]
    assert best["quality_ndcg"] >= oracle["quality_ndcg"] * (1.0 - QUALITY_SLACK)
    # Discounting SLA violators must rank the routers above static on spike.
    assert best["effective_quality"] > static["effective_quality"]


@claim("frontend")
def frontend_replays_every_trace_and_estimator(result):
    assert {row["trace"] for row in result.rows} == {"diurnal", "spike", "ramp"}
    assert set(_estimators(result, "frontend")) == set(_scenario_params("frontend")["estimator"])


@claim("frontend")
def frontend_sits_between_oracle_and_static(result):
    """The per-query layer respects the step router's bounds.

    Its violations are chosen (shed or deferred), not suffered.
    """
    by_key = _policy_rows(result)
    for trace in {row["trace"] for row in result.rows}:
        static, oracle = by_key[(trace, "static", "-")], by_key[(trace, "oracle", "-")]
        assert static["shed_rate"] == oracle["shed_rate"] == 0.0
        for estimator in _estimators(result, "frontend"):
            frontend = by_key[(trace, "frontend", estimator)]
            assert oracle["sla_violation_rate"] <= frontend["sla_violation_rate"]
            assert frontend["sla_violation_rate"] <= static["sla_violation_rate"]


@claim("frontend")
def frontend_sheds_and_batches_within_bounds(result):
    max_batch = _scenario_params("frontend")["max_batch"]
    for row in result.rows:
        if row["policy"] == "frontend":
            assert 0.0 <= row["shed_rate"] <= row["sla_violation_rate"] + 1e-12
            assert 1.0 <= row["mean_batch_size"] <= max_batch


@claim("flashcrowd", "coldcache")
def online_beats_static_on_violations(result):
    rows = {row["policy"]: row for row in result.rows}
    assert rows["online"]["sla_violation_rate"] < rows["static"]["sla_violation_rate"]


def capacity_picks(result) -> tuple[dict, dict, list[dict]]:
    """The cheapest multi-node mix serving the peak, the cheapest single node, the frontier."""
    singles = [row for row in result.rows if row["num_nodes"] == 1]
    winners = [row for row in result.rows if row["num_nodes"] > 1 and row["serves_peak"]]
    frontier = [row for row in result.rows if row["on_frontier"]]
    cheapest = min(winners, key=lambda row: row["cost_usd"])
    return cheapest, min(singles, key=lambda row: row["cost_usd"]), frontier


@claim("capacity")
def no_single_node_serves_the_peak(result):
    """The diurnal million-user peak needs a multi-node mix."""
    singles = [row for row in result.rows if row["num_nodes"] == 1]
    multis = [row for row in result.rows if row["num_nodes"] > 1]
    assert singles and multis
    assert not any(row["serves_peak"] for row in singles)
    assert any(row["serves_peak"] for row in multis)


@claim("capacity")
def frontier_holds_the_cheapest_serving_mix(result):
    winner, _, frontier = capacity_picks(result)
    assert frontier
    assert winner["mix"] in {row["mix"] for row in frontier}


@claim("capacity")
def sharding_never_speeds_up_a_node(result):
    """A homogeneous sharded fleet's half-capacity p99 probe is at least the single node's."""
    for platform in _scenario_params("capacity")["platforms"]:
        probes = {
            row["num_nodes"]: row["probe_p99_ms"]
            for row in result.rows
            if row["memory_ok"] and "+" not in row["mix"] and row["mix"].endswith(f"x{platform}")
        }
        assert 1 in probes
        for num_nodes, probe in probes.items():
            if num_nodes > 1:
                assert probe >= probes[1] - 1e-9

"""Benchmark: fleet capacity-planning claims + cluster-gather micro-benchmark.

Two parts, mirroring the cluster ISSUE's acceptance criteria:

* the ``capacity`` registry experiment's headline claims hold at full scale —
  the diurnal million-user peak exceeds every single node's SLA-feasible
  load, at least one multi-node mix serves it, the cost/QPS frontier is
  non-empty, and sharding never makes a homogeneous fleet's half-capacity
  p99 probe cheaper than the unsharded single node's;
* pricing a fresh placement is cheap enough to sit inside a sweep —
  :func:`~repro.cluster.sharding.shard_row_wise` plus
  :func:`~repro.cluster.topology.gather_seconds_per_node` are timed together
  per fleet size (the plan's per-node aggregates are built while sharding,
  so timing the gather alone would time only O(nodes) arithmetic) while
  asserting the critical path is monotone in shard count.

Both parts record their numbers to ``BENCH_cluster.json`` (override the
destination with ``RECPIPE_BENCH_CLUSTER_PATH``), each under its own section
via the shared :mod:`_bench_io` merge helper, so future PRs can regress
against the trajectory.
"""

import time

from _bench_io import CLUSTER_BENCH, record_bench
from conftest import report

from repro.cluster import InterconnectLink, gather_seconds_per_node, shard_row_wise
from repro.cluster.sharding import tables_from_cost
from repro.experiments import capacity_planning
from repro.experiments.registry import default_registry, packaged_scenario
from repro.models.zoo import RM_LARGE


def test_capacity_experiment_claims():
    start = time.perf_counter()
    result = default_registry().get("capacity").execute()
    wall_clock = time.perf_counter() - start
    report(result)
    (cell,) = packaged_scenario("capacity").expand()

    rows = result.rows
    singles = [row for row in rows if row["num_nodes"] == 1]
    multis = [row for row in rows if row["num_nodes"] > 1]
    assert singles and multis

    # Headline: no single node serves the diurnal peak within SLA, so the
    # cheapest serving fleet must be a multi-node mix.
    assert not any(row["serves_peak"] for row in singles)
    winners = [row for row in multis if row["serves_peak"]]
    assert winners
    winner = min(winners, key=lambda row: row["cost_usd"])
    cheapest_single = min(singles, key=lambda row: row["cost_usd"])

    # The cost/QPS frontier artifact is non-empty and includes the winner.
    frontier = [row for row in rows if row["on_frontier"]]
    assert frontier
    assert winner["mix"] in {row["mix"] for row in frontier}

    # Sharding cannot make a node faster: a homogeneous sharded fleet's
    # half-capacity p99 probe is at least the single node's (gather tax >= 0).
    for platform in cell.params["platforms"]:
        probes = {
            row["num_nodes"]: row["probe_p99_ms"]
            for row in rows
            if row["memory_ok"] and "+" not in row["mix"] and row["mix"].endswith(f"x{platform}")
        }
        assert 1 in probes
        for num_nodes, probe in probes.items():
            if num_nodes > 1:
                assert probe >= probes[1] - 1e-9

    payload = {
        "wall_clock_seconds": wall_clock,
        "num_mixes": len(rows),
        "mixes_per_second": len(rows) / wall_clock,
        "frontier_size": len(frontier),
        "winner_mix": winner["mix"],
        "winner_cost_usd": winner["cost_usd"],
        "winner_sla_qps": winner["sla_qps"],
        "cheapest_single_mix": cheapest_single["mix"],
        "cheapest_single_cost_usd": cheapest_single["cost_usd"],
        "cheapest_single_sla_qps": cheapest_single["sla_qps"],
    }
    path = record_bench(CLUSTER_BENCH, "capacity_sweep", payload)
    print(
        f"\ncapacity sweep: {len(rows)} mixes in {wall_clock:.2f} s, winner {winner['mix']} "
        f"(${winner['cost_usd']:,.0f}) -> {path}"
    )


def test_cluster_gather_microbenchmark():
    """The gather critical path grows with shard count; a fresh placement prices fast."""
    cost = RM_LARGE.reference_cost(capacity_planning.NUM_TABLES).scaled(
        capacity_planning.EMBEDDING_SCALE
    )
    tables = tables_from_cost(
        cost,
        capacity_planning.NUM_TABLES,
        items_per_query=capacity_planning.ITEMS_PER_QUERY,
    )
    link = InterconnectLink()
    budget = int(capacity_planning.BUDGET_GB * 1024**3)

    repeats, reps = 3, 50
    plans = {}
    previous_max = 0.0
    for num_nodes in (2, 4, 8):
        plan = shard_row_wise(tables, [budget] * num_nodes)
        gather = gather_seconds_per_node(plan, link)
        # Row-wise sharding leaves every home node with remote rows, and
        # spreading the same bytes over more peers never shortens the
        # critical path (per-message overhead accumulates).
        assert gather.min() > 0.0
        assert gather.max() >= previous_max
        previous_max = float(gather.max())

        budgets = [budget] * num_nodes
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(reps):
                gather_seconds_per_node(shard_row_wise(tables, budgets), link)
            best = min(best, time.perf_counter() - start)
        per_eval = best / reps
        # Placing and pricing one fleet must stay invisible next to a mix's compile.
        assert per_eval < 0.1
        plans[f"nodes_{num_nodes}"] = {
            "num_nodes": num_nodes,
            "num_shards": len(plan.assignments),
            "gather_max_us": float(gather.max()) * 1e6,
            "gather_mean_us": float(gather.mean()) * 1e6,
            "shard_and_gather_seconds": per_eval,
        }

    payload = {
        "num_tables": capacity_planning.NUM_TABLES,
        "link_bandwidth_gbs": link.bandwidth_bytes_per_s / 1e9,
        "link_latency_us": link.latency_s * 1e6,
        "plans": plans,
    }
    path = record_bench(CLUSTER_BENCH, "cluster_gather", payload)
    summary = ", ".join(
        f"{stats['num_nodes']} nodes {stats['gather_max_us']:.1f} us" for stats in plans.values()
    )
    print(f"\ncluster gather critical path: {summary} -> {path}")

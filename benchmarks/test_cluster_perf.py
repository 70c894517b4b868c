"""Benchmark: fleet capacity-planning claims + cluster-gather micro-benchmark.

Two parts:

* a timed, uncached run of the ``capacity`` registry entry, checked
  against the entry's claims in ``tests/claims.py`` (the diurnal
  million-user peak needs a multi-node mix, the cost/QPS frontier holds the
  cheapest one, and sharding never makes a node faster);
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

from _bench_io import CLUSTER_BENCH, record_bench, report

from repro.cluster import InterconnectLink, gather_seconds_per_node, shard_row_wise
from repro.cluster.sharding import tables_from_cost
from repro.experiments import capacity_planning
from repro.experiments.registry import default_registry
from repro.models.zoo import RM_LARGE
from tests import claims


def test_capacity_experiment_claims():
    start = time.perf_counter()
    result = default_registry().get("capacity").execute()
    wall_clock = time.perf_counter() - start
    report(claims.check("capacity", result=result))
    winner, cheapest_single, frontier = claims.capacity_picks(result)

    payload = {
        "wall_clock_seconds": wall_clock,
        "num_mixes": len(result.rows),
        "mixes_per_second": len(result.rows) / wall_clock,
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
        f"\ncapacity sweep: {len(result.rows)} mixes in {wall_clock:.2f} s, winner {winner['mix']} "
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

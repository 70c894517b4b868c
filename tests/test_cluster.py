"""Tests for the fleet layer (repro.cluster): sharding, topology, composition.

Four suites:

* **sharding invariants** (hypothesis) — every table row is assigned
  exactly once by both strategies, per-node memory budgets are respected
  or the placement raises :class:`ShardingError`, and the row-wise gather
  critical path is monotone in shard count;
* **reference equivalence** (hypothesis) — the plan's per-node aggregates,
  the gather pricing built on them, the grid-wide fleet p99 and the pooled
  dwell cells equal the per-shard, per-grid-point and ``np.quantile`` forms
  kept in ``tests/cluster_reference.py`` exactly;
* **topology units** — the link/gather arithmetic on hand-checkable
  numbers;
* **cluster composition** — a two-replica :class:`ClusterTable` over the
  synthetic conftest table doubles capacity, pays the gather tax on every
  p99 cell, and routes through the unchanged single-node policies.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterTable,
    EmbeddingTableSpec,
    InterconnectLink,
    NodeSpec,
    ShardAssignment,
    ShardingError,
    ShardingPlan,
    build_cluster_table,
    gather_seconds,
    gather_seconds_per_node,
    node_cost_usd,
    shard_row_wise,
    shard_table_wise,
    tables_from_cost,
)
from repro.accel.embedding_cache import EmbeddingCacheConfig
from repro.cluster.fleet import (
    HOST_BASE_COST_USD,
    _mixture_counts,
    fleet_nodes,
    mix_label,
)
from repro.cluster.topology import remote_cache_hit_rate
from repro.models.zoo import RM_LARGE, RM_SMALL
from repro.serving.metrics import sorted_quantiles
from repro.serving.router import PathTable, route_oracle, route_static
from repro.serving.service_times import CachedServiceConfig
from repro.serving.simulator import SimulationConfig
from tests.cluster_reference import (
    reference_gather_seconds_per_node,
    reference_node_bytes,
    reference_node_lookup_fraction,
    reference_p99_grid,
    reference_pooled_dwell,
    reference_remote_bytes,
    reference_remote_bytes_per_query,
    reference_remote_cache_hit_rate,
    reference_remote_rows,
)
from tests.conftest import flat_trace, make_path, make_table

# --------------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------------- #
table_sets = st.lists(
    st.builds(
        EmbeddingTableSpec,
        name=st.just("t"),
        num_rows=st.integers(min_value=1, max_value=400),
        dim=st.integers(min_value=1, max_value=16),
        # Subnormal lookup rates underflow to a zero payload when multiplied
        # by a shard share, flipping the `payload > 0` gather gate and
        # breaking monotonicity for reasons that are pure float rounding.
        lookups_per_query=st.floats(
            min_value=0.0,
            max_value=50.0,
            allow_nan=False,
            allow_infinity=False,
            allow_subnormal=False,
        ),
    ),
    min_size=1,
    max_size=6,
).map(
    lambda tables: [
        EmbeddingTableSpec(f"t{i}", t.num_rows, t.dim, t.lookups_per_query)
        for i, t in enumerate(tables)
    ]
)


@st.composite
def placements(draw, min_nodes: int = 1) -> ShardingPlan:
    """A feasible plan over ``min_nodes``-9 nodes with uneven budgets.

    Row-wise and table-wise placements come from the two sharders; a
    ``scattered`` placement cuts every table into random contiguous shards
    on random nodes and shuffles the assignment order, so per-node
    accumulation order is exercised beyond what either sharder emits.
    """
    tables = draw(table_sets)
    num_nodes = draw(st.integers(min_value=min_nodes, max_value=9))
    total = sum(t.total_bytes for t in tables)
    extra = st.integers(min_value=0, max_value=2 * total)
    budgets = [total + draw(extra) for _ in range(num_nodes)]
    kind = draw(st.sampled_from(["rowwise", "tablewise", "scattered"]))
    if kind == "rowwise":
        return shard_row_wise(tables, budgets)
    if kind == "tablewise":
        return shard_table_wise(tables, budgets)
    assignments = []
    for index, table in enumerate(tables):
        cuts = draw(st.sets(st.integers(min_value=0, max_value=table.num_rows), max_size=4))
        bounds = sorted({0, table.num_rows} | cuts)
        for start, end in zip(bounds, bounds[1:]):
            node = draw(st.integers(min_value=0, max_value=num_nodes - 1))
            assignments.append(ShardAssignment(index, node, start, end))
    order = draw(st.permutations(range(len(assignments))))
    return ShardingPlan(
        tables=tuple(tables),
        num_nodes=num_nodes,
        node_budgets=tuple(budgets),
        strategy="rowwise",
        assignments=tuple(assignments[i] for i in order),
    )


@st.composite
def samples(draw) -> np.ndarray:
    """A non-NaN float sample of 1 to a few thousand values, often with ties.

    Small samples take arbitrary floats, infinities and signed zeros
    included; large ones are seeded numpy draws, either continuous or
    picked from a handful of distinct values.  A sample's zeros all take
    its first zero's sign: ``np.sort`` and numpy's partition may order
    ``0.0`` and ``-0.0`` differently, so a mix of the two has no comparable
    bits.
    """
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)))
        zeros = values == 0
        values[zeros] = values[zeros][:1]
        return values
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = draw(st.integers(min_value=1, max_value=3000))
    scale = 10.0 ** draw(st.integers(min_value=-9, max_value=3))
    if draw(st.booleans()):
        distinct = rng.exponential(scale, size=draw(st.integers(min_value=1, max_value=8)))
        return rng.choice(distinct, size)
    return rng.exponential(scale, size)


#: No cache, or a per-node cache from under one row to every remote row.
caches = st.one_of(
    st.none(),
    st.builds(
        EmbeddingCacheConfig,
        total_bytes=st.integers(min_value=1, max_value=60_000),
        lookahead_bytes=st.just(0),
        zipf_alpha=st.sampled_from([0.8, 1.0, 1.05, 1.3]),
    ),
)


@st.composite
def platform_tables(draw, min_platforms: int = 1) -> dict[str, PathTable]:
    """``min_platforms``-3 synthetic two-path platform tables with random p99 grids.

    Capacities differ per platform (uneven load weights), and each path's
    row may saturate part-way through its grid.
    """
    tables = {}
    count = draw(st.integers(min_value=min_platforms, max_value=3))
    for platform in ("cpu", "gpu", "rpaccel")[:count]:
        grid = sorted(
            draw(st.sets(st.floats(10.0, 20_000.0, allow_nan=False), min_size=2, max_size=6))
        )
        rows = []
        for _ in range(2):
            row = draw(st.lists(st.floats(1e-4, 0.05), min_size=len(grid), max_size=len(grid)))
            saturate = draw(st.integers(min_value=0, max_value=len(grid)))
            rows.append([p99 if j < saturate else float("inf") for j, p99 in enumerate(row)])
        paths = [
            make_path(platform, model, draw(st.floats(0.5, 20.0)), draw(st.integers(1, 64)), 95.0)
            for model in (RM_LARGE, RM_SMALL)
        ]
        tables[platform] = PathTable(
            paths=paths,
            qps_grid=tuple(grid),
            p99_grid=np.array(rows),
            sla_seconds=0.025,
            simulation=SimulationConfig(num_queries=200, warmup_queries=20),
        )
    return tables


def assert_rows_covered_exactly_once(plan: ShardingPlan) -> None:
    """Re-derive the exactly-once invariant independently of the validator."""
    for index, table in enumerate(plan.tables):
        covered = np.zeros(table.num_rows, dtype=np.int64)
        for shard in plan.assignments:
            if shard.table_index == index:
                covered[shard.row_start : shard.row_end] += 1
        assert np.array_equal(covered, np.ones(table.num_rows, dtype=np.int64))


class TestShardingProperties:
    @settings(max_examples=60, deadline=None)
    @given(tables=table_sets, num_nodes=st.integers(min_value=1, max_value=5))
    def test_row_wise_assigns_every_row_exactly_once(self, tables, num_nodes):
        total = sum(t.total_bytes for t in tables)
        plan = shard_row_wise(tables, [total + 1] * num_nodes)
        assert plan.strategy == "rowwise"
        assert_rows_covered_exactly_once(plan)
        assert plan.node_bytes().sum() == pytest.approx(plan.total_bytes())

    @settings(max_examples=60, deadline=None)
    @given(tables=table_sets, num_nodes=st.integers(min_value=1, max_value=5))
    def test_table_wise_assigns_every_row_exactly_once(self, tables, num_nodes):
        total = sum(t.total_bytes for t in tables)
        plan = shard_table_wise(tables, [total + 1] * num_nodes)
        assert plan.strategy == "tablewise"
        assert_rows_covered_exactly_once(plan)
        # Table-wise placement never splits a table.
        assert len(plan.assignments) == len(tables)
        for shard in plan.assignments:
            assert shard.row_start == 0
            assert shard.row_end == plan.tables[shard.table_index].num_rows

    @settings(max_examples=60, deadline=None)
    @given(
        tables=table_sets,
        num_nodes=st.integers(min_value=1, max_value=5),
        budget_fraction=st.floats(min_value=0.05, max_value=1.5),
        strategy=st.sampled_from([shard_row_wise, shard_table_wise]),
    )
    def test_budgets_respected_or_sharding_error(
        self, tables, num_nodes, budget_fraction, strategy
    ):
        total = sum(t.total_bytes for t in tables)
        budget = max(int(total * budget_fraction / num_nodes), 1)
        try:
            plan = strategy(tables, [budget] * num_nodes)
        except ShardingError:
            return
        assert np.all(plan.node_bytes() <= budget)

    @settings(max_examples=40, deadline=None)
    @given(tables=table_sets)
    def test_row_wise_gather_monotone_in_shard_count(self, tables):
        """Spreading the same rows over more nodes never shortens the gather."""
        total = sum(t.total_bytes for t in tables)
        link = InterconnectLink()
        previous = 0.0
        for num_nodes in (1, 2, 3, 4, 5):
            plan = shard_row_wise(tables, [total + 1] * num_nodes)
            worst = float(gather_seconds_per_node(plan, link).max())
            assert worst >= previous - 1e-15
            previous = worst


class TestReferenceEquivalence:
    """Per-node aggregates and grid-wide composition equal the kept loops exactly."""

    @settings(max_examples=120, deadline=None)
    @given(plan=placements())
    def test_plan_aggregates_match_per_shard_loops(self, plan):
        assert np.array_equal(plan.node_bytes(), reference_node_bytes(plan))
        assert np.array_equal(plan.node_lookup_fraction(), reference_node_lookup_fraction(plan))
        for home in range(plan.num_nodes):
            assert np.array_equal(
                plan.remote_bytes_per_query(home), reference_remote_bytes_per_query(plan, home)
            )
            assert plan.remote_rows(home) == reference_remote_rows(plan, home)
            assert plan.remote_bytes(home) == reference_remote_bytes(plan, home)

    @settings(max_examples=120, deadline=None)
    @given(plan=placements(), cache=caches)
    def test_gather_pricing_matches_per_shard_loops(self, plan, cache):
        link = InterconnectLink()
        if cache is not None:
            for home in range(plan.num_nodes):
                rate = remote_cache_hit_rate(plan, home, cache)
                assert rate == reference_remote_cache_hit_rate(plan, home, cache)
                assert 0.0 <= rate <= 1.0
        assert np.array_equal(
            gather_seconds_per_node(plan, link, cache),
            reference_gather_seconds_per_node(plan, link, cache),
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), plan=placements(), tables=platform_tables(), cache=caches)
    def test_fleet_p99_grid_matches_scalar_compose(self, data, plan, tables, cache):
        platforms = sorted(tables)
        nodes = tuple(
            NodeSpec(f"n{i}", data.draw(st.sampled_from(platforms)), budget)
            for i, budget in enumerate(plan.node_budgets)
        )
        qps_grid = sorted(
            data.draw(st.sets(st.floats(1.0, 50_000.0, allow_nan=False), min_size=2, max_size=8))
        )
        link = InterconnectLink()
        cluster = build_cluster_table(nodes, tables, qps_grid, plan, link, cache)
        gather = reference_gather_seconds_per_node(plan, link, cache)
        assert np.array_equal(cluster.node_gather, gather)
        node_tables = [tables[node.platform] for node in nodes]
        assert np.array_equal(cluster.p99_grid, reference_p99_grid(node_tables, qps_grid, gather))

    @settings(max_examples=60, deadline=None)
    @given(sample=samples(), count=st.integers(min_value=1, max_value=6002))
    # A one-value sample sits at numpy's top index (-1) for every q, so
    # gamma = 0 - (-1) = 1 takes the upper lerp, which keeps -0.0's sign.
    @example(sample=np.array([-0.0]), count=1)
    def test_sorted_quantiles_match_numpy_quantile_bit_for_bit(self, sample, count):
        q = (np.arange(count) + 0.5) / count
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, huge b - a
            pooled, reference = sorted_quantiles(np.sort(sample), q), np.quantile(sample, q)
        assert np.array_equal(pooled.view(np.uint64), reference.view(np.uint64))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), tables=platform_tables())
    def test_dwell_cells_match_quantile_pooling(self, data, tables):
        """Replicas of one platform with unequal gathers pool as ``np.quantile`` did."""
        platforms = sorted(tables)
        repeats = data.draw(st.lists(st.sampled_from(platforms), min_size=1, max_size=3))
        mix = data.draw(st.permutations([*platforms, *repeats]))
        nodes = fleet_nodes(mix, 10**6)
        plan = shard_row_wise([EmbeddingTableSpec("t0", 100, 4, 1.0)], [10**6] * len(nodes))
        cluster = build_cluster_table(nodes, tables, (100.0, 1000.0), plan, InterconnectLink())
        gathers = data.draw(
            st.lists(st.floats(0.0, 0.01), min_size=len(nodes), max_size=len(nodes), unique=True)
        )
        cluster = dataclasses.replace(cluster, node_gather=np.array(gathers))
        loads = data.draw(st.lists(st.floats(1.0, 50_000.0), min_size=1, max_size=3))
        for k in range(len(cluster.paths)):
            cluster.prefill_dwell(k, loads)
            for q in loads:
                pooled = cluster.dwell_latencies(k, q)
                reference = reference_pooled_dwell(cluster, k, q)
                assert (pooled is None) == (reference is None)
                if pooled is not None:
                    assert np.array_equal(pooled.view(np.uint64), reference.view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), plan=placements(min_nodes=4), tables=platform_tables(min_platforms=3))
    def test_fleet_p99_grid_takes_the_slowest_replica(self, data, plan, tables):
        """Three platforms, one with two or more replicas: the max is over unequal gathers."""
        platforms = sorted(tables)
        extra = data.draw(
            st.lists(
                st.sampled_from(platforms),
                min_size=plan.num_nodes - 3,
                max_size=plan.num_nodes - 3,
            )
        )
        mix = data.draw(st.permutations([*platforms, *extra]))
        nodes = tuple(
            NodeSpec(f"n{i}", platform, budget)
            for i, (platform, budget) in enumerate(zip(mix, plan.node_budgets))
        )
        qps_grid = sorted(
            data.draw(st.sets(st.floats(1.0, 50_000.0, allow_nan=False), min_size=2, max_size=8))
        )
        link = InterconnectLink()
        cluster = build_cluster_table(nodes, tables, qps_grid, plan, link)
        node_tables = [tables[node.platform] for node in nodes]
        assert np.array_equal(
            cluster.p99_grid, reference_p99_grid(node_tables, qps_grid, cluster.node_gather)
        )

    def test_remote_queries_reject_unknown_home(self):
        plan = shard_row_wise([EmbeddingTableSpec("t0", 10, 4, 1.0)], [10_000] * 2)
        for query in (plan.remote_bytes_per_query, plan.remote_rows, plan.remote_bytes):
            with pytest.raises(ValueError, match="home"):
                query(2)


class TestShardingPlanValidation:
    def _table(self, rows=10):
        return EmbeddingTableSpec("t0", rows, 4, 1.0)

    def test_gap_in_coverage_rejected(self):
        with pytest.raises(ShardingError, match="unassigned"):
            ShardingPlan(
                tables=(self._table(),),
                num_nodes=1,
                node_budgets=(10_000,),
                strategy="rowwise",
                assignments=(ShardAssignment(0, 0, 0, 5),),
            )

    def test_overlap_rejected(self):
        with pytest.raises(ShardingError):
            ShardingPlan(
                tables=(self._table(),),
                num_nodes=1,
                node_budgets=(10_000,),
                strategy="rowwise",
                assignments=(ShardAssignment(0, 0, 0, 7), ShardAssignment(0, 0, 5, 10)),
            )

    def test_over_budget_rejected(self):
        with pytest.raises(ShardingError, match="over budget"):
            ShardingPlan(
                tables=(self._table(),),
                num_nodes=1,
                node_budgets=(8,),
                strategy="rowwise",
                assignments=(ShardAssignment(0, 0, 0, 10),),
            )

    def test_table_too_big_for_any_node_raises(self):
        big = EmbeddingTableSpec("big", 1000, 16, 5.0)
        with pytest.raises(ShardingError, match="fits no node"):
            shard_table_wise([big], [big.total_bytes // 2] * 4)

    def test_tables_from_cost_matches_reference_storage(self):
        cost = RM_LARGE.reference_cost(26)
        tables = tables_from_cost(cost, 26, items_per_query=128)
        assert len(tables) == 26
        total = sum(t.total_bytes for t in tables)
        assert total == pytest.approx(cost.reference_storage_bytes, rel=0.01)
        assert all(t.lookups_per_query > 0 for t in tables)


class TestTopology:
    def test_transfer_seconds_arithmetic(self):
        link = InterconnectLink(
            bandwidth_bytes_per_s=1e9, latency_s=10e-6, hops=2, message_overhead_s=0.0
        )
        assert link.transfer_seconds(0) == 0.0
        assert link.transfer_seconds(1000) == pytest.approx(2 * 10e-6 + 1000 / 1e9)

    def test_gather_seconds_arithmetic(self):
        link = InterconnectLink(
            bandwidth_bytes_per_s=1e9, latency_s=10e-6, hops=1, message_overhead_s=2e-6
        )
        # Two positive peers: one hop latency + two message overheads +
        # the summed payload serialized at bandwidth.
        expected = 10e-6 + 2 * 2e-6 + 2000 / 1e9
        assert gather_seconds(link, [1000.0, 0.0, 1000.0]) == pytest.approx(expected)
        assert gather_seconds(link, [0.0, 0.0]) == 0.0

    def test_single_node_plan_gathers_for_free(self):
        tables = [EmbeddingTableSpec("t0", 100, 4, 2.0)]
        plan = shard_row_wise(tables, [10_000])
        gather = gather_seconds_per_node(plan, InterconnectLink())
        assert gather.shape == (1,)
        assert gather[0] == 0.0

    def test_invalid_link_rejected(self):
        with pytest.raises(ValueError):
            InterconnectLink(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            InterconnectLink(hops=0)


class TestFleetCost:
    def test_cpu_node_cost_is_fixed_die_plus_host(self):
        # 450 mm^2 * $20 + 250 W * $60 + $3000 host.
        assert node_cost_usd("cpu") == pytest.approx(27_000.0)

    def test_accelerator_cheaper_than_cpu(self):
        assert node_cost_usd("rpaccel") < node_cost_usd("cpu")
        assert node_cost_usd("baseline-accel") > HOST_BASE_COST_USD

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="no cost model"):
            node_cost_usd("tpu")

    def test_mix_label_sorted_counts(self):
        nodes = [
            NodeSpec("n0", "rpaccel", 1),
            NodeSpec("n1", "cpu", 1),
            NodeSpec("n2", "rpaccel", 1),
        ]
        assert mix_label(nodes) == "1xcpu+2xrpaccel"


class TestMixtureCounts:
    """Pin `_mixture_counts`: the largest-remainder split behind sample pooling.

    The contract the quantile pooling in ``ClusterTable.prefill_dwell``
    relies on: counts sum to exactly the requested pool size, remainder
    ties break toward the lower index, and every positive-weight node keeps
    at least one sample.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        raw_weights=st.lists(
            st.floats(0.01, 1.0, allow_nan=False, allow_subnormal=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_counts_sum_exactly_and_cover_every_node(self, data, raw_weights):
        weights = np.asarray(raw_weights) / np.sum(raw_weights)
        size = data.draw(st.integers(min_value=weights.size, max_value=500))
        counts = _mixture_counts(weights, size)
        assert int(counts.sum()) == size
        assert np.all(counts >= 1)  # every positive weight keeps a sample

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        raw_weights=st.lists(
            st.floats(0.01, 1.0, allow_nan=False, allow_subnormal=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_allocation_is_deterministic(self, data, raw_weights):
        weights = np.asarray(raw_weights) / np.sum(raw_weights)
        size = data.draw(st.integers(min_value=weights.size, max_value=500))
        np.testing.assert_array_equal(
            _mixture_counts(weights, size), _mixture_counts(weights, size)
        )

    def test_remainder_ties_break_toward_the_lower_index(self):
        # raw = [2.5, 2.5]: one leftover sample, equal remainders — the
        # stable sort hands it to index 0, every run.
        np.testing.assert_array_equal(
            _mixture_counts(np.array([0.5, 0.5]), 5), [3, 2]
        )
        # raw = [1.5] * 4, two leftovers: indices 0 and 1 get them.
        np.testing.assert_array_equal(
            _mixture_counts(np.array([0.25] * 4), 6), [2, 2, 1, 1]
        )

    def test_exact_weights_allocate_without_remainders(self):
        np.testing.assert_array_equal(
            _mixture_counts(np.array([0.25, 0.5, 0.25]), 8), [2, 4, 2]
        )

    def test_starved_component_borrows_from_the_largest(self):
        # raw = [3.996, 0.004]: the remainder pass yields [4, 0]; the tiny
        # weight's floor sample comes out of the dominant component so the
        # total stays exactly at the pool size (this used to overshoot).
        counts = _mixture_counts(np.array([0.999, 0.001]), 4)
        np.testing.assert_array_equal(counts, [3, 1])
        assert int(counts.sum()) == 4

    def test_zero_weight_component_gets_nothing(self):
        np.testing.assert_array_equal(
            _mixture_counts(np.array([0.5, 0.5, 0.0]), 4), [2, 2, 0]
        )


class TestClusterTable:
    @pytest.fixture()
    def fleet(self):
        """Two cpu replicas of the synthetic table behind a sharded tier."""
        single = make_table()
        tables = [EmbeddingTableSpec(f"t{i}", 1000, 8, 4.0) for i in range(4)]
        budget = sum(t.total_bytes for t in tables)
        nodes = (
            NodeSpec("n0", "cpu", budget),
            NodeSpec("n1", "cpu", budget),
        )
        plan = shard_row_wise(tables, [budget] * 2)
        link = InterconnectLink()
        cluster = build_cluster_table(
            nodes, {"cpu": single}, (200.0, 2000.0, 4000.0, 6000.0), plan, link
        )
        return single, cluster, plan, link

    def test_capacity_is_summed_across_replicas(self, fleet):
        single, cluster, _, _ = fleet
        for k, path in enumerate(cluster.paths):
            assert path.capacity_qps == pytest.approx(2 * single.paths[k].capacity_qps)
        assert cluster.num_nodes == 2
        assert cluster.total_cost_usd() == pytest.approx(2 * node_cost_usd("cpu"))

    def test_p99_cell_is_split_load_plus_gather(self, fleet):
        single, cluster, plan, link = fleet
        gather = gather_seconds_per_node(plan, link)
        for k in range(len(cluster.paths)):
            for column, q in enumerate(cluster.qps_grid):
                expected = max(float(single.p99_profile(k, q / 2)) + gather[i] for i in range(2))
                assert cluster.p99_grid[k, column] == pytest.approx(expected)

    def test_sharded_p99_never_beats_the_single_node(self, fleet):
        single, cluster, _, _ = fleet
        # At equal per-node load the cluster pays the single node's p99 plus
        # a non-negative gather, so it can never undercut it.
        for k in range(len(cluster.paths)):
            for q in cluster.qps_grid:
                assert cluster.p99_profile(k, q) >= single.p99_profile(k, q / 2) - 1e-15

    def test_router_policies_consume_the_cluster_unchanged(self, fleet):
        _, cluster, _, _ = fleet
        trace = flat_trace(4000.0, num_steps=6)
        static = route_static(cluster, trace, planning_qps=4000.0)
        oracle = route_oracle(cluster, trace)
        assert oracle.violation_rate <= static.violation_rate + 1e-12
        assert 0.0 <= static.violation_rate <= 1.0

    def test_mismatched_plan_size_rejected(self, fleet):
        single, _, plan, link = fleet
        nodes = (NodeSpec("n0", "cpu", 10**9),)
        with pytest.raises(ValueError, match="sharding plan"):
            build_cluster_table(nodes, {"cpu": single}, (200.0,), plan, link)

    def test_missing_platform_table_rejected(self, fleet):
        single, _, _, link = fleet
        tables = [EmbeddingTableSpec("t0", 100, 4, 1.0)]
        plan = shard_row_wise(tables, [10**9])
        nodes = (NodeSpec("n0", "rpaccel", 10**9),)
        with pytest.raises(ValueError, match="no compiled table"):
            build_cluster_table(nodes, {"cpu": single}, (200.0,), plan, link)

    def test_service_overrides_are_rejected_not_ignored(self, fleet):
        """Per-step cache states cannot compose through the node mixture."""
        _, cluster, _, _ = fleet
        trace = flat_trace(400.0, num_steps=4)
        steps = [CachedServiceConfig()] * trace.num_steps
        with pytest.raises(NotImplementedError, match="service overrides"):
            cluster.evaluate_route(
                trace,
                [0] * trace.num_steps,
                [False] * trace.num_steps,
                policy="static",
                service_steps=steps,
            )

    def test_override_matching_the_table_default_is_allowed(self, fleet):
        _, cluster, _, _ = fleet
        trace = flat_trace(400.0, num_steps=4)
        default_steps = [cluster.simulation.service] * trace.num_steps
        plain = cluster.evaluate_route(
            trace, [0] * trace.num_steps, [False] * trace.num_steps, policy="static"
        )
        explicit = cluster.evaluate_route(
            trace,
            [0] * trace.num_steps,
            [False] * trace.num_steps,
            policy="static",
            service_steps=default_steps,
        )
        assert explicit.p99_seconds == pytest.approx(plain.p99_seconds)
        assert explicit.violation_rate == plain.violation_rate

    def test_weights_validation(self, fleet):
        single, cluster, _, _ = fleet
        with pytest.raises(ValueError, match="sum to 1"):
            ClusterTable(
                paths=cluster.paths,
                qps_grid=cluster.qps_grid,
                p99_grid=cluster.p99_grid,
                sla_seconds=cluster.sla_seconds,
                simulation=cluster.simulation,
                nodes=cluster.nodes,
                node_tables=cluster.node_tables,
                node_weights=np.full((len(cluster.paths), 2), 0.6),
                node_gather=cluster.node_gather,
            )

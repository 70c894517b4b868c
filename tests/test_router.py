"""Tests for online multi-path serving (``repro.serving.router``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    EmbeddingTableSpec,
    InterconnectLink,
    NodeSpec,
    build_cluster_table,
    shard_row_wise,
)
from repro.core.sweep import SweepConfig, run_sweep
from repro.models.zoo import RM_LARGE, RM_SMALL, criteo_model_specs
from repro.serving.estimators import HoltTrend, WindowedMean
from repro.serving.metrics import percentile_is_infinite
from repro.serving.router import (
    MultiPathRouter,
    PathTable,
    route_oracle,
    route_static,
)
from repro.serving.service_times import CachedServiceConfig
from repro.serving.simulator import SimulationConfig
from repro.serving.trace import LoadTrace, spike_trace

# The synthetic two-path table lives in tests/conftest.py; re-exported here
# so `from tests.test_router import make_table` keeps working.
from tests.conftest import (  # noqa: F401  (re-export)
    FAST_ROW,
    GRID,
    HQ_ROW,
    flat_trace,
    make_path,
    make_table,
)
from tests.router_reference import (
    reference_best_path,
    reference_decide,
    reference_evaluate_route,
    reference_p99_at,
)
from tests.score_reference import reference_score


#: p99 cells (seconds) random tables draw from: few values, so paths tie.
TABLE_CELLS = (0.002, 0.010, 0.020, 0.030, 0.045, float("inf"))


@st.composite
def random_tables(draw, max_paths=4) -> PathTable:
    """A table over ``GRID`` with tied qualities, capacities and p99 cells.

    Rows mix SLA-meeting, violating-but-finite and ``inf`` cells (an ``inf``
    tail or a lone saturated cell mid-row), and unsorted cells make the
    frontier monotonize dips.
    """
    num_paths = draw(st.integers(1, max_paths), label="num_paths")
    paths = [
        make_path(
            "cpu",
            RM_LARGE,
            service_ms=draw(st.sampled_from([2.0, 10.0]), label=f"service{i}"),
            servers=draw(st.sampled_from([8, 32]), label=f"servers{i}"),
            quality=draw(st.sampled_from([95.0, 97.0, 98.0]), label=f"quality{i}"),
        )
        for i in range(num_paths)
    ]
    rows = np.array(
        [
            draw(st.lists(st.sampled_from(TABLE_CELLS), min_size=5, max_size=5), label=f"row{i}")
            for i in range(num_paths)
        ]
    )
    quality_target = draw(st.sampled_from([None, None, 96.0]), label="quality_target")
    if quality_target is not None and all(p.quality < quality_target for p in paths):
        quality_target = None
    return PathTable(
        paths=paths,
        qps_grid=GRID,
        p99_grid=rows,
        sla_seconds=draw(st.sampled_from([0.005, 0.015, 0.025, 0.040]), label="sla"),
        quality_target=quality_target,
    )


#: Loads random tables are read at: grid knots (exact cells, so ties) or anywhere.
TABLE_LOADS = st.one_of(st.sampled_from(GRID), st.floats(min_value=1.0, max_value=8_000.0))


class TestPathTableValidation:
    def test_needs_paths_and_increasing_grid(self):
        hq = make_path("cpu", RM_LARGE, 10.0, 32, 98.0)
        with pytest.raises(ValueError, match="at least one path"):
            PathTable(paths=[], qps_grid=GRID, p99_grid=np.zeros((0, 5)), sla_seconds=0.025)
        with pytest.raises(ValueError, match="strictly increasing"):
            PathTable(
                paths=[hq],
                qps_grid=(100.0, 100.0),
                p99_grid=np.zeros((1, 2)),
                sla_seconds=0.025,
            )

    def test_p99_grid_shape_checked(self):
        hq = make_path("cpu", RM_LARGE, 10.0, 32, 98.0)
        with pytest.raises(ValueError, match="p99_grid"):
            PathTable(paths=[hq], qps_grid=GRID, p99_grid=np.zeros((2, 5)), sla_seconds=0.025)

    def test_unreachable_quality_target_rejected(self):
        with pytest.raises(ValueError, match="quality_target"):
            make_table(quality_target=99.5)


class TestInterpolation:
    def test_off_grid_interpolates_linearly(self):
        table = make_table()
        expected = float(np.interp(1500.0, GRID, np.asarray(HQ_ROW)))
        assert float(table.p99_profile(0, 1500.0)) == pytest.approx(expected)
        assert HQ_ROW[1] < float(table.p99_profile(0, 1500.0)) < HQ_ROW[2]

    def test_below_grid_clamps_to_first_point(self):
        table = make_table()
        assert float(table.p99_profile(0, 10.0)) == pytest.approx(HQ_ROW[0])

    def test_beyond_grid_is_conservatively_infinite(self):
        table = make_table()
        assert float(table.p99_profile(1, 10000.0)) == float("inf")

    def test_segment_into_saturated_point_is_infinite(self):
        table = make_table()
        assert float(table.p99_profile(0, 4000.0)) == float("inf")

    def test_non_positive_qps_rejected(self):
        with pytest.raises(ValueError):
            make_table().p99_profile(0, 0.0)


class TestFeasibleFrontier:
    """`p99_profile` is finite-or-inf (never NaN) and non-decreasing in load."""

    INF = float("inf")
    # Saturates mid-grid with *two* adjacent inf cells: loads between
    # grid[3]=3000 and grid[4]=5000 used to interpolate inf - inf = NaN.
    DOUBLE_SAT_ROW = (0.010, 0.011, 0.012, INF, INF)

    def saturated_table(self, rows, qualities=None) -> PathTable:
        qualities = qualities or [98.0 - i for i in range(len(rows))]
        paths = [
            make_path("cpu", RM_LARGE, service_ms=10.0, servers=8 * (i + 1), quality=q)
            for i, q in enumerate(qualities)
        ]
        return PathTable(
            paths=paths,
            qps_grid=GRID,
            p99_grid=np.array(rows),
            sla_seconds=0.025,
        )

    def test_nan_regression_between_two_saturated_points(self):
        table = self.saturated_table([self.DOUBLE_SAT_ROW])
        # 4000 falls strictly between the two saturated grid points.
        value = float(table.p99_profile(0, 4000.0))
        assert value == self.INF
        assert not np.isnan(value)

    def test_fully_saturated_shedding_is_order_independent(self):
        # With NaN p99s, the shedding rule's min() depended on path
        # order.  Now every lookup is inf and the capacity tie-break wins,
        # whichever way the paths are listed.
        rows = [self.DOUBLE_SAT_ROW, self.DOUBLE_SAT_ROW]
        forward = self.saturated_table(rows, qualities=[98.0, 97.0])
        backward = self.saturated_table(list(reversed(rows)), qualities=[97.0, 98.0])
        load = 4000.0  # inside the saturated region for both paths
        chosen_fwd = forward.paths[forward.best_path_batch([load])[0]]
        chosen_bwd = backward.paths[backward.best_path_batch([load])[0]]
        # The higher-capacity path drains fastest and must win both times.
        assert chosen_fwd.capacity_qps == chosen_bwd.capacity_qps
        assert chosen_fwd.capacity_qps == max(p.capacity_qps for p in forward.paths)

    def test_path_saturated_from_the_first_cell(self):
        table = self.saturated_table([(self.INF,) * len(GRID)])
        assert float(table.p99_profile(0, 50.0)) == self.INF
        assert float(table.p99_profile(0, 10_000.0)) == self.INF
        assert table.max_feasible_qps(0) == 0.0

    def test_finite_cells_after_saturation_are_distrusted(self):
        # A physical p99 curve never recovers from saturation as load
        # rises; a finite cell after an inf one is treated as saturated.
        table = self.saturated_table([(0.010, self.INF, 0.012, 0.013, 0.014)])
        assert float(table.p99_profile(0, float(GRID[0]))) == pytest.approx(0.010)
        for qps in (float(GRID[2]), float(GRID[3]), float(GRID[4])):
            assert float(table.p99_profile(0, qps)) == self.INF
        assert table.max_feasible_qps(0) == GRID[0]

    def test_noisy_dips_are_monotonized(self):
        # Simulation noise can make a measured p99 dip as load rises; the
        # frontier forces the routing view non-decreasing.
        table = self.saturated_table([(0.010, 0.009, 0.012, 0.011, self.INF)])
        assert float(table.p99_profile(0, float(GRID[1]))) == pytest.approx(0.010)
        assert float(table.p99_profile(0, float(GRID[3]))) == pytest.approx(0.012)

    def test_nan_grid_cells_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            self.saturated_table([(0.010, float("nan"), 0.012, 0.013, 0.014)])

    def test_max_feasible_qps(self):
        table = make_table()
        assert table.max_feasible_qps(0) == 3000.0  # HQ_ROW saturates at 5000
        assert table.max_feasible_qps(1) == GRID[-1]  # FAST_ROW never does

    @pytest.mark.parametrize(
        "row",
        [
            HQ_ROW,
            FAST_ROW,
            DOUBLE_SAT_ROW,
            (INF, INF, INF, INF, INF),
            (0.010, INF, 0.012, INF, 0.014),
            (0.010, 0.009, 0.012, 0.011, INF),
        ],
    )
    def test_property_finite_or_inf_and_non_decreasing(self, row):
        table = self.saturated_table([row])
        loads = np.linspace(1.0, 2.0 * GRID[-1], 400)
        values = np.array([float(table.p99_profile(0, float(q))) for q in loads])
        assert not np.isnan(values).any()
        # Pairwise comparison (not np.diff): inf >= inf is True while
        # inf - inf is the very NaN this suite guards against.
        assert np.all(values[1:] >= values[:-1])

    def test_property_holds_for_compiled_tables(self, compiled_table):
        grid = np.asarray(compiled_table.qps_grid)
        loads = np.concatenate(
            [
                np.linspace(grid[0] * 0.1, grid[-1], 200),  # below + interior
                np.linspace(grid[-1], grid[-1] * 3.0, 50),  # beyond the grid
            ]
        )
        for index in range(len(compiled_table.paths)):
            values = np.array([float(compiled_table.p99_profile(index, float(q))) for q in loads])
            assert not np.isnan(values).any()
            assert np.all(values[1:] >= values[:-1])
            assert np.all((values > 0) | np.isinf(values))


class TestGridKnotRegression:
    """`p99_profile` exactly at grid knots and at `max_feasible_qps` boundaries.

    Interpolation must not perturb the compiled measurements: a lookup at
    a grid knot returns the grid cell bit-for-bit, and the feasibility
    boundary is closed on the left — finite at `max_feasible_qps`, inf for
    any load strictly beyond it.
    """

    def test_finite_knots_reproduce_grid_cells_exactly(self):
        table = make_table()
        for qps, expected in zip(GRID, FAST_ROW):
            assert float(table.p99_profile(1, float(qps))) == expected
        for qps, expected in zip(GRID[:-1], HQ_ROW[:-1]):  # finite prefix
            assert float(table.p99_profile(0, float(qps))) == expected

    def test_saturated_knot_is_infinite(self):
        table = make_table()
        assert float(table.p99_profile(0, float(GRID[-1]))) == float("inf")

    def test_boundary_is_closed_at_max_feasible_qps(self):
        table = make_table()
        cap = table.max_feasible_qps(0)
        assert cap == GRID[3]
        assert float(table.p99_profile(0, cap)) == HQ_ROW[3]
        assert float(table.p99_profile(0, float(np.nextafter(cap, np.inf)))) == float("inf")

    def test_never_saturating_path_is_feasible_through_the_last_knot(self):
        table = make_table()
        cap = table.max_feasible_qps(1)
        assert cap == GRID[-1]
        assert float(table.p99_profile(1, cap)) == FAST_ROW[-1]
        # Beyond the measured grid the table stays conservative.
        assert float(table.p99_profile(1, float(np.nextafter(cap, np.inf)))) == float("inf")

    def test_compiled_knots_and_boundaries(self, compiled_table):
        grid = np.asarray(compiled_table.qps_grid)
        for index in range(len(compiled_table.paths)):
            cap = compiled_table.max_feasible_qps(index)
            if cap == 0.0:  # saturated from the first cell
                assert float(compiled_table.p99_profile(index, float(grid[0]))) == float("inf")
                continue
            # Knots on the feasible frontier reproduce the monotonized grid.
            frontier = np.maximum.accumulate(compiled_table.p99_grid[index])
            for qps, expected in zip(grid, frontier):
                if qps > cap:
                    break
                assert float(compiled_table.p99_profile(index, float(qps))) == expected
            assert np.isfinite(float(compiled_table.p99_profile(index, cap)))
            beyond = float(np.nextafter(cap, np.inf))
            assert float(compiled_table.p99_profile(index, beyond)) == float("inf")


class TestBestPath:
    def test_prefers_quality_when_sla_met(self):
        table = make_table()
        assert table.best_path_batch([1000.0])[0] == 0  # hq meets the SLA and wins on quality

    def test_switches_to_fast_path_when_hq_saturates(self):
        table = make_table()
        assert table.best_path_batch([4000.0])[0] == 1

    def test_quality_tie_breaks_toward_lower_p99(self):
        hq = make_path("cpu", RM_LARGE, 10.0, 32, 98.0)
        twin = make_path("accel", RM_LARGE, 2.0, 32, 98.0)
        table = PathTable(
            paths=[hq, twin],
            qps_grid=GRID,
            p99_grid=np.array([HQ_ROW, FAST_ROW]),
            sla_seconds=0.025,
        )
        assert table.best_path_batch([1000.0])[0] == 1

    def test_quality_target_restricts_eligibility(self):
        table = make_table(quality_target=96.0)
        # Only the hq path is eligible; even where it misses the SLA the
        # table degrades within the eligible set instead of dropping quality.
        assert table.best_path_batch([1000.0])[0] == 0
        assert table.best_path_batch([4000.0])[0] == 0

    def test_sheds_latency_when_nothing_meets_sla(self):
        table = make_table(sla_ms=1.0)  # nobody meets 1 ms
        assert table.best_path_batch([1000.0])[0] == 1  # lowest interpolated p99 wins

    @given(
        loads=st.lists(
            st.one_of(st.sampled_from(GRID), st.floats(min_value=1.0, max_value=8_000.0)),
            min_size=1,
            max_size=30,
        ),
        sla_ms=st.sampled_from([1.0, 10.5, 25.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_oracle_routes_every_step_to_the_scalar_best_path(self, loads, sla_ms):
        table = make_table(sla_ms=sla_ms)
        trace = LoadTrace("oracle", 1.0, np.asarray(loads))
        steps = route_oracle(table, trace).path_steps
        assert steps == tuple(reference_best_path(table, q) for q in trace.qps)


    @given(
        table=random_tables(),
        loads=st.lists(TABLE_LOADS, min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_tables_route_like_the_scalar_rule(self, table, loads):
        # Ties in quality, p99 and capacity must all go the scalar rule's
        # way: the earliest path keeps a tie.
        batched = table.best_path_batch(np.asarray(loads)).tolist()
        assert batched == [reference_best_path(table, q) for q in loads]
        for index in range(len(table.paths)):
            profile = table.p99_profile(index, np.asarray(loads)).tolist()
            assert profile == [reference_p99_at(table, index, q) for q in loads]


class TestEvaluateRoute:
    def test_static_on_feasible_path_has_zero_violations(self):
        table = make_table()
        trace = flat_trace(1000.0)
        result = route_static(table, trace)
        assert result.policy == "static"
        assert result.violation_rate == 0.0
        assert result.quality == pytest.approx(98.0)
        assert result.num_switches == 0
        assert result.p99_seconds < table.sla_seconds
        assert result.occupancy == {table.paths[0].name: pytest.approx(1.0)}

    def test_saturated_steps_violate_entirely(self):
        table = make_table()
        trace = flat_trace(4000.0)
        steps = [0] * trace.num_steps  # pin the saturated hq path
        result = table.evaluate_route(trace, steps, [False] * trace.num_steps, policy="static")
        assert result.violation_rate == pytest.approx(1.0)
        assert result.p99_seconds == float("inf")

    def test_length_mismatch_rejected(self):
        table = make_table()
        trace = flat_trace(1000.0, num_steps=5)
        with pytest.raises(ValueError, match="every trace step"):
            table.evaluate_route(trace, [0, 0], [False] * 5, policy="x")

    def test_switch_penalty_can_push_queries_over_the_sla(self):
        table = make_table()
        trace = flat_trace(1000.0, num_steps=4)
        steps = [0, 0, 1, 1]
        switches = [False, False, True, False]
        cheap = table.evaluate_route(trace, steps, switches, policy="online")
        costly = table.evaluate_route(
            trace, steps, switches, policy="online", switch_penalty_seconds=0.05
        )
        assert cheap.violation_rate == 0.0
        assert costly.violation_rate == pytest.approx(0.25)  # the switch step violates
        assert costly.num_switches == cheap.num_switches == 1

    def test_occupancy_weights_by_queries(self):
        table = make_table()
        trace = LoadTrace("two", 10.0, np.array([1000.0, 3000.0]))
        result = table.evaluate_route(trace, [0, 1], [False, True], policy="online")
        assert result.occupancy[table.paths[0].name] == pytest.approx(0.25)
        assert result.occupancy[table.paths[1].name] == pytest.approx(0.75)


def two_replica_cluster():
    """Two cpu replicas of the synthetic table behind a row-wise sharded tier."""
    tables = [EmbeddingTableSpec(f"t{i}", 1000, 8, 4.0) for i in range(4)]
    budget = sum(t.total_bytes for t in tables)
    nodes = (NodeSpec("n0", "cpu", budget), NodeSpec("n1", "cpu", budget))
    plan = shard_row_wise(tables, [budget] * 2)
    grid = (200.0, 2000.0, 4000.0, 6000.0)
    return build_cluster_table(nodes, {"cpu": make_table()}, grid, plan, InterconnectLink())


@st.composite
def routed_schedules(draw, services):
    """A trace and a schedule over it: paths, switch flags, a penalty, service overrides."""
    num_steps = draw(st.integers(min_value=1, max_value=12))

    def per_step(elements):
        return draw(st.lists(elements, min_size=num_steps, max_size=num_steps))

    loads = per_step(st.floats(min_value=50.0, max_value=40_000.0))
    trace = LoadTrace("equiv", draw(st.sampled_from([0.5, 10.0])), np.asarray(loads))
    overrides = per_step(st.sampled_from(services))
    return (
        trace,
        per_step(st.integers(min_value=0, max_value=1)),
        per_step(st.booleans()),
        draw(st.sampled_from([0.0, 2e-3, 0.05])),
        draw(st.sampled_from([None, overrides])),
    )


class TestReferenceEquivalence:
    """`evaluate_route` scores a schedule exactly as the step-by-step reference does.

    Loads run from a trickle to past both paths' saturation (the hq path
    saturates near 3.1k QPS per node, the fast one near 15.7k), so
    saturated cells are drawn too.  Each side scores on its own fresh
    table, so neither reads cells the other filled.
    """

    SERVICES = (None, CachedServiceConfig(), CachedServiceConfig(warm_fraction=0.0))

    @given(schedule=routed_schedules(SERVICES))
    @settings(max_examples=60, deadline=None)
    def test_single_node_table(self, schedule):
        trace, paths, switches, penalty, services = schedule
        args = (trace, paths, switches, "online", penalty, services)
        assert make_table().evaluate_route(*args) == reference_evaluate_route(make_table(), *args)

    @given(schedule=routed_schedules((None,)))
    @settings(max_examples=30, deadline=None)
    def test_cluster_table_without_overrides(self, schedule):
        trace, paths, switches, penalty, services = schedule
        args = (trace, paths, switches, "online", penalty, services)
        expected = reference_evaluate_route(two_replica_cluster(), *args)
        assert two_replica_cluster().evaluate_route(*args) == expected


@st.composite
def scored_cells(draw):
    """Frontend-style dwell cells on the synthetic table, late-served waits and a shed count.

    Cells mix live loads of both paths with saturated hq loads; the shed
    count is a fraction of the served queries up to 5%, so pooled p99s on
    both sides of the 1% infinite-mass line are drawn.
    """
    loads = st.sampled_from([(1, 1000.0), (1, 4000.0), (0, 500.0), (0, 2500.0), (0, 4000.0)])
    cells = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        path, load = draw(loads)
        served = draw(st.integers(min_value=0, max_value=5_000))
        prompt = draw(st.integers(min_value=0, max_value=served))
        penalty = draw(st.sampled_from([0.0, 0.05]))
        cells.append((path, load, None, served, prompt, penalty))
    late = sum(served - prompt for *_, served, prompt, _ in cells)
    waits = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(0.0, 30.0, late)
    served = sum(cell[3] for cell in cells)
    shed = round(served * draw(st.floats(min_value=0.0, max_value=0.05)))
    return cells, waits, shed


def score_both(cells, waits, shed):
    """``(score, reference_score)`` of the same cells, each on a fresh synthetic table.

    ``score`` reads the waits through a callable that counts its calls.
    """
    calls = []

    def lazy_waits():
        calls.append(1)
        return waits

    total = sum(cell[3] for cell in cells) + shed
    steps = [cell[0] for cell in cells]
    switches = [False] * len(cells)
    args = ("frontend", "cells", steps, switches, cells, total)
    result = make_table().score(*args, waits=lazy_waits, shed=shed)
    expected = reference_score(make_table(), *args, waits=waits, shed=shed)
    return result, expected, len(calls)


class TestMassFirstP99:
    """``score`` proves p99 ``inf`` from masses alone, else pools exactly as the reference.

    The synthetic table's cells hold 540 post-warm-up samples each.
    """

    @given(drawn=scored_cells())
    @settings(max_examples=80, deadline=None)
    def test_score_matches_the_reference(self, drawn):
        cells, waits, shed = drawn
        if not sum(cell[3] for cell in cells) + shed:
            return
        result, expected, calls = score_both(cells, waits, shed)
        assert result == expected
        if result.p99_seconds < float("inf"):
            assert calls == (1 if waits.size else 0)

    def test_shedding_over_one_percent_skips_the_pool_and_the_waits(self):
        cells = [(1, 1000.0, None, 990, 900, 0.0), (0, 1000.0, None, 1000, 1000, 0.0)]
        waits = np.linspace(1.0, 20.0, 90)
        result, expected, calls = score_both(cells, waits, shed=60)
        assert result == expected
        assert result.p99_seconds == float("inf")
        assert calls == 0

    @pytest.mark.parametrize("ulps", range(-4, 5))
    def test_inf_mass_at_one_percent_declines_and_pools(self, ulps):
        # 99 finite queries per inf query, perturbed by a few ulps of the inf
        # mass: F / (F + I) sits at 0.99 to within a few ulps.
        inf_mass = 1_000.0 * (1.0 + ulps * 2.0**-52)
        finite_mass = 99_000.0
        assert not percentile_is_infinite(finite_mass, inf_mass, 542, 99.0)
        cells = [
            (1, 1000.0, None, finite_mass, finite_mass, 0.0),
            (0, 4000.0, None, inf_mass, inf_mass, 0.0),
        ]
        result, expected, _ = score_both(cells, np.empty(0), shed=0)
        assert result == expected

    def test_integer_shed_at_one_percent_declines_and_pools(self):
        cells = [(1, 1000.0, None, 990, 900, 0.0)]
        waits = np.linspace(0.5, 9.0, 90)
        assert not percentile_is_infinite(990.0, 10.0, 541 + 90, 99.0)
        result, expected, calls = score_both(cells, waits, shed=10)
        assert result == expected
        assert calls == 1

    def test_waits_of_the_wrong_length_are_rejected(self):
        cells = [(1, 1000.0, None, 100, 90, 0.0)]
        with pytest.raises(ValueError, match="10 late-served"):
            make_table().score("f", "t", [1], [False], cells, 100, waits=lambda: np.ones(9))
        with pytest.raises(ValueError, match="10 late-served"):
            make_table().score("f", "t", [1], [False], cells, 100)


class TestEffectiveQuality:
    def test_fully_within_sla_delivers_all_promised_quality(self):
        table = make_table()
        result = route_static(table, flat_trace(1000.0))
        assert result.violation_rate == 0.0
        assert result.effective_quality == pytest.approx(result.quality)

    def test_saturated_route_delivers_zero_quality(self):
        table = make_table()
        trace = flat_trace(4000.0)
        steps = [0] * trace.num_steps  # pin the saturated hq path
        result = table.evaluate_route(trace, steps, [False] * trace.num_steps, policy="static")
        assert result.quality == pytest.approx(98.0)  # promised...
        assert result.effective_quality == 0.0  # ...but not delivered

    def test_violating_queries_are_discounted_not_averaged(self):
        table = make_table()
        trace = flat_trace(1000.0, num_steps=4)
        steps = [0, 0, 1, 1]
        switches = [False, False, True, False]
        result = table.evaluate_route(
            trace, steps, switches, policy="online", switch_penalty_seconds=0.05
        )
        # The switch step (path 1, quality 95) violates entirely; the other
        # three steps deliver their paths' full quality.
        assert result.violation_rate == pytest.approx(0.25)
        assert result.effective_quality == pytest.approx((98.0 + 98.0 + 0.0 + 95.0) / 4.0)
        assert result.effective_quality < result.quality

    def test_effective_quality_ranks_shedding_above_saturation(self):
        # The whole point of the metric: a lower-quality feasible path
        # delivers more than a higher-quality saturated one.
        table = make_table()
        trace = flat_trace(4000.0)
        saturated = table.evaluate_route(
            trace, [0] * trace.num_steps, [False] * trace.num_steps, policy="a"
        )
        shedding = table.evaluate_route(
            trace, [1] * trace.num_steps, [False] * trace.num_steps, policy="b"
        )
        assert saturated.quality > shedding.quality
        assert shedding.effective_quality > saturated.effective_quality


class TestCostAwareSwitching:
    SLA_MS = 25.0

    def marginal_table(self, gain_ms: float = 2.0) -> PathTable:
        """Both paths violate the 25 ms SLA at high load; B by ``gain_ms`` less."""
        a = make_path("cpu", RM_LARGE, service_ms=10.0, servers=32, quality=98.0)
        b = make_path("cpu", RM_SMALL, service_ms=2.0, servers=64, quality=95.0)
        over = self.SLA_MS * 1e-3 + 5e-3  # 30 ms: violating but not saturated
        return PathTable(
            paths=[a, b],
            qps_grid=GRID,
            p99_grid=np.array(
                [
                    (0.010, 0.011, over, over, over),
                    (0.002, 0.002, over - gain_ms * 1e-3, over - gain_ms * 1e-3, 0.028),
                ]
            ),
            sla_seconds=self.SLA_MS / 1e3,
            simulation=SimulationConfig(num_queries=600, warmup_queries=60),
        )

    def shed_trace(self) -> LoadTrace:
        qps = np.concatenate([np.full(4, 500.0), np.full(12, 2500.0)])
        return LoadTrace("shed", 10.0, qps)

    def test_zero_cost_commits_marginal_sheds(self):
        router = MultiPathRouter(
            self.marginal_table(), estimator=WindowedMean(window=1), switch_cost_seconds=0.0
        )
        steps, switches = router.decide(self.shed_trace())
        assert steps[-1] == 1
        assert sum(switches) == 1

    def test_cost_gate_blocks_sheds_that_cannot_repay(self):
        # 2 ms predicted gain per step over a ~2-step expected dwell never
        # repays a 50 ms switch cost: stay put.
        router = MultiPathRouter(
            self.marginal_table(), estimator=WindowedMean(window=1), switch_cost_seconds=0.05
        )
        steps, switches = router.decide(self.shed_trace())
        assert sum(switches) == 0
        assert set(steps) == {0}

    def test_escaping_saturation_is_always_worthwhile(self):
        # A saturated current path (inf p99) is exempt from the gate: even
        # a hefty switch cost never pins the router to a saturated path.
        router = MultiPathRouter(
            make_table(), estimator=WindowedMean(window=1), switch_cost_seconds=0.05
        )
        qps = np.concatenate([np.full(4, 500.0), np.full(12, 4000.0)])
        steps, switches = router.decide(LoadTrace("sat", 10.0, qps))
        assert steps[-1] == 1
        assert sum(switches) == 1

    def test_saturated_to_saturated_capacity_shed_is_not_blocked(self):
        # Both paths saturated: best_path_batch proposes the faster-draining one
        # and the gate must not block it (the p99 "gain" is unmeasurable,
        # not zero-valued).
        slow = make_path("cpu", RM_LARGE, service_ms=10.0, servers=8, quality=98.0)
        fast = make_path("cpu", RM_SMALL, service_ms=2.0, servers=64, quality=95.0)
        inf = float("inf")
        table = PathTable(
            paths=[slow, fast],
            qps_grid=GRID,
            p99_grid=np.array([(0.010, inf, inf, inf, inf), (0.002, 0.002, inf, inf, inf)]),
            sla_seconds=0.025,
            simulation=SimulationConfig(num_queries=600, warmup_queries=60),
        )
        router = MultiPathRouter(
            table, estimator=WindowedMean(window=1), switch_cost_seconds=10.0
        )
        qps = np.concatenate([np.full(3, 100.0), np.full(10, 2500.0)])
        steps, switches = router.decide(LoadTrace("allsat", 10.0, qps))
        assert steps[0] == 0  # the high-quality path at the feasible low load
        assert steps[-1] == 1  # drained by the higher-capacity path, gate or not
        assert sum(switches) == 1

    def test_quality_motivated_switches_are_exempt(self):
        # Coming back down from a shed: the current (fast) path still meets
        # the SLA, so reclaiming quality must not be blocked by the gate.
        router = MultiPathRouter(
            make_table(), estimator=WindowedMean(window=1), switch_cost_seconds=10.0
        )
        qps = np.concatenate([np.full(6, 4000.0), np.full(10, 500.0)])
        steps, switches = router.decide(LoadTrace("updown", 10.0, qps))
        assert steps[0] == 1  # shedding under the initial saturating load
        assert steps[-1] == 0  # quality reclaimed once load subsides
        assert sum(switches) == 1

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            MultiPathRouter(make_table(), switch_cost_seconds=-1.0)


class TestCostGateMatchesReference:
    """The cost gate's every branch equals a scalar reference decision loop.

    Tables hold violating-but-finite cells, so the gain branch (current
    path over the SLA, not saturated) is reached as well as the quality,
    saturation and zero-cost branches.
    """

    @given(
        table=random_tables(),
        # Runs of one load, so proposals persist long enough to switch.
        runs=st.lists(st.tuples(TABLE_LOADS, st.integers(1, 5)), min_size=1, max_size=12),
        hysteresis=st.integers(1, 3),
        switch_cost=st.sampled_from([0.0, 0.002, 0.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_decisions_equal_the_reference_loop(self, table, runs, hysteresis, switch_cost):
        router = MultiPathRouter(
            table, hysteresis_steps=hysteresis, switch_cost_seconds=switch_cost
        )
        estimates = np.repeat([load for load, _ in runs], [count for _, count in runs])
        assert router.decide_from_estimates(estimates) == reference_decide(
            table, estimates, hysteresis, switch_cost
        )


class TestEstimatorIntegration:
    def test_default_estimator_reproduces_windowed_mean_decisions(self):
        table = make_table()
        trace = spike_trace(num_steps=60, step_seconds=10.0, base_qps=1000.0, seed=2)
        implicit = MultiPathRouter(table)
        explicit = MultiPathRouter(table, estimator=WindowedMean())
        assert implicit.decide(trace) == explicit.decide(trace)
        assert type(implicit.estimator).name == type(explicit.estimator).name == "windowed"
        assert implicit.estimator.window == WindowedMean.window
        # Each router owns its default estimator: decision passes never share state.
        assert MultiPathRouter(table).estimator is not implicit.estimator

    def test_predictive_estimator_reacts_faster_on_a_ramp(self):
        table = make_table()
        qps = np.linspace(1000.0, 4500.0, 30)
        trace = LoadTrace("ramp", 10.0, qps)
        reactive = MultiPathRouter(table, estimator=WindowedMean(window=5))
        predictive = MultiPathRouter(table, estimator=HoltTrend())
        reactive_steps, _ = reactive.decide(trace)
        predictive_steps, _ = predictive.decide(trace)
        first_shed_reactive = reactive_steps.index(1)
        first_shed_predictive = predictive_steps.index(1)
        assert first_shed_predictive <= first_shed_reactive


class TestHysteresis:
    def boundary_trace(self, num_steps: int = 61) -> LoadTrace:
        # Oscillate around the hq path's feasibility boundary (~3.1k QPS):
        # every other step proposes a different best path.
        qps = np.where(np.arange(num_steps) % 2 == 0, 2800.0, 3600.0)
        return LoadTrace("noisy", 10.0, qps.astype(np.float64))

    def test_hysteresis_prevents_flapping(self):
        table = make_table()
        trace = self.boundary_trace()
        naive = MultiPathRouter(table, estimator=WindowedMean(window=1), hysteresis_steps=1)
        damped = MultiPathRouter(table, estimator=WindowedMean(window=1), hysteresis_steps=3)
        _, naive_switches = naive.decide(trace)
        _, damped_switches = damped.decide(trace)
        assert sum(naive_switches) >= trace.num_steps // 2 - 1  # flaps every other step
        assert sum(damped_switches) == 0  # the streak never survives the noise

    def test_window_smoothing_alone_damps_oscillation(self):
        table = make_table()
        trace = self.boundary_trace()
        smoothed = MultiPathRouter(table, estimator=WindowedMean(window=6), hysteresis_steps=1)
        _, switches = smoothed.decide(trace)
        # The windowed mean (~3.2k) straddles the boundary far less often.
        assert sum(switches) <= 4

    def test_sustained_shift_still_switches(self):
        table = make_table()
        qps = np.concatenate([np.full(10, 1000.0), np.full(10, 4000.0)])
        trace = LoadTrace("shift", 10.0, qps)
        router = MultiPathRouter(table, estimator=WindowedMean(window=2), hysteresis_steps=2)
        steps, switches = router.decide(trace)
        assert steps[0] == 0 and steps[-1] == 1
        assert sum(switches) == 1

    def test_knob_validation(self):
        table = make_table()
        with pytest.raises(ValueError):
            MultiPathRouter(table, estimator=WindowedMean(window=0))
        with pytest.raises(ValueError):
            MultiPathRouter(table, hysteresis_steps=0)
        with pytest.raises(ValueError):
            MultiPathRouter(table, switch_penalty_seconds=-1.0)


class TestPolicyOrdering:
    def spike(self) -> LoadTrace:
        return spike_trace(
            num_steps=80,
            step_seconds=10.0,
            base_qps=1000.0,
            spike_qps=4200.0,
            spike_start=30,
            spike_steps=15,
            noise=0.02,
            seed=5,
        )

    def test_oracle_beats_online_beats_static_on_violation_rate(self):
        table = make_table()
        trace = self.spike()
        static = route_static(table, trace)
        oracle = route_oracle(table, trace)
        online = MultiPathRouter(
            table,
            estimator=WindowedMean(window=3),
            hysteresis_steps=2,
            switch_penalty_seconds=5e-3,
        ).route(trace)
        assert oracle.violation_rate <= online.violation_rate <= static.violation_rate
        assert online.violation_rate < static.violation_rate  # the headline claim
        assert static.num_switches == 0
        assert online.num_switches >= 1

    def test_online_quality_stays_near_oracle(self):
        table = make_table()
        trace = self.spike()
        oracle = route_oracle(table, trace)
        router = MultiPathRouter(table, estimator=WindowedMean(window=3), hysteresis_steps=2)
        online = router.route(trace)
        assert online.quality >= oracle.quality * (1.0 - 1e-3)

    def test_static_provisions_for_the_median_load(self):
        table = make_table()
        trace = self.spike()  # median sits at the base load
        result = route_static(table, trace)
        assert set(result.path_steps) == {table.best_path_batch([trace.median_qps()])[0]}


class TestCompiledTables:
    def test_compile_matches_sweep_outcome(self, criteo_workload):
        """`compile` over a sweep's pipelines, platforms, loads and seed holds its grid."""
        scheduler, pipelines = criteo_workload
        config = SweepConfig(
            platforms=("cpu", "rpaccel"),
            qps=(250.0, 1000.0, 4000.0),
            first_stage_items=(512,),
            later_stage_items=(128,),
            max_stages=2,
            num_queries=300,
            seed=0,
        )
        outcome = run_sweep(scheduler.evaluator, criteo_model_specs(), config)
        compiled = PathTable.compile(
            scheduler,
            outcome.pipelines,
            config.platforms,
            config.qps,
            sla_ms=config.sla_ms,
            seed=config.seed,
        )
        columns = [
            (platform, index, pipeline)
            for platform in config.platforms
            for index, pipeline in enumerate(outcome.pipelines)
        ]
        assert [p.name for p in compiled.paths] == [
            f"{platform}:{pipeline.name}" for platform, _, pipeline in columns
        ]
        assert [p.quality for p in compiled.paths] == [
            outcome.quality_by_pipeline[pipeline.name] for _, _, pipeline in columns
        ]
        np.testing.assert_array_equal(
            compiled.p99_grid,
            [
                [outcome.evaluated[(platform, qps)][index].p99_latency for qps in config.qps]
                for platform, index, _ in columns
            ],
        )
        assert compiled.sla_seconds == config.sla_seconds

    def test_compiled_table_routes_by_load_regime(self, criteo_workload):
        scheduler, pipelines = criteo_workload
        table = PathTable.compile(
            scheduler,
            pipelines,
            ("cpu",),
            (250.0, 1000.0, 4000.0, 8000.0),
            sla_ms=25.0,
            seed=0,
        )
        low = table.paths[table.best_path_batch([300.0])[0]]
        high = table.paths[table.best_path_batch([7500.0])[0]]
        # Under pressure the router gives up quality for feasibility.
        assert high.quality <= low.quality
        assert high.capacity_qps > low.capacity_qps

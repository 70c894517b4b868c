"""Tests for the per-query streaming frontend (``repro.serving.frontend``).

Six pillars, mirroring the frontend's contract:

* **equivalence** — with batching disabled and the decision window equal
  to the trace's dwell step, the frontend's per-window path choices
  reproduce :meth:`MultiPathRouter.decide` bit-for-bit on every scenario
  trace and estimator (the frontend shares the router's estimator and
  state machine, so this is structural, not statistical);
* **reference equivalence** (hypothesis) — the window-counter schedule,
  its derived per-query views, ``serve()`` and the step-addressable
  stream's counts and arrival reads reproduce the per-query reference
  implementations in ``tests/frontend_reference.py`` exactly;
* **lazy realization** — ``schedule()`` and ``serve()`` draw a step's
  arrivals only where a window edge falls strictly inside the step or a
  served deferral needs its wait, and each step at most once per stream;
  a stream whose shed mass alone makes the p99 ``inf`` needs no wait;
* **admission properties** (hypothesis) — the shed rate is monotone
  non-decreasing in offered load, the admitted rate never exceeds the
  chosen path's feasible frontier, decisions are strictly causal, and
  everything is deterministic under a fixed seed;
* **memory** — drawing a stream and ``serve()`` allocate nothing that grows
  with the number of queries in the stream;
* **throughput** — drawing and serving whole query streams must be at
  least 5x faster per query than the step router is per decision (the
  blocking CI smoke; the full-size number lands in ``BENCH_router.json``).
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import packaged_scenario
from repro.scenarios import runner
from repro.serving.estimators import WindowedMean
from repro.serving.frontend import (
    ARRIVAL_PROCESSES,
    QUERY_ADMITTED,
    QUERY_DEFERRED,
    QUERY_SHED,
    QueryStream,
    StreamingFrontend,
)
from repro.serving.router import MultiPathRouter, route_oracle, route_static
from repro.serving.trace import LoadTrace, diurnal_trace, spike_trace
from tests.conftest import GRID, flat_trace, make_table
from tests.frontend_reference import (
    reference_paced_stream,
    reference_schedule,
    reference_serve,
    reference_stream,
)
from tests.router_reference import reference_best_path, reference_p99_at

FRONTEND_ESTIMATORS = ("windowed", "ewma", "holt", "auto")

#: The packaged ``frontend`` scenario: its router knobs and its table.
FRONTEND_CELL = packaged_scenario("frontend").expand()[0]


def build_router(table, estimator="windowed") -> MultiPathRouter:
    """The ``frontend`` scenario's online policy, served from ``table``."""
    return runner.build_router(table, FRONTEND_CELL.params, estimator)

#: Decisions the frontend must reproduce from the per-query reference exactly.
SCHEDULE_FIELDS = (
    "window_paths",
    "window_switches",
    "window_arrivals",
    "window_admitted",
    "window_from_queue",
    "window_deferred",
    "window_shed",
    "window_shed_reason",
    "query_state",
    "query_path",
    "query_serve_window",
)
SUMMARY_FIELDS = (
    "max_queue_depth",
    "offered_queries",
    "served_queries",
    "deferred_served_queries",
    "shed_queries",
    "num_switches",
)

_default_rng = np.random.default_rng


class TopUniformGenerator:
    """A generator stub: real Poisson counts, every uniform ``1 - 2**-53``.

    The largest double ``Generator.random()`` can return; ``start + step * u``
    rounds it up onto the step's end for many step widths.
    """

    def __init__(self, seed):
        self._rng = _default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def poisson(self, lam):
        return self._rng.poisson(lam)

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out.fill(np.nextafter(1.0, 0.0))
        return out


def paced_frontend(table, defer_windows: float = 1.0, **kwargs) -> StreamingFrontend:
    """A frontend for deterministic paced arrivals: a one-step windowed mean."""
    return StreamingFrontend(
        MultiPathRouter(table, estimator=WindowedMean(window=1)),
        defer_windows=defer_windows,
        **kwargs,
    )


def paced(trace: LoadTrace) -> tuple[LoadTrace, QueryStream]:
    """``trace`` and its paced arrivals (seed-free, exact): ``schedule(*paced(trace))``."""
    return trace, QueryStream.from_trace(trace, seed=0, process="paced")


class TestQueryStream:
    def test_poisson_stream_is_deterministic_under_a_seed(self):
        trace = spike_trace(num_steps=30, step_seconds=10.0, base_qps=500.0, seed=1)
        a = QueryStream.from_trace(trace, seed=7)
        b = QueryStream.from_trace(trace, seed=7)
        c = QueryStream.from_trace(trace, seed=8)
        np.testing.assert_array_equal(a.arrival_seconds, b.arrival_seconds)
        assert a.num_queries != c.num_queries or not np.array_equal(
            a.arrival_seconds, c.arrival_seconds
        )

    def test_poisson_counts_track_the_offered_load(self):
        trace = flat_trace(1000.0, num_steps=200, step_seconds=1.0)
        stream = QueryStream.from_trace(trace, seed=0)
        expected = trace.qps.sum() * 1.0
        assert abs(stream.num_queries - expected) < 5 * np.sqrt(expected)

    def test_paced_stream_is_exact_and_seed_free(self):
        trace = flat_trace(997.3, num_steps=5, step_seconds=10.0)
        stream = QueryStream.from_trace(trace, process="paced")
        other = QueryStream.from_trace(trace, seed=99, process="paced")
        np.testing.assert_array_equal(stream.arrival_seconds, other.arrival_seconds)
        # Error-diffused counts: floor of the cumulative expectation.
        assert stream.num_queries == int(np.floor(trace.qps.sum() * 10.0 + 1e-9))
        counts = np.bincount(
            np.floor_divide(stream.arrival_seconds, 10.0).astype(int), minlength=5
        )
        assert counts.max() - counts.min() <= 1  # evenly diffused

    def test_arrivals_are_sorted_and_inside_the_trace(self):
        trace = spike_trace(num_steps=40, step_seconds=10.0, base_qps=800.0, seed=3)
        for process in ARRIVAL_PROCESSES:
            stream = QueryStream.from_trace(trace, seed=0, process=process)
            arrivals = stream.arrival_seconds
            assert np.all(np.diff(arrivals) >= 0)
            assert arrivals[0] >= 0.0
            assert arrivals[-1] < trace.duration_seconds

    def test_an_arrival_drawn_at_the_top_of_its_step_stays_inside_it(self, monkeypatch):
        # 7140 + 60 * (1 - 2**-53) rounds to exactly 7200.0, the duration.
        monkeypatch.setattr(np.random, "default_rng", TopUniformGenerator)
        trace = LoadTrace("edge", 60.0, np.full(120, 5.0))
        stream = QueryStream.from_trace(trace, seed=3)
        assert stream.arrival_seconds[-1] < trace.duration_seconds
        counts = _default_rng(3).poisson(trace.queries_per_step())
        step_of = np.repeat(np.arange(trace.num_steps), counts)
        assert np.all(stream.arrival_seconds < (step_of + 1) * trace.step_seconds)
        # Every arrival is binned into its own step's window, the last included.
        router = MultiPathRouter(make_table(), estimator=WindowedMean(window=1))
        plan = StreamingFrontend(router).schedule(trace, stream)
        np.testing.assert_array_equal(plan.window_arrivals, np.bincount(step_of, minlength=120))

    def test_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            QueryStream("x", 10.0, np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="one-dimensional"):
            QueryStream("x", 10.0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="duration_seconds"):
            QueryStream("x", 0.0, np.array([]))
        with pytest.raises(ValueError, match="arrival process"):
            QueryStream.from_trace(flat_trace(100.0), process="burst")

    def test_arrival_array_is_frozen(self):
        stream = QueryStream.from_trace(flat_trace(100.0, num_steps=3))
        with pytest.raises(ValueError):
            stream.arrival_seconds[0] = -1.0


class TestStepRouterEquivalence:
    """Window = dwell step + batching off => the step router, bit for bit."""

    @pytest.mark.parametrize("estimator", FRONTEND_ESTIMATORS)
    def test_path_choices_reproduce_decide(self, synthetic_table, scenario_traces, estimator):
        for trace in scenario_traces:
            reference = build_router(synthetic_table, estimator)
            frontend = StreamingFrontend(build_router(synthetic_table, estimator), batching=False)
            estimates, paths, switches = frontend.decide_windows(trace)
            ref_steps, ref_switches = reference.decide(trace)
            assert paths == ref_steps
            assert switches == ref_switches
            np.testing.assert_array_equal(estimates, reference.estimate_over(trace.qps))

    def test_schedule_embeds_the_same_decisions(self, synthetic_table, scenario_traces):
        trace = scenario_traces[0]
        reference = build_router(synthetic_table)
        frontend = StreamingFrontend(build_router(synthetic_table), batching=False)
        plan = frontend.schedule(trace, QueryStream.from_trace(trace, seed=0))
        ref_steps, ref_switches = reference.decide(trace)
        np.testing.assert_array_equal(plan.window_paths, ref_steps)
        np.testing.assert_array_equal(plan.window_switches, ref_switches)
        assert np.all(plan.window_batch == 1)  # batching disabled
        assert plan.window_seconds == trace.step_seconds
        assert plan.num_windows == trace.num_steps

    def test_equivalence_holds_on_compiled_tables(self, compiled_table, scenario_traces):
        for trace in scenario_traces:
            reference = build_router(compiled_table)
            frontend = StreamingFrontend(build_router(compiled_table), batching=False)
            _, paths, switches = frontend.decide_windows(trace)
            ref_steps, ref_switches = reference.decide(trace)
            assert paths == ref_steps
            assert switches == ref_switches

    def test_batched_best_path_matches_scalar(self, synthetic_table):
        loads = np.concatenate([np.asarray(GRID), np.linspace(1.0, 1.5 * GRID[-1], 997)])
        batched = synthetic_table.best_path_batch(loads)
        scalar = np.array([reference_best_path(synthetic_table, float(q)) for q in loads])
        np.testing.assert_array_equal(batched, scalar)

    def test_batched_p99_profile_matches_scalar(self, synthetic_table, compiled_table):
        for table in (synthetic_table, compiled_table):
            grid = np.asarray(table.qps_grid)
            loads = np.concatenate([grid, np.linspace(grid[0] * 0.5, grid[-1] * 1.5, 400)])
            for index in range(len(table.paths)):
                profile = table.p99_profile(index, loads)
                scalar = np.array([reference_p99_at(table, index, float(q)) for q in loads])
                np.testing.assert_array_equal(profile, scalar)


#: Decision-window widths the reference suite covers, per trace step width.
WINDOW_WIDTHS = {
    "step": lambda step: None,
    "step/3": lambda step: step / 3,
    "1.7*step": lambda step: 1.7 * step,
    "0.1s": lambda step: 0.1,
}


class TestReferenceEquivalence:
    """Window counters reproduce the per-query reference implementations exactly.

    The synthetic table's paths stop being feasible at 3k and 5k QPS, so
    loads up to 9k QPS cover under- and over-loaded windows alike.
    """

    TABLE = make_table()

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    @pytest.mark.parametrize("window", sorted(WINDOW_WIDTHS))
    @given(
        defer_windows=st.sampled_from([0.0, 0.5, 1.0]),
        step_seconds=st.sampled_from([0.3, 1.0, 2.5]),
        loads=st.lists(st.floats(min_value=100.0, max_value=9_000.0), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_schedule_and_serve_match_the_reference(
        self, process, window, defer_windows, step_seconds, loads, seed
    ):
        trace = LoadTrace("equiv", step_seconds, np.asarray(loads))
        frontend = StreamingFrontend(
            MultiPathRouter(self.TABLE, estimator=WindowedMean(window=2)),
            window_seconds=WINDOW_WIDTHS[window](step_seconds),
            defer_windows=defer_windows,
        )
        stream = QueryStream.from_trace(trace, seed=seed, process=process)
        plan = frontend.schedule(trace, stream)
        reference = reference_schedule(frontend, trace, stream)
        for name in SCHEDULE_FIELDS:
            np.testing.assert_array_equal(
                getattr(plan, name), getattr(reference, name), err_msg=name
            )
        for name in SUMMARY_FIELDS:
            assert getattr(plan, name) == getattr(reference, name), name
        if stream.num_queries:
            served = frontend.serve(trace, stream)
            assert served.routing == reference_serve(frontend, trace, stream)

    @given(
        loads=st.lists(st.floats(min_value=1.0, max_value=2_000.0), min_size=1, max_size=30),
        step_seconds=st.sampled_from([1e-3, 0.01, 0.1, 1.0, 3.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        process=st.sampled_from(ARRIVAL_PROCESSES),
        times=st.lists(st.floats(min_value=-0.1, max_value=1.3), max_size=20),
        picks=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=20),
    )
    @settings(max_examples=120, deadline=None)
    def test_block_drawn_stream_matches_one_global_draw(
        self, loads, step_seconds, seed, process, times, picks
    ):
        trace = LoadTrace("equiv", step_seconds, np.asarray(loads))
        if process == "poisson":
            reference = reference_stream(trace, seed)
        else:
            reference = reference_paced_stream(trace)
        duration = trace.duration_seconds
        # Exact step edges, points anywhere (interior ones included) as
        # fractions of the duration, and points at or past the duration.
        edges = np.concatenate(
            [
                np.arange(trace.num_steps + 1) * step_seconds,
                np.asarray(times) * duration,
                [duration, np.nextafter(duration, np.inf), 2 * duration, np.inf],
            ]
        )
        # Non-decreasing indices, repeats allowed.
        indices = np.sort(np.asarray(picks if reference.size else []) * reference.size)
        indices = indices.astype(np.int64)
        stream = QueryStream.from_trace(trace, seed=seed, process=process)
        assert stream.num_queries == reference.size
        np.testing.assert_array_equal(stream.count_before(edges), np.searchsorted(reference, edges))
        np.testing.assert_array_equal(stream.arrivals_at(indices), reference[indices])
        np.testing.assert_array_equal(stream.arrival_seconds, reference)

    def test_a_stream_shedding_over_one_percent_matches_the_reference(self):
        trace = LoadTrace("shed", 1.0, np.array([1000.0, 9000.0, 9000.0, 1000.0, 1000.0]))
        frontend = StreamingFrontend(
            MultiPathRouter(self.TABLE, estimator=WindowedMean(window=2)), defer_windows=0.5
        )
        stream = QueryStream.from_trace(trace, seed=3)
        served = frontend.serve(trace, stream)
        assert served.schedule.shed_rate >= 0.01
        assert served.schedule.deferred_served_queries > 0
        assert served.routing.p99_seconds == float("inf")
        assert served.routing == reference_serve(frontend, trace, stream)

    def test_per_query_views_are_read_only(self):
        plan = paced_frontend(self.TABLE).schedule(*paced(flat_trace(8000.0, num_steps=6)))
        for view in (plan.query_state, plan.query_path, plan.query_serve_window):
            with pytest.raises(ValueError):
                view[0] = 0


@pytest.fixture
def drawn_steps(monkeypatch):
    """The step of every arrival block any stream draws, in draw order."""
    drawn = []
    draw = QueryStream._draw

    def spy(stream, k):
        drawn.append(k)
        return draw(stream, k)

    monkeypatch.setattr(QueryStream, "_draw", spy)
    return drawn


class TestLazyRealization:
    """``schedule()`` and ``serve()`` draw only the arrival blocks they read, once each.

    Steps are 3 s.  At 1,000 QPS no window defers; a 4,000 QPS step
    overflows the 98-quality path the estimator still picks (feasible to
    3,000 QPS), so that step's window defers and the next one drains it.
    """

    TABLE = make_table()
    CALM = [1000.0] * 9
    BURSTS = [1000.0, 1000.0, 4000.0, 1000.0, 1000.0, 4000.0, 1000.0, 1000.0, 1000.0]

    def serve(self, loads, window_seconds=None, estimators=("windowed",)):
        """Serve one Poisson stream once per estimator; the last schedule and the stream."""
        trace = LoadTrace("lazy", 3.0, np.asarray(loads))
        stream = QueryStream.from_trace(trace, seed=0)
        for estimator in estimators:
            frontend = StreamingFrontend(
                build_router(self.TABLE, estimator), window_seconds=window_seconds
            )
            plan = frontend.serve(trace, stream).schedule
        return plan, stream

    def test_windows_on_step_edges_without_deferrals_draw_nothing(self, drawn_steps):
        plan, stream = self.serve(self.CALM)
        assert plan.offered_queries == stream.num_queries > 0
        assert not plan.window_deferred.any()
        assert drawn_steps == []

    def test_serve_draws_exactly_the_steps_whose_deferrals_it_serves(self, drawn_steps):
        plan, _ = self.serve(self.BURSTS)
        assert plan.deferred_served_queries > 0
        assert plan.final_backlog == 0
        assert drawn_steps == np.flatnonzero(plan.window_deferred).tolist() == [2, 5]

    def test_a_stream_shedding_over_one_percent_draws_nothing(self, drawn_steps):
        # 9,000 QPS overflows both paths: its windows defer and shed, and the
        # shed mass alone proves the p99 inf, so no deferral's wait is read.
        loads = [1000.0, 1000.0, 9000.0, 9000.0, 1000.0, 1000.0, 1000.0, 1000.0, 1000.0]
        trace = LoadTrace("lazy", 3.0, np.asarray(loads))
        stream = QueryStream.from_trace(trace, seed=0)
        served = StreamingFrontend(build_router(self.TABLE, "windowed")).serve(trace, stream)
        assert served.schedule.deferred_served_queries > 0
        assert served.schedule.shed_queries > 0.01 * stream.num_queries
        assert served.routing.p99_seconds == float("inf")
        assert drawn_steps == []

    @pytest.mark.parametrize(
        ("window_seconds", "interior_steps"),
        [(1.0, list(range(9))), (4.5, [1, 4, 7])],
        ids=["step/3", "1.5*step"],
    )
    def test_schedule_draws_the_steps_holding_interior_window_edges(
        self, drawn_steps, window_seconds, interior_steps
    ):
        plan, _ = self.serve(self.CALM, window_seconds=window_seconds)
        assert not plan.window_deferred.any()
        assert sorted(drawn_steps) == interior_steps

    def test_frontends_sharing_a_stream_draw_each_step_once(self, drawn_steps):
        plan, stream = self.serve(self.BURSTS, window_seconds=1.0, estimators=FRONTEND_ESTIMATORS)
        assert plan.deferred_served_queries > 0
        assert sorted(drawn_steps) == list(range(9))
        # Later readers see the kept blocks: the whole stream draws nothing new.
        assert stream.arrival_seconds.size == stream.num_queries
        assert sorted(drawn_steps) == list(range(9))


class TestAdmissionProperties:
    """Hypothesis properties of admit / defer / shed."""

    TABLE = make_table()

    def shed_rate_at(self, qps: int, defer_windows: float) -> float:
        frontend = paced_frontend(self.TABLE, defer_windows=defer_windows)
        return frontend.schedule(*paced(flat_trace(float(qps), num_steps=8))).shed_rate

    @given(
        rates=st.lists(st.integers(min_value=50, max_value=12_000), min_size=2, max_size=6),
        defer_windows=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_shed_rate_is_monotone_in_offered_load(self, rates, defer_windows):
        rates = sorted(set(rates))
        sheds = [self.shed_rate_at(q, defer_windows) for q in rates]
        for lower, higher in zip(sheds, sheds[1:]):
            assert higher >= lower - 1e-12

    @given(
        qps=st.floats(min_value=200.0, max_value=12_000.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_admitted_rate_never_exceeds_the_frontier(self, qps, seed):
        trace = flat_trace(qps, num_steps=6)
        frontend = StreamingFrontend(MultiPathRouter(self.TABLE, estimator=WindowedMean(window=1)))
        plan = frontend.schedule(trace, QueryStream.from_trace(trace, seed=seed))
        for w in range(plan.num_windows):
            cap = self.TABLE.max_feasible_qps(int(plan.window_paths[w]))
            assert plan.window_admitted[w] / plan.window_seconds <= cap

    @given(
        cut=st.integers(min_value=1, max_value=28),
        factor=st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_decisions_are_strictly_causal(self, cut, factor):
        base = spike_trace(num_steps=30, step_seconds=10.0, base_qps=900.0, seed=4)
        perturbed_qps = base.qps.copy()
        perturbed_qps[cut:] = np.maximum(perturbed_qps[cut:] * factor, 1.0)
        perturbed = LoadTrace(base.name, base.step_seconds, perturbed_qps)
        frontend = paced_frontend(self.TABLE)
        est_a, paths_a, _ = frontend.decide_windows(base)
        est_b, paths_b, _ = frontend.decide_windows(perturbed)
        # The estimate entering window t only sees windows < t, and the
        # state machine is forward-only: everything up to the cut matches.
        np.testing.assert_array_equal(est_a[: cut + 1], est_b[: cut + 1])
        assert paths_a[: cut + 1] == paths_b[: cut + 1]

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_schedule_is_deterministic_under_a_seed(self, seed):
        trace = spike_trace(
            num_steps=25, step_seconds=10.0, base_qps=2500.0, spike_qps=6000.0, seed=2
        )
        router = MultiPathRouter(self.TABLE, estimator=WindowedMean(window=2))
        plans = [
            StreamingFrontend(router).schedule(trace, QueryStream.from_trace(trace, seed=seed))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(plans[0].query_state, plans[1].query_state)
        np.testing.assert_array_equal(plans[0].query_path, plans[1].query_path)
        np.testing.assert_array_equal(plans[0].window_admitted, plans[1].window_admitted)
        assert plans[0].max_queue_depth == plans[1].max_queue_depth


class TestAdmissionAccounting:
    def overload_plan(self, defer_windows: float = 1.0):
        table = make_table()
        frontend = paced_frontend(table, defer_windows=defer_windows)
        return frontend.schedule(*paced(flat_trace(8000.0, num_steps=6)))

    def test_every_arrival_is_admitted_deferred_or_shed(self):
        plan = self.overload_plan()
        fresh_admitted = plan.window_admitted - plan.window_from_queue
        np.testing.assert_array_equal(
            plan.window_arrivals, fresh_admitted + plan.window_deferred + plan.window_shed
        )
        states = np.bincount(plan.query_state, minlength=3)
        assert states.sum() == plan.offered_queries
        assert states[QUERY_ADMITTED] + states[QUERY_DEFERRED] == plan.served_queries
        assert states[QUERY_SHED] == plan.shed_queries

    def test_deferred_queries_are_served_fifo_in_a_later_window(self):
        plan = self.overload_plan()
        deferred = plan.query_state == QUERY_DEFERRED
        assert np.any(deferred)
        served = plan.query_serve_window[deferred]
        assert np.all(served >= 0)
        assert np.all(np.diff(served) >= 0)  # FIFO: served in arrival order

    def test_defer_zero_disables_the_queue(self):
        plan = self.overload_plan(defer_windows=0.0)
        assert plan.deferred_served_queries == 0
        assert plan.max_queue_depth == 0
        assert plan.shed_queries > 0

    def test_backlog_left_at_stream_end_counts_as_shed(self):
        table = make_table()
        qps = np.concatenate([np.full(5, 1000.0), np.full(1, 9000.0)])
        frontend = paced_frontend(table)
        plan = frontend.schedule(*paced(LoadTrace("tail", 10.0, qps)))
        # The last window overflows into the queue with no window left to
        # drain it: those queries must not count as served.
        assert plan.window_deferred[-1] > 0
        assert plan.shed_queries >= plan.window_deferred[-1]
        assert plan.served_queries + plan.shed_queries == plan.offered_queries

    def test_shed_queries_never_carry_a_path_or_window(self):
        plan = self.overload_plan(defer_windows=0.0)
        shed = plan.query_state == QUERY_SHED
        assert np.all(plan.query_path[shed] == -1)
        assert np.all(plan.query_serve_window[shed] == -1)
        served = ~shed
        assert np.all(plan.query_path[served] >= 0)

    def test_stream_past_the_trace_duration_is_rejected(self):
        # 30 s of trace: 3 windows of 10 s, or 5 of 7 s whose last edge is
        # 35 s.  An arrival at or after the last window edge is rejected; a
        # stream with every arrival before it is accepted.
        trace = flat_trace(100.0, num_steps=3)
        for window_seconds, last_edge in ((None, 30.0), (7.0, 35.0)):
            frontend = StreamingFrontend(
                MultiPathRouter(make_table(), estimator=WindowedMean(window=1)),
                window_seconds=window_seconds,
            )
            inside = np.nextafter(last_edge, 0.0)
            plan = frontend.schedule(trace, QueryStream("x", 30.0, np.array([0.0, 12.5, inside])))
            assert plan.offered_queries == 3
            assert plan.window_arrivals[-1] == 1
            for late in (last_edge, np.nextafter(last_edge, np.inf), 95.0):
                stream = QueryStream("x", 100.0, np.array([0.0, 12.5, late]))
                with pytest.raises(ValueError, match="past the trace"):
                    frontend.schedule(trace, stream)


class TestWindowsWiderThanTheTrace:
    """A decision window wider than the trace acts as one window over it."""

    def test_widths_past_the_duration_equal_one_trace_wide_window(self):
        # 8,000 QPS is past both paths' frontiers: admission caps bind, so a
        # cap or a dwell load scaled by the nominal width would show.
        trace = flat_trace(8000.0, num_steps=6)
        stream = QueryStream.from_trace(trace, seed=0)
        duration = trace.duration_seconds
        results = [
            StreamingFrontend(
                MultiPathRouter(make_table(), estimator=WindowedMean(window=1)),
                window_seconds=width,
            ).serve(trace, stream)
            for width in (duration, 2 * duration, 1e16)
        ]
        first = results[0].schedule
        assert first.num_windows == 1
        assert first.window_seconds == duration
        assert first.shed_queries > 0
        for result in results[1:]:
            for name in SCHEDULE_FIELDS + ("window_seconds", "estimates", "window_batch"):
                np.testing.assert_array_equal(
                    getattr(result.schedule, name), getattr(first, name), err_msg=name
                )
            for name in SUMMARY_FIELDS:
                assert getattr(result.schedule, name) == getattr(first, name), name
            assert result.routing == results[0].routing


class TestShedReasonSchema:
    """``window_shed_reason``: one labelled entry per window, always present.

    The CLI step log relies on the column existing with a closed vocabulary
    whether or not anything was shed, so downstream readers never branch on
    schema shape.
    """

    VOCABULARY = {"none", "no-capacity", "queue-full"}

    @pytest.mark.parametrize("batching", [True, False])
    @pytest.mark.parametrize("qps", [1000.0, 8000.0])
    def test_schema_is_unconditional(self, batching, qps):
        frontend = paced_frontend(make_table(), batching=batching)
        plan = frontend.schedule(*paced(flat_trace(qps, num_steps=6)))
        reasons = plan.window_shed_reason
        assert reasons.shape == (plan.num_windows,)
        assert set(reasons) <= self.VOCABULARY
        np.testing.assert_array_equal(plan.window_shed > 0, reasons != "none")

    def test_feasible_load_reports_none_everywhere(self):
        plan = paced_frontend(make_table()).schedule(*paced(flat_trace(1000.0, num_steps=6)))
        assert plan.shed_queries == 0
        assert set(plan.window_shed_reason) == {"none"}

    def test_overload_with_capacity_reports_queue_full(self):
        plan = paced_frontend(make_table()).schedule(*paced(flat_trace(8000.0, num_steps=6)))
        shed_windows = plan.window_shed > 0
        assert np.any(shed_windows)
        assert set(plan.window_shed_reason[shed_windows]) == {"queue-full"}

    def test_zero_capacity_windows_report_no_capacity(self):
        # A decision window so short that floor(max_feasible_qps * window)
        # rounds to zero admitted slots: every arrival is shed for lack of
        # capacity, not queue space (the queue limit scales with capacity).
        frontend = paced_frontend(make_table(), window_seconds=1e-4)
        plan = frontend.schedule(*paced(flat_trace(10_000.0, num_steps=1, step_seconds=0.01)))
        assert plan.served_queries == 0
        shed_windows = plan.window_shed > 0
        assert np.any(shed_windows)
        assert set(plan.window_shed_reason[shed_windows]) == {"no-capacity"}
        assert set(plan.window_shed_reason[~shed_windows]) <= {"none"}


class TestDynamicBatching:
    def test_batch_obeys_the_headroom_rule(self):
        table = make_table()
        frontend = paced_frontend(table)
        trace = flat_trace(1000.0, num_steps=4)
        plan = frontend.schedule(*paced(trace))
        headroom = table.sla_seconds - float(table.p99_profile(0, 1000.0))
        expected = int(np.floor(headroom * 1000.0))
        assert np.all(plan.window_paths == 0)
        assert np.all(plan.window_batch == expected)
        assert 1 <= expected <= frontend.max_batch

    def test_batch_is_clamped_to_max_batch(self):
        table = make_table()
        frontend = paced_frontend(table, max_batch=8)
        plan = frontend.schedule(*paced(flat_trace(2500.0, num_steps=4)))
        assert np.all(plan.window_batch <= 8)
        assert plan.window_batch.max() == 8  # headroom alone would exceed it

    def test_no_headroom_means_no_batching(self):
        table = make_table(sla_ms=1.0)  # nobody meets 1 ms
        frontend = paced_frontend(table)
        plan = frontend.schedule(*paced(flat_trace(1000.0, num_steps=4)))
        assert np.all(plan.window_batch == 1)

    def test_mean_batch_size_weights_by_served_queries(self):
        table = make_table()
        frontend = paced_frontend(table)
        plan = frontend.schedule(*paced(flat_trace(1000.0, num_steps=4)))
        weighted = np.sum(plan.window_admitted * plan.window_batch) / plan.window_admitted.sum()
        assert plan.mean_batch_size == pytest.approx(weighted)

    def test_knob_validation(self):
        table = make_table()
        router = MultiPathRouter(table)
        with pytest.raises(ValueError, match="max_batch"):
            StreamingFrontend(router, max_batch=0)
        with pytest.raises(ValueError, match="window_seconds"):
            StreamingFrontend(router, window_seconds=0.0)
        with pytest.raises(ValueError, match="defer_windows"):
            StreamingFrontend(router, defer_windows=-1.0)


@pytest.fixture(scope="module")
def experiment_table():
    """The frontend experiment's own compiled table (saturates on-trace)."""
    return runner.compiled_table(FRONTEND_CELL.params, seed=0)


class TestServe:
    def test_bounds_ordering_on_every_scenario_trace(self, experiment_table, scenario_traces):
        # The experiment's headline claim, on the same compiled table it
        # runs on: clairvoyance bounds the frontend, which bounds static
        # provisioning for the median load.
        for trace in scenario_traces:
            static = route_static(experiment_table, trace)
            oracle = route_oracle(experiment_table, trace)
            frontend = StreamingFrontend(build_router(experiment_table))
            served = frontend.serve(trace, QueryStream.from_trace(trace, seed=0))
            assert (
                oracle.violation_rate
                <= served.routing.violation_rate
                <= static.violation_rate + 1e-12
            )
            assert served.routing.policy == "frontend"
            assert served.routing.total_queries == served.schedule.offered_queries

    def test_shed_queries_count_as_violations_with_zero_quality(self):
        table = make_table()
        frontend = paced_frontend(table, defer_windows=0.0)
        trace = flat_trace(8000.0, num_steps=6)
        served = frontend.serve(*paced(trace))
        schedule = served.schedule
        assert schedule.shed_rate > 0
        # The served remainder runs on the feasible fast path, so sheds are
        # the *only* violations and the only quality discount.
        assert served.routing.violation_rate == pytest.approx(schedule.shed_rate)
        assert served.routing.p99_seconds == float("inf")  # >1% of mass is shed
        assert served.routing.quality == pytest.approx(95.0 * (1.0 - schedule.shed_rate))
        assert served.routing.effective_quality <= served.routing.quality

    def test_feasible_stream_has_no_violations(self):
        table = make_table()
        frontend = paced_frontend(table)
        served = frontend.serve(*paced(flat_trace(1000.0, num_steps=6)))
        assert served.schedule.shed_queries == 0
        assert served.routing.violation_rate == 0.0
        assert served.routing.quality == pytest.approx(98.0)
        assert served.routing.effective_quality == pytest.approx(98.0)
        assert served.routing.p99_seconds < table.sla_seconds

    def test_empty_stream_is_rejected(self):
        table = make_table()
        frontend = StreamingFrontend(MultiPathRouter(table, estimator=WindowedMean(window=1)))
        stream = QueryStream("empty", 30.0, np.array([]))
        with pytest.raises(ValueError, match="empty"):
            frontend.serve(flat_trace(100.0, num_steps=3), stream)

    def test_occupancy_sums_to_the_served_fraction(self):
        table = make_table()
        frontend = paced_frontend(table)
        served = frontend.serve(*paced(flat_trace(8000.0, num_steps=6)))
        served_fraction = served.schedule.served_queries / served.schedule.offered_queries
        assert sum(served.routing.occupancy.values()) == pytest.approx(served_fraction)


class TestServeMemory:
    """Drawing and serving a stream with no deferrals allocate nothing per query."""

    @staticmethod
    def serve_peak(qps: float, process: str = "paced", draw: bool = False) -> tuple[int, int]:
        """Traced peak allocation and the stream's size as float64 arrivals, in bytes.

        The traced region is ``serve()``, plus ``from_trace`` with ``draw``.
        """
        trace = flat_trace(qps, num_steps=400, step_seconds=2.0)
        frontend = paced_frontend(make_table())
        stream = None if draw else QueryStream.from_trace(trace, process=process)
        tracemalloc.start()
        try:
            if draw:
                stream = QueryStream.from_trace(trace, process=process)
            served = frontend.serve(trace, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Both loads are feasible: nothing is shed or deferred.
        assert served.schedule.shed_queries == 0
        assert not served.schedule.window_deferred.any()
        return peak, stream.num_queries * np.dtype(np.float64).itemsize

    def test_serve_peak_does_not_grow_with_the_stream(self):
        self.serve_peak(500.0)  # settle lazily initialised state first
        small_peak, small_bytes = self.serve_peak(500.0)
        large_peak, large_bytes = self.serve_peak(2000.0)
        assert large_bytes - small_bytes > 9_000_000
        assert large_peak - small_peak < 0.25 * (large_bytes - small_bytes)

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_drawing_and_serving_peak_does_not_grow_with_the_stream(self, process):
        self.serve_peak(500.0, process, draw=True)  # settle lazily initialised state first
        small_peak, small_bytes = self.serve_peak(500.0, process, draw=True)
        large_peak, large_bytes = self.serve_peak(2000.0, process, draw=True)
        assert large_bytes - small_bytes > 9_000_000
        assert large_peak - small_peak < 0.25 * (large_bytes - small_bytes)


class TestThroughputSmoke:
    """The blocking CI smoke: per-query serving >= 5x per-step decisions."""

    def test_frontend_routes_queries_5x_faster_than_step_decisions(self):
        table = make_table()
        trace = diurnal_trace(
            num_steps=600, step_seconds=1.0, base_qps=500.0, peak_qps=2500.0, noise=0.05, seed=0
        )

        router = MultiPathRouter(table, estimator=WindowedMean(window=3))
        best_decide = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            steps, _ = router.decide(trace)
            best_decide = min(best_decide, time.perf_counter() - start)
        decisions_per_second = len(steps) / best_decide

        # Scheduling alone is per-window work; the per-query work a caller
        # waits for is drawing the stream and serving it.
        frontend = StreamingFrontend(MultiPathRouter(table, estimator=WindowedMean(window=3)))
        best_serve = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            stream = QueryStream.from_trace(trace, seed=0)
            served = frontend.serve(trace, stream)
            best_serve = min(best_serve, time.perf_counter() - start)
        routed_per_second = stream.num_queries / best_serve

        assert stream.num_queries > 500_000
        assert served.schedule.offered_queries == stream.num_queries
        print(
            f"\nfrontend {routed_per_second:,.0f} routed queries/s vs "
            f"step router {decisions_per_second:,.0f} decisions/s "
            f"({routed_per_second / decisions_per_second:.0f}x)"
        )
        assert routed_per_second >= 5 * decisions_per_second

"""Tests for the structured run event-log subsystem (``repro.events``)."""

import json

import numpy as np
import pytest

from repro.events import (
    EVENT_KINDS,
    EventLog,
    active_log,
    capture,
)
from repro.serving.estimators import WindowedMean
from repro.serving.frontend import QueryStream, StreamingFrontend
from repro.serving.router import MultiPathRouter
from repro.serving.trace import LoadTrace, spike_trace
from tests.conftest import make_table


def switching_trace(num_steps: int = 12) -> LoadTrace:
    """A load step from hq-comfortable to hq-saturated: forces one switch."""
    qps = np.concatenate([np.full(num_steps // 2, 1000.0), np.full(num_steps // 2, 4000.0)])
    return LoadTrace("stepup", 10.0, qps)


class TestEventLog:
    def test_seq_is_monotone_and_zero_based(self):
        log = EventLog()
        for _ in range(5):
            log.emit("route_decision", step=0)
        assert [r["seq"] for r in log] == [0, 1, 2, 3, 4]

    def test_records_carry_kind_and_payload(self):
        log = EventLog()
        log.emit("sweep_column", platform="cpu", cells=7)
        assert log.records[0] == {"seq": 0, "kind": "sweep_column", "platform": "cpu", "cells": 7}

    def test_counts_by_kind(self):
        log = EventLog()
        log.emit("route_decision")
        log.emit("route_decision")
        log.emit("stream_summary")
        assert log.counts() == {"route_decision": 2, "stream_summary": 1}

    def test_numpy_scalars_unwrapped(self):
        log = EventLog()
        log.emit("shard_gather", nodes=np.int64(3), gather=np.float64(1.5), per_node=[np.int32(2)])
        record = log.records[0]
        assert type(record["nodes"]) is int
        assert type(record["gather"]) is float
        assert record["per_node"] == [2]

    def test_non_finite_floats_become_none(self):
        log = EventLog()
        log.emit("route_decision", p99=float("inf"), rate=float("nan"))
        assert log.records[0]["p99"] is None
        assert log.records[0]["rate"] is None

    def test_every_record_is_json_serializable(self):
        log = EventLog()
        log.emit("admission_window", depth=np.int64(4), p99=float("inf"), tags=("a", "b"))
        line = json.dumps(log.records[0])
        assert json.loads(line)["tags"] == ["a", "b"]

    def test_write_and_read_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("route_decision", step=0, path=1)
        log.emit("stream_summary", shed=3)
        path = log.write_jsonl(tmp_path / "sub" / "events.jsonl")
        assert EventLog.read_jsonl(path) == log.records

    def test_streaming_log_appends_parseable_lines(self, tmp_path):
        target = tmp_path / "stream.jsonl"
        log = EventLog(path=target)
        log.emit("route_decision", step=0)
        # Flushed per record: inspectable before close.
        assert json.loads(target.read_text().splitlines()[0])["kind"] == "route_decision"
        log.emit("stream_summary")
        log.close()
        records = EventLog.read_jsonl(target)
        assert [r["kind"] for r in records] == ["route_decision", "stream_summary"]
        assert [r["seq"] for r in records] == [0, 1]


class TestCapture:
    def test_off_by_default(self):
        assert active_log() is None

    def test_capture_installs_and_restores(self):
        with capture() as log:
            assert active_log() is log
        assert active_log() is None

    def test_capture_restores_previous_hook(self):
        with capture() as outer:
            with capture() as inner:
                assert active_log() is inner
            assert active_log() is outer

    def test_capture_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("boom")
        assert active_log() is None

    def test_capture_closes_streaming_log(self, tmp_path):
        with capture(EventLog(path=tmp_path / "e.jsonl")) as log:
            log.emit("route_decision")
        assert log._handle is None
        assert EventLog.read_jsonl(tmp_path / "e.jsonl")


class TestRouterEvents:
    def test_route_decisions_logged_at_commit_points(self):
        router = MultiPathRouter(make_table(), estimator=WindowedMean(window=1))
        trace = switching_trace()
        with capture() as log:
            steps, switches = router.decide(trace)
        decisions = [r for r in log if r["kind"] == "route_decision"]
        # One initial commitment plus one per committed switch.
        assert len(decisions) == 1 + sum(switches)
        assert decisions[0]["step"] == 0
        assert decisions[0]["switch"] is False
        assert all(r["switch"] is True for r in decisions[1:])
        for record in decisions[1:]:
            assert steps[record["step"]] == record["path"]
            assert record["path_name"] == router.table.paths[record["path"]].name

    def test_logging_does_not_change_decisions(self):
        router = MultiPathRouter(make_table(), estimator=WindowedMean(window=1))
        trace = switching_trace()
        baseline = router.decide(trace)
        with capture():
            logged = router.decide(trace)
        assert logged == baseline

    def test_events_are_seed_deterministic(self):
        trace = spike_trace(num_steps=40, seed=7)
        router = MultiPathRouter(make_table(), estimator=WindowedMean(window=1))
        runs = []
        for _ in range(2):
            with capture() as log:
                router.decide(trace)
            runs.append(log.records)
        assert runs[0] == runs[1]

    def test_kinds_stay_in_vocabulary(self):
        router = MultiPathRouter(make_table(), estimator=WindowedMean(window=1))
        with capture() as log:
            router.decide(switching_trace())
        assert {r["kind"] for r in log} <= set(EVENT_KINDS)


class TestFrontendEvents:
    def overloaded_frontend(self):
        router = MultiPathRouter(make_table(), estimator=WindowedMean(window=1))
        return StreamingFrontend(router, max_batch=16)

    def test_stream_summary_totals_match_schedule(self):
        frontend = self.overloaded_frontend()
        trace = spike_trace(num_steps=30, spike_qps=8000.0, seed=3)
        stream = QueryStream.from_trace(trace, seed=3)
        with capture() as log:
            plan = frontend.schedule(trace, stream)
        summaries = [r for r in log if r["kind"] == "stream_summary"]
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary["offered"] == stream.num_queries
        assert summary["max_queue_depth"] == plan.max_queue_depth
        assert summary["shed"] == plan.shed_queries

    def test_admission_windows_logged_only_when_eventful(self):
        frontend = self.overloaded_frontend()
        trace = spike_trace(num_steps=30, spike_qps=8000.0, seed=3)
        stream = QueryStream.from_trace(trace, seed=3)
        with capture() as log:
            plan = frontend.schedule(trace, stream)
        windows = [r for r in log if r["kind"] == "admission_window"]
        eventful = {
            w
            for w in range(plan.num_windows)
            if plan.window_shed[w] or plan.window_deferred[w] or plan.window_switches[w]
        }
        assert {r["window"] for r in windows} == eventful
        for record in windows:
            assert record["shed"] + record["deferred"] <= record["arrivals"]

    def test_logging_keeps_schedule_bit_identical(self):
        frontend = self.overloaded_frontend()
        trace = spike_trace(num_steps=30, spike_qps=8000.0, seed=3)
        stream = QueryStream.from_trace(trace, seed=3)
        baseline = frontend.schedule(trace, stream)
        with capture():
            logged = frontend.schedule(trace, stream)
        np.testing.assert_array_equal(baseline.query_state, logged.query_state)
        np.testing.assert_array_equal(baseline.query_path, logged.query_path)
        np.testing.assert_array_equal(baseline.window_shed, logged.window_shed)


class TestSweepAndClusterEvents:
    def test_sweep_emits_one_event_per_column(self, criteo_workload):
        from repro.core.sweep import SweepConfig, run_sweep
        from repro.models.zoo import criteo_model_specs

        scheduler, _ = criteo_workload
        config = SweepConfig(
            platforms=("cpu", "gpu-cpu"),
            qps=(250.0, 500.0),
            first_stage_items=(512,),
            later_stage_items=(128,),
            max_stages=2,
            num_queries=300,
        )
        with capture() as log:
            outcome = run_sweep(scheduler.evaluator, criteo_model_specs(), config)
        events = [r for r in log if r["kind"] == "sweep_column"]
        assert len(events) == len(config.platforms) * len(outcome.pipelines)
        assert all(e["cells"] == len(config.qps) for e in events)
        assert {e["platform"] for e in events} == set(config.platforms)

    def test_cluster_composition_emits_shard_gather(self):
        from repro.cluster import (
            EmbeddingTableSpec,
            InterconnectLink,
            NodeSpec,
            build_cluster_table,
            shard_row_wise,
        )

        single = make_table()
        tables = [EmbeddingTableSpec(f"t{i}", 1000, 8, 4.0) for i in range(4)]
        budget = sum(t.total_bytes for t in tables)
        nodes = (NodeSpec("n0", "cpu", budget), NodeSpec("n1", "cpu", budget))
        plan = shard_row_wise(tables, [budget] * 2)
        with capture() as log:
            build_cluster_table(nodes, {"cpu": single}, (200.0, 2000.0), plan, InterconnectLink())
        events = [r for r in log if r["kind"] == "shard_gather"]
        assert len(events) == 1
        assert events[0]["num_nodes"] == 2
        assert len(events[0]["gather_us"]) == 2
        assert all(g >= 0 for g in events[0]["gather_us"])

"""Tests of the benchmark itself.

They cover names, declared metrics, span arithmetic, output checks and a
tiny-size smoke of every workload.
"""

from __future__ import annotations

import json
import re
import signal
import time

import pytest

from perfbench import bench, reference, spans, workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _tracer(trace: list) -> spans.Tracer:
    tracer = spans.Tracer()
    tracer.spans = trace
    return tracer


def test_names_are_valid():
    """Workload and metric names are unique and match ``[A-Za-z0-9_.-]+``."""
    names = [*workloads.WORKLOADS, *bench.END_TO_END, *spans.metric_units()]
    assert len(names) == len(set(names))
    assert [name for name in names if not NAME.match(name)] == []


def test_benchmark_json_declares_what_the_code_emits():
    """BENCHMARK.json names the workloads and metrics the code reports."""
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_self_time_subtracts_the_union_of_children():
    """Self time subtracts overlapping children once, grandchildren only from their parent."""
    # root [0, 10] holds overlapping children [1, 4] and [3, 6]; the first holds [2, 3].
    trace = [
        ["cli", 0.0, 10.0, -1, 0],
        ["quality", 1.0, 4.0, 0, 0],
        ["pareto", 3.0, 6.0, 0, 0],
        ["sweep", 2.0, 3.0, 1, 0],
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 20.0)], 1.0, 6.0) == pytest.approx(3.0)


def test_entry_time_excludes_outermost_shared_layers():
    """Memoised data/quality work is charged to its layer, not to the entry."""
    trace = [
        ["entry.fig01", 0.0, 10.0, -1, 0],
        ["engine.kernel", 1.0, 5.0, 0, 0],
        ["data", 2.0, 4.0, 1, 0],  # shared work two levels down
        ["quality", 6.0, 9.0, 0, 0],
        ["data", 7.0, 8.0, 3, 0],  # nested in a shared span: charged once
    ]
    assert spans.entry_times(trace) == pytest.approx([5.0, 0.0, 0.0, 0.0, 0.0])
    per = spans.per_iteration(_tracer(trace))[0]
    assert per["entry.fig01.s"] == pytest.approx(5.0)
    assert per["entry.self_s"] == pytest.approx(3.0)
    assert per["data.calls"] == 2


def test_probe_samples_inside_its_block_and_restores_the_handler():
    """The probe times slices while its block runs, then puts SIGALRM back."""
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Probe() as probe:
        end = time.perf_counter() + 5 * reference.INTERVAL
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 3
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is previous
    # Slices twice as fast as nominal: two host seconds are four reference seconds.
    assert reference.in_reference_seconds(2.0, [reference.NOMINAL_S / 2]) == pytest.approx(4.0)


def test_patched_wraps_every_alias_and_restores():
    """A module function is wrapped under each name callers resolve, then restored."""
    import repro.core.pareto
    import repro.core.scheduler

    original = repro.core.pareto.pareto_frontier
    tracer = spans.Tracer()
    layer = spans.Layer("pareto", ("repro.core.pareto:pareto_frontier",))
    with spans.patched(tracer.factories([layer])):
        assert repro.core.scheduler.pareto_frontier is repro.core.pareto.pareto_frontier
        assert repro.core.pareto.pareto_frontier is not original
        tracer.recording = True
        repro.core.scheduler.pareto_frontier([1, 2], lambda x: (x,), [True])
    assert repro.core.scheduler.pareto_frontier is original
    assert [span[0] for span in tracer.spans] == ["pareto"]


def test_problems_flag_drift_idle_and_missing_layers():
    """Call-count drift, calls to an idle layer and a silent layer are reported."""
    iterations = {
        0: {"cli.calls": 1, "cli.self_s": 0.1, "engine.event.calls": 1},
        1: {"cli.calls": 2, "cli.self_s": 0.1},
    }
    found = spans.problems("sweep", iterations)
    assert any("cli.calls differs" in p for p in found)
    assert any("engine.event recorded 1 calls" in p for p in found)
    assert any("sweep recorded no work on sweep" in p for p in found)


def test_conservation_check_catches_lost_queries():
    """The admission-log check accepts a conserving log and rejects a broken one."""
    windows = [
        {"window": 0, "arrivals": 10, "admitted": 6, "deferred": 3, "shed": 1},
        {"window": 1, "arrivals": 4, "admitted": 7, "deferred": 0, "shed": 0},
    ]
    frontend = {"shed_rate": 1 / 14, "defer_rate": 3 / 14}
    assert workloads._conservation("spike", windows, frontend) == []
    windows[1]["admitted"] = 9  # serves more than arrived plus the backlog
    assert workloads._conservation("spike", windows, frontend)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks_and_emits_every_metric(name):
    """Each workload, shrunk, passes its output checks and reports every metric."""
    result, record, lines = bench.run_workload(
        name, seed=3, seconds=0, trace=False, tiny=True, setup_runs=1
    )
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_sweep_reports_every_layer_metric():
    """The traced run reports every per-layer metric; the event engine stays idle."""
    result, record, lines = bench.run_workload("sweep", seed=3, seconds=0, trace=True, tiny=True)
    assert record["problems"] == []
    assert result["correct"]
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    assert set(metrics) == set(spans.metric_units())
    assert metrics["engine.event.calls"] == 0
    assert metrics["metrics.report.self_s"] > 0 and metrics["trace.overhead"] > 0

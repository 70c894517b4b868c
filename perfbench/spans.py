"""Per-layer tracing of the ``repro`` stack, from outside the program.

The traced run wraps each layer's public functions under every name its
callers resolve (``repro.core.scheduler.pareto_frontier`` as well as
``repro.core.pareto.pareto_frontier``), records one span per call in memory
and derives per-layer self time and counts from the spans afterwards.
Nothing under ``src/`` is modified; :func:`patched` restores every name it
replaced.

A span is ``[name, start, end, parent, iteration]`` (``parent`` is the index
of the enclosing span, ``-1`` at the root).  A layer's self time is its span
time minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from perfbench.workloads import WORKLOADS

#: Layers whose work is memoised and shared between registry entries; an
#: entry's time excludes them so the first entry to need a memo is not
#: charged for everyone's use of it.
SHARED_LAYERS = ("data", "quality")

#: Registry entries of the ``registry`` workload at the time the benchmark
#: was defined (``bench-sim`` excluded); each reports ``entry.<id>.s``.
ENTRY_IDS = (
    "fig01",
    "tab01",
    "fig03",
    "fig05",
    "fig07",
    "fig08",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "sweepmp",
    "router",
    "frontend",
    "flashcrowd",
    "coldcache",
    "capacity",
    "routergrid-spike-windowed",
    "routergrid-spike-holt",
    "routergrid-diurnal-windowed",
    "routergrid-diurnal-holt",
)


@dataclass(frozen=True)
class Call:
    """One call of a wrapped function that returned, as its counter sees it."""

    args: tuple
    kwargs: dict
    result: object
    before: object = None

    def arg(self, index: int, name: str):
        """Return a parameter passed either positionally (at ``index``) or by name."""
        return self.args[index] if len(self.args) > index else self.kwargs[name]


@dataclass(frozen=True)
class Layer:
    """One layer of the stack: the functions that enter it and what to count.

    ``count`` turns a returned call into counts, ``failure`` a raised
    exception.  ``workloads`` names the workloads on which the layer must
    record calls and self time (the workloads whose end-to-end metrics it
    should move); ``idle`` marks a layer that must record no call at all in
    the timed path.
    """

    name: str
    targets: tuple[str, ...]
    counts: tuple[str, ...] = ()
    count: Callable[[Call], dict] | None = None
    failure: Callable[[BaseException], dict] | None = None
    before: Callable[[tuple, dict], object] | None = None
    workloads: tuple[str, ...] = ()
    idle: bool = False


def _memo_size(args: tuple, kwargs: dict) -> int:
    # QualityEvaluator memoises per funnel; growth of its memo during a call
    # is a miss (the funnel was simulated), no growth a hit.
    return len(args[0]._cache)


def _artifact_bytes(call: Call) -> dict:
    if isinstance(call.result, dict):  # write_experiment_artifacts' manifest entry
        directory = Path(call.arg(0, "output_dir"))
        paths = [directory / call.result["json"], directory / call.result["csv"]]
    elif isinstance(call.result, Path):  # write_manifest
        paths = [call.result]
    else:  # write_sweep_artifacts: its nested writes count the bytes
        paths = []
    return {"bytes": sum(path.stat().st_size for path in paths)}


def _infeasible(error: BaseException) -> dict:
    from repro.cluster.sharding import ShardingError

    return {"infeasible": int(isinstance(error, ShardingError))}


def _schedule_counts(call: Call) -> dict:
    schedule = call.result
    return {
        "windows": schedule.num_windows,
        "offered": schedule.offered_queries,
        "admitted": schedule.served_queries,
        "deferred": schedule.deferred_served_queries,
        "shed": schedule.shed_queries,
    }


ALL = tuple(WORKLOADS)
LAYERS = (
    Layer("cli", ("repro.cli:main",), workloads=ALL),
    Layer(
        "data",
        (
            "repro.data.criteo:CriteoSynthetic.sample_ranking_queries",
            "repro.data.criteo:CriteoSynthetic.build_dataset",
            "repro.data.movielens:MovieLensSynthetic.sample_ranking_queries",
        ),
        workloads=ALL,
    ),
    Layer(
        "quality",
        ("repro.quality.evaluator:QualityEvaluator.evaluate",),
        counts=("misses",),
        count=lambda c: {"misses": int(_memo_size(c.args, c.kwargs) > c.before)},
        before=_memo_size,
        workloads=("sweep",),
    ),
    Layer(
        "scheduler.plan",
        ("repro.core.scheduler:RecPipeScheduler.plan_for",),
        workloads=("sweep",),
    ),
    Layer(
        "engine.kernel",
        ("repro.serving.engine:analytic_latencies",),
        counts=("queries",),
        count=lambda c: {"queries": int(np.size(c.arg(1, "arrivals")))},
        workloads=("sweep", "serve"),
    ),
    Layer("engine.event", ("repro.serving.engine:event_latencies",), idle=True),
    Layer(
        "service_times",
        ("repro.serving.service_times:sampled_service",),
        counts=("samples",),
        count=lambda c: {"samples": int(np.shape(c.result)[-1])},
        workloads=("serve",),
    ),
    Layer(
        "metrics.report",
        ("repro.serving.metrics:LatencyReport.from_latencies",),
        workloads=("sweep",),
    ),
    Layer(
        "metrics.wpercentile",
        ("repro.serving.metrics:weighted_percentile",),
        counts=("values",),
        count=lambda c: {"values": int(np.size(c.arg(0, "values")))},
        workloads=("serve",),
    ),
    Layer(
        "pareto",
        ("repro.core.pareto:pareto_frontier",),
        counts=("points",),
        count=lambda c: {"points": len(c.arg(0, "items"))},
        workloads=("sweep", "fleet"),
    ),
    Layer("sweep", ("repro.core.sweep:run_sweep",), workloads=("sweep",)),
    Layer("router.compile", ("repro.serving.router:PathTable.compile",), workloads=("serve",)),
    Layer(
        "router.decide",
        ("repro.serving.router:MultiPathRouter.decide_from_estimates",),
        counts=("windows", "switches"),
        count=lambda c: {"windows": len(c.result[0]), "switches": int(sum(c.result[1][1:]))},
        workloads=("serve",),
    ),
    Layer(
        "router.evaluate",
        ("repro.serving.router:PathTable.evaluate_route",),
        counts=("steps",),
        count=lambda c: {"steps": len(c.arg(2, "path_steps"))},
        workloads=("serve", "fleet"),
    ),
    Layer(
        "router.profile",
        ("repro.serving.router:PathTable.p99_profile",),
        counts=("points",),
        count=lambda c: {"points": int(np.size(c.arg(2, "qps_values")))},
        workloads=("fleet",),
    ),
    Layer(
        "frontend.stream",
        ("repro.serving.frontend:QueryStream.from_trace",),
        counts=("queries",),
        count=lambda c: {"queries": c.result.num_queries},
        workloads=("serve",),
    ),
    Layer(
        "frontend.schedule",
        ("repro.serving.frontend:StreamingFrontend.schedule",),
        counts=("windows", "offered", "admitted", "deferred", "shed"),
        count=_schedule_counts,
        workloads=("serve", "registry"),
    ),
    Layer(
        "frontend.serve",
        ("repro.serving.frontend:StreamingFrontend.serve",),
        workloads=("serve",),
    ),
    Layer(
        "cluster.shard",
        ("repro.cluster.sharding:shard_row_wise", "repro.cluster.sharding:shard_table_wise"),
        counts=("infeasible", "shards"),
        count=lambda c: {"shards": len(c.result.assignments)},
        failure=_infeasible,
        workloads=("fleet",),
    ),
    Layer(
        "cluster.gather",
        ("repro.cluster.topology:gather_seconds_per_node",),
        workloads=("fleet",),
    ),
    Layer("cluster.compose", ("repro.cluster.fleet:build_cluster_table",), workloads=("fleet",)),
    Layer(
        "capacity.scan",
        ("repro.experiments.capacity_planning:sla_feasible_qps",),
        workloads=("fleet",),
    ),
    Layer("train.fit", ("repro.models.training:Trainer.fit",), workloads=("registry",)),
    Layer("train.adam", ("repro.nn.optim:Adam.step",), workloads=("registry",)),
    Layer(
        "artifacts",
        (
            "repro.experiments.artifacts:write_experiment_artifacts",
            "repro.experiments.artifacts:write_sweep_artifacts",
            "repro.experiments.artifacts:write_manifest",
        ),
        counts=("bytes",),
        count=_artifact_bytes,
        workloads=ALL,
    ),
    # One span per registry entry, named ``entry.<id>``.
    Layer(
        "entry",
        ("repro.experiments.registry:ExperimentSpec.execute",),
        workloads=("registry",),
    ),
)


def layer_of(span_name: str) -> str:
    """Return the layer a span belongs to (``entry.<id>`` spans form one layer)."""
    return "entry" if span_name.startswith("entry.") else span_name


# --------------------------------------------------------------------------- #
# Patching
# --------------------------------------------------------------------------- #
def _owner(target: str) -> tuple[object, str, bool]:
    """Return ``(owner, attribute, is_module_level)`` of a ``module:Qual.name``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, not classes


@contextlib.contextmanager
def patched(factories: dict[str, Callable[[Callable], Callable]]) -> Iterator[None]:
    """Replace each target by ``factory(original)`` for the ``with`` block.

    A module-level function is replaced under every name any loaded
    ``repro`` module binds it to (``from x import f`` copies the binding);
    a method is replaced on its class, which subclasses inherit.
    Class- and staticmethods keep their descriptor type.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for target, factory in factories.items():
            owner, attr, module_level = _owner(target)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(factory(raw.__func__))
            else:
                replacement = factory(raw)
            if module_level:
                sites = [
                    module
                    for name, module in list(sys.modules.items())
                    if module is not None and (name == "repro" or name.startswith("repro."))
                ]
            else:
                sites = [owner]
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is raw:
                        setattr(site, name, replacement)
                        undo.append((site, name, raw))
        yield
    finally:
        for site, name, value in reversed(undo):
            setattr(site, name, value)


# --------------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------------- #
class Tracer:
    """Records spans and counts of wrapped calls while ``recording`` is set.

    Calls made while ``recording`` is false (output checks between timed
    iterations) pass straight through and leave no trace.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.iteration = 0
        self.recording = False
        self._stack: list[int] = []

    def factories(self, layers: Sequence[Layer] = LAYERS) -> dict[str, Callable]:
        """Return wrapper factories for :func:`patched`, one per layer target."""
        return {
            target: functools.partial(self._wrap, layer)
            for layer in layers
            for target in layer.targets
        }

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            name = f"entry.{args[0].id}" if layer.name == "entry" else layer.name
            before = layer.before(args, kwargs) if layer.before else None
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.iteration]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if layer.failure is not None:
                    tracer._add(layer, layer.failure(error))
                raise
            span[2] = time.perf_counter()
            tracer._stack.pop()
            if layer.count is not None:
                tracer._add(layer, layer.count(Call(args, kwargs, result, before)))
            return result

        return traced

    def _add(self, layer: Layer, counts: dict) -> None:
        self.counts[self.iteration].update(
            {f"{layer.name}.{key}": value for key, value in counts.items()}
        )

    def write(self, path: Path) -> None:
        """Write the spans out, one JSON object per line."""
        keys = ("name", "start", "end", "parent", "iteration")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Return the length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Return each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, iteration in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[index], start, end)
        for index, (name, start, end, parent, iteration) in enumerate(spans)
    ]


def entry_times(spans: Sequence[Sequence]) -> list[float]:
    """Return each ``entry.<id>`` span's time without the shared memoised layers.

    The outermost :data:`SHARED_LAYERS` spans inside an entry are charged to
    their own layer, not to whichever entry first needed the memo.  Spans of
    other layers get 0.
    """
    shared = [0.0] * len(spans)
    for name, start, end, parent, iteration in spans:
        if layer_of(name) not in SHARED_LAYERS:
            continue
        while parent >= 0:
            ancestor = spans[parent][0]
            if layer_of(ancestor) in SHARED_LAYERS:
                break  # nested in a shared span that is charged already
            if ancestor.startswith("entry."):
                shared[parent] += end - start
                break
            parent = spans[parent][3]
    return [
        (end - start) - shared[index] if name.startswith("entry.") else 0.0
        for index, (name, start, end, parent, iteration) in enumerate(spans)
    ]


def per_iteration(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Return ``{iteration: {metric: value}}``: calls, self time, entry time, counts."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    timings = zip(tracer.spans, self_times(tracer.spans), entry_times(tracer.spans))
    for (name, start, end, parent, iteration), own, entry in timings:
        layer = layer_of(name)
        out[iteration][f"{layer}.calls"] += 1
        out[iteration][f"{layer}.self_s"] += own
        if layer == "entry":
            out[iteration][f"{name}.s"] += entry
    for iteration, counts in tracer.counts.items():
        out[iteration].update(counts)
    return {iteration: dict(values) for iteration, values in out.items()}


def metric_units() -> dict[str, str]:
    """Return every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        if layer.name == "entry":
            units.update({f"entry.{entry}.s": "s" for entry in ENTRY_IDS})
            continue
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        units.update({f"{layer.name}.{key}": "count" for key in layer.counts})
    units["quality.hit_ratio"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def summarize(iterations: dict[int, dict[str, float]]) -> dict[str, float]:
    """Return the median over traced iterations of every per-layer metric."""
    keys = set(metric_units()) | {key for values in iterations.values() for key in values}
    summary = {
        key: statistics.median(values.get(key, 0.0) for values in iterations.values())
        for key in keys
    }
    calls, misses = summary["quality.calls"], summary["quality.misses"]
    summary["quality.hit_ratio"] = 1.0 - misses / calls if calls else 0.0
    return summary


def problems(workload: str, iterations: dict[int, dict[str, float]]) -> list[str]:
    """Return the cold-start and coverage violations of one traced workload.

    Every iteration must make the same calls (iteration 2 does the work
    iteration 1 did), every layer must record calls and self time on each
    workload it names, idle layers must record none, and the frontend must
    conserve queries.
    """
    found = []
    call_keys = {key for values in iterations.values() for key in values if key.endswith(".calls")}
    for key in sorted(call_keys):
        seen = {values.get(key, 0.0) for values in iterations.values()}
        if len(seen) > 1:
            found.append(f"{key} differs between iterations: {sorted(seen)}")
    for number, values in sorted(iterations.items()):
        for layer in LAYERS:
            calls = values.get(f"{layer.name}.calls", 0.0)
            if layer.idle and calls:
                found.append(f"{layer.name} recorded {calls:g} calls in iteration {number}")
            if workload in layer.workloads and not (
                calls and values.get(f"{layer.name}.self_s", 0.0) > 0
            ):
                found.append(f"{layer.name} recorded no work on {workload} in iteration {number}")
        # Offered = admitted + shed, deferred-then-served queries counted once.
        offered, admitted, shed = (
            values.get(f"frontend.schedule.{key}", 0) for key in ("offered", "admitted", "shed")
        )
        if offered != admitted + shed:
            found.append(f"frontend offered != admitted + shed in iteration {number}")
    return found

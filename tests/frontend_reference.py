"""Reference implementations the streaming frontend is checked against.

These are the frontend's original per-query forms, kept verbatim in logic:

* :func:`reference_stream` — one global ``rng.random(N)`` draw plus one
  global ``np.sort`` (the frontend draws and sorts one step's block at a
  time, only when something reads it);
* :func:`reference_paced_stream` — the whole paced stream from one
  array formula (the frontend computes one step's block at a time);
* :func:`reference_schedule` — per-query state arrays written by contiguous
  slice fills, with the FIFO backlog as a ``deque`` of index ranges (the
  frontend keeps window counters only);
* :func:`reference_serve` — deferred waits gathered through a mask over
  the per-query state (the frontend gathers them from window ranges).

The equivalence suite in ``tests/test_frontend.py`` requires the frontend
to reproduce all of them exactly.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

import numpy as np

from repro.serving.frontend import QUERY_ADMITTED, QUERY_DEFERRED, QUERY_SHED
from repro.serving.metrics import weighted_percentile
from repro.serving.router import RoutingResult


def reference_stream(trace, seed: int) -> np.ndarray:
    """Poisson arrivals from one global uniform draw and one global sort."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(trace.queries_per_step())
    starts = np.arange(trace.num_steps) * trace.step_seconds
    times = np.repeat(starts, counts)
    return np.sort(times + trace.step_seconds * rng.random(times.size))


def reference_paced_stream(trace) -> np.ndarray:
    """Paced arrivals: error-diffused counts, evenly spaced, in one array formula."""
    cumulative = np.floor(np.cumsum(trace.queries_per_step()) + 1e-9).astype(np.int64)
    counts = np.diff(np.concatenate(([0], cumulative)))
    offsets = np.arange(int(counts.sum())) - np.repeat(cumulative - counts, counts)
    spacing = np.divide(trace.step_seconds, counts, out=np.zeros(counts.size), where=counts > 0)
    starts = np.arange(trace.num_steps) * trace.step_seconds
    return np.repeat(starts, counts) + (offsets + 0.5) * np.repeat(spacing, counts)


def reference_schedule(frontend, trace, stream) -> SimpleNamespace:
    """The per-query slice-fill admission loop; returns every decision array."""
    window = frontend._window_width(trace)
    estimates, paths, switches = frontend.decide_windows(trace)
    num_windows = estimates.size
    paths_array = np.asarray(paths, dtype=np.intp)

    window_of = np.floor_divide(stream.arrival_seconds, window).astype(np.int64)
    if stream.num_queries and window_of[-1] >= num_windows:
        raise ValueError("stream extends past the trace duration")
    arrivals = np.bincount(window_of, minlength=num_windows)
    window_ends = np.cumsum(arrivals)

    table = frontend.table
    max_feasible = np.asarray([table.max_feasible_qps(i) for i in range(len(table.paths))])
    caps = np.floor(max_feasible[paths_array] * window).astype(np.int64)
    queue_limits = np.floor(frontend.defer_windows * caps).astype(np.int64)

    query_state = np.zeros(stream.num_queries, dtype=np.int8)
    query_path = np.full(stream.num_queries, -1, dtype=np.int32)
    query_serve_window = np.full(stream.num_queries, -1, dtype=np.int64)
    admitted = np.zeros(num_windows, dtype=np.int64)
    from_queue = np.zeros(num_windows, dtype=np.int64)
    deferred = np.zeros(num_windows, dtype=np.int64)
    shed = np.zeros(num_windows, dtype=np.int64)
    shed_reason = np.full(num_windows, "none", dtype="<U11")

    backlog: deque[tuple[int, int]] = deque()
    backlog_size = 0
    max_queue_depth = 0
    for w in range(num_windows):
        path = int(paths_array[w])
        cap = int(caps[w])
        remaining = cap
        while backlog and remaining > 0:
            lo, hi = backlog[0]
            take = min(hi - lo, remaining)
            query_path[lo : lo + take] = path
            query_serve_window[lo : lo + take] = w
            remaining -= take
            backlog_size -= take
            from_queue[w] += take
            if take == hi - lo:
                backlog.popleft()
            else:
                backlog[0] = (lo + take, hi)
        start = int(window_ends[w - 1]) if w else 0
        end = int(window_ends[w])
        take = min(end - start, remaining)
        if take:
            query_state[start : start + take] = QUERY_ADMITTED
            query_path[start : start + take] = path
            query_serve_window[start : start + take] = w
        admitted[w] = cap - (remaining - take)
        overflow_lo = start + take
        space = int(queue_limits[w]) - backlog_size
        defer = min(end - overflow_lo, max(space, 0))
        if defer:
            query_state[overflow_lo : overflow_lo + defer] = QUERY_DEFERRED
            backlog.append((overflow_lo, overflow_lo + defer))
            backlog_size += defer
        deferred[w] = defer
        shed[w] = end - overflow_lo - defer
        if shed[w]:
            shed_reason[w] = "no-capacity" if cap == 0 else "queue-full"
        max_queue_depth = max(max_queue_depth, backlog_size)
    for lo, hi in backlog:
        query_state[lo:hi] = QUERY_SHED

    return SimpleNamespace(
        window_seconds=window,
        window_paths=paths_array,
        window_switches=np.asarray(switches, dtype=bool),
        window_arrivals=arrivals,
        window_admitted=admitted,
        window_from_queue=from_queue,
        window_deferred=deferred,
        window_shed=shed,
        window_shed_reason=shed_reason,
        query_state=query_state,
        query_path=query_path,
        query_serve_window=query_serve_window,
        max_queue_depth=max_queue_depth,
        offered_queries=int(query_state.size),
        served_queries=int(admitted.sum()),
        deferred_served_queries=int(np.sum(query_state == QUERY_DEFERRED)),
        shed_queries=int(np.sum(query_state == QUERY_SHED)),
        num_switches=int(np.sum(np.asarray(switches, dtype=bool)[1:])),
    )


def reference_serve(frontend, trace, stream) -> RoutingResult:
    """Score :func:`reference_schedule` with the per-query deferred-wait mask."""
    plan = reference_schedule(frontend, trace, stream)
    table = frontend.table
    total = plan.offered_queries

    served_windows = np.flatnonzero(plan.window_admitted > 0)
    admitted_qps = plan.window_admitted[served_windows] / plan.window_seconds
    for index in np.unique(plan.window_paths[served_windows]):
        mask = plan.window_paths[served_windows] == index
        table.prefill_dwell(int(index), admitted_qps[mask])

    violations = 0.0
    quality_mass = 0.0
    effective_mass = 0.0
    occupancy: dict[str, float] = {}
    pooled_values: list[np.ndarray] = []
    pooled_weights: list[np.ndarray] = []
    penalty_base = frontend.router.switch_penalty_seconds
    for w, qps in zip(served_windows, admitted_qps):
        index = int(plan.window_paths[w])
        path = table.paths[index]
        weight = int(plan.window_admitted[w])
        prompt = weight - int(plan.window_from_queue[w])
        quality_mass += weight * path.quality
        occupancy[path.name] = occupancy.get(path.name, 0.0) + weight
        latencies = table.dwell_latencies(index, float(qps))
        if latencies is None:
            violations += weight
            pooled_values.append(np.asarray([np.inf]))
            pooled_weights.append(np.asarray([float(weight)]))
            continue
        penalty = penalty_base if plan.window_switches[w] else 0.0
        observed = latencies + penalty if penalty else latencies
        violating = float(np.mean(observed > table.sla_seconds))
        violations += prompt * violating + (weight - prompt)
        effective_mass += prompt * path.quality * (1.0 - violating)
        pooled_values.append(observed)
        pooled_weights.append(np.full(observed.size, prompt / observed.size))
    deferred_mask = plan.query_state == QUERY_DEFERRED
    if np.any(deferred_mask):
        waits = (
            plan.query_serve_window[deferred_mask] * plan.window_seconds
            - stream.arrival_seconds[deferred_mask]
        )
        pooled_values.append(np.maximum(waits, 0.0))
        pooled_weights.append(np.ones(waits.size))
    shed_total = plan.shed_queries
    if shed_total:
        violations += shed_total
        pooled_values.append(np.asarray([np.inf]))
        pooled_weights.append(np.asarray([float(shed_total)]))

    p99 = weighted_percentile(np.concatenate(pooled_values), np.concatenate(pooled_weights), 99.0)
    return RoutingResult(
        policy="frontend",
        trace_name=trace.name,
        quality=quality_mass / total,
        effective_quality=effective_mass / total,
        p99_seconds=p99,
        violation_rate=violations / total,
        num_switches=plan.num_switches,
        total_queries=float(total),
        path_steps=tuple(int(i) for i in plan.window_paths),
        switch_steps=tuple(bool(s) for s in plan.window_switches),
        occupancy={name: mass / total for name, mass in occupancy.items()},
    )

"""Reference implementations the step router is checked against.

:func:`reference_evaluate_route` is ``PathTable.evaluate_route`` as it was
before route scoring moved into ``PathTable.score``, kept verbatim in logic:
one prefill per (path, resolved service model) in step order, then one pass
over the steps accumulating violations, promised and effective quality,
occupancy and the pooled latency sample.  It reads dwell cells through the
table's public ``prefill_dwell``/``dwell_latencies`` pair, so it pins the
aggregation, not the cell cache.

:func:`reference_p99_at` and :func:`reference_best_path` are the scalar
``PathTable.p99_at``/``best_path`` pair the table had beside its batched
``p99_profile``/``best_path_batch``, kept verbatim in logic: one
``np.interp`` per load and a ``max``/``min`` over the eligible paths.  They
rebuild each path's feasible frontier from the public ``qps_grid`` and
``p99_grid`` (:func:`reference_frontier`), not from the table's cache.
:func:`reference_decide` is ``MultiPathRouter.decide_from_estimates`` with
one scalar decision per step on top of them, cost gate included.

The equivalence suites in ``tests/test_router.py``, ``tests/test_frontend.py``
and ``tests/test_cluster.py`` require the table and router to reproduce
them exactly (``==``).
"""

from __future__ import annotations

import numpy as np

from repro.serving.metrics import weighted_percentile
from repro.serving.router import RoutingResult


def reference_evaluate_route(
    table,
    trace,
    path_steps,
    switch_steps,
    policy: str,
    switch_penalty_seconds: float = 0.0,
    service_steps=None,
) -> RoutingResult:
    """Score a routed schedule one trace step at a time."""
    path_steps = list(path_steps)
    switch_steps = list(switch_steps)
    if service_steps is None:
        service_steps = [None] * trace.num_steps
    queries = trace.queries_per_step()
    total_queries = float(queries.sum())
    fill_groups: dict[tuple, list[float]] = {}
    for t, index in enumerate(path_steps):
        resolved = table.simulation.service if service_steps[t] is None else service_steps[t]
        fill_groups.setdefault((index, resolved), []).append(trace.qps[t])
    for (index, resolved), loads in fill_groups.items():
        table.prefill_dwell(index, loads, resolved)

    violations = 0.0
    quality_mass = 0.0
    effective_mass = 0.0
    occupancy: dict[str, float] = {}
    pooled_values: list[np.ndarray] = []
    pooled_weights: list[np.ndarray] = []
    for t, index in enumerate(path_steps):
        path = table.paths[index]
        weight = queries[t]
        quality_mass += weight * path.quality
        occupancy[path.name] = occupancy.get(path.name, 0.0) + weight
        penalty = switch_penalty_seconds if switch_steps[t] else 0.0
        latencies = table.dwell_latencies(index, float(trace.qps[t]), service_steps[t])
        if latencies is None:
            violations += weight
            pooled_values.append(np.asarray([np.inf]))
            pooled_weights.append(np.asarray([weight]))
            continue
        observed = latencies + penalty if penalty else latencies
        violating = float(np.mean(observed > table.sla_seconds))
        violations += weight * violating
        effective_mass += weight * path.quality * (1.0 - violating)
        pooled_values.append(observed)
        pooled_weights.append(np.full(observed.size, weight / observed.size))
    p99 = weighted_percentile(np.concatenate(pooled_values), np.concatenate(pooled_weights), 99.0)
    return RoutingResult(
        policy=policy,
        trace_name=trace.name,
        quality=quality_mass / total_queries,
        effective_quality=effective_mass / total_queries,
        p99_seconds=p99,
        violation_rate=violations / total_queries,
        num_switches=int(sum(switch_steps[1:])),
        total_queries=total_queries,
        path_steps=tuple(path_steps),
        switch_steps=tuple(bool(s) for s in switch_steps),
        occupancy={name: mass / total_queries for name, mass in occupancy.items()},
    )


def reference_frontier(table, path_index: int) -> tuple[np.ndarray, np.ndarray]:
    """One path's feasible frontier: its finite p99 prefix, forced non-decreasing."""
    row = np.asarray(table.p99_grid[path_index], dtype=np.float64)
    finite = np.isfinite(row)
    length = int(row.size if finite.all() else np.argmin(finite))
    return np.asarray(table.qps_grid)[:length], np.maximum.accumulate(row[:length])


def reference_p99_at(table, path_index: int, qps: float) -> float:
    """Frontier-interpolated p99 of one path at one load (``inf`` beyond it)."""
    if qps <= 0:
        raise ValueError(f"qps must be positive, got {qps}")
    frontier_qps, frontier_p99 = reference_frontier(table, path_index)
    if frontier_qps.size == 0 or qps > frontier_qps[-1]:
        return float("inf")
    return float(np.interp(qps, frontier_qps, frontier_p99))


def reference_best_path(table, qps: float) -> int:
    """The highest-quality SLA-meeting eligible path, else the lowest-p99 one."""
    eligible = [
        i
        for i, path in enumerate(table.paths)
        if table.quality_target is None or path.quality >= table.quality_target
    ]
    p99s = {i: reference_p99_at(table, i, qps) for i in eligible}
    meeting = [i for i, p99 in p99s.items() if p99 <= table.sla_seconds]
    if meeting:
        return max(meeting, key=lambda i: (table.paths[i].quality, -p99s[i]))
    return min(eligible, key=lambda i: (p99s[i], -table.paths[i].capacity_qps))


def reference_switch_pays_off(
    table, current: int, candidate: int, qps: float, streak: int, cost_seconds: float
) -> bool:
    """The cost gate: quality switches and escapes from saturation always pass."""
    if cost_seconds == 0:
        return True
    p99_current = reference_p99_at(table, current, qps)
    if p99_current <= table.sla_seconds:
        return True
    if np.isinf(p99_current):
        return True
    gain = p99_current - reference_p99_at(table, candidate, qps)
    return gain * float(max(streak, 1)) >= cost_seconds


def reference_decide(
    table, estimates, hysteresis_steps: int, switch_cost_seconds: float
) -> tuple[list[int], list[bool]]:
    """Hysteresis + cost-gated switching, one scalar best-path decision per step."""
    current = reference_best_path(table, float(estimates[0]))
    steps, switches = [current], [False]
    pending, streak = None, 0
    for qps in estimates[1:]:
        candidate = reference_best_path(table, float(qps))
        if candidate == current:
            pending, streak = None, 0
        elif candidate == pending:
            streak += 1
        else:
            pending, streak = candidate, 1
        if (
            pending is not None
            and streak >= hysteresis_steps
            and reference_switch_pays_off(
                table, current, pending, float(qps), streak, switch_cost_seconds
            )
        ):
            current = pending
            pending, streak = None, 0
            switches.append(True)
        else:
            switches.append(False)
        steps.append(current)
    return steps, switches

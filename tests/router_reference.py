"""Reference implementation the step router's route scoring is checked against.

:func:`reference_evaluate_route` is ``PathTable.evaluate_route`` as it was
before route scoring moved into ``PathTable.score``, kept verbatim in logic:
one prefill per (path, resolved service model) in step order, then one pass
over the steps accumulating violations, promised and effective quality,
occupancy and the pooled latency sample.  It reads dwell cells through the
table's public ``prefill_dwell``/``dwell_latencies`` pair, so it pins the
aggregation, not the cell cache.

The equivalence suite in ``tests/test_router.py`` requires
``evaluate_route`` to reproduce it exactly (``==``).
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

"""Reference implementation ``PathTable.score`` is checked against.

:func:`reference_score` is ``PathTable.score`` as it was before its p99 went
mass-first, kept verbatim in logic: it always pools every dwell cell's
sample, the late-served ``waits`` array and the shed mass, in that order,
and sorts the pool through ``weighted_percentile``.

``tests/test_router.py::TestMassFirstP99`` requires ``score`` to reproduce
it exactly (``==``), with the waits read through a callable.
"""

from __future__ import annotations

import numpy as np

from repro.serving.metrics import weighted_percentile
from repro.serving.router import RoutingResult


def reference_score(
    table, policy, trace_name, path_steps, switch_steps, cells, total_queries, waits=None, shed=0
) -> RoutingResult:
    """Score dwell cells, late-served ``waits`` and ``shed`` queries through one sorted pool."""
    loads: dict[tuple, list[float]] = {}
    for index, load, service, *_ in cells:
        loads.setdefault((index, service), []).append(load)
    for (index, service), values in loads.items():
        table.prefill_dwell(index, values, service)

    violations = 0.0
    quality_mass = 0.0
    effective_mass = 0.0
    occupancy: dict[str, float] = {}
    pooled_values: list[np.ndarray] = []
    pooled_weights: list[np.ndarray] = []
    for index, load, service, served, prompt, penalty in cells:
        path = table.paths[index]
        quality_mass += served * path.quality
        occupancy[path.name] = occupancy.get(path.name, 0.0) + served
        latencies = table.dwell_latencies(index, load, service)
        if latencies is None:
            violations += served
            pooled_values.append(np.asarray([np.inf]))
            pooled_weights.append(np.asarray([float(served)]))
            continue
        observed = latencies + penalty if penalty else latencies
        violating = float(np.mean(observed > table.sla_seconds))
        violations += prompt * violating + (served - prompt)
        effective_mass += prompt * path.quality * (1.0 - violating)
        pooled_values.append(observed)
        pooled_weights.append(np.full(observed.size, prompt / observed.size))
    if waits is not None:
        pooled_values.append(waits)
        pooled_weights.append(np.ones(waits.size))
    if shed:
        violations += shed
        pooled_values.append(np.asarray([np.inf]))
        pooled_weights.append(np.asarray([float(shed)]))
    p99 = weighted_percentile(np.concatenate(pooled_values), np.concatenate(pooled_weights), 99.0)
    switch_steps = tuple(bool(s) for s in switch_steps)
    return RoutingResult(
        policy=policy,
        trace_name=trace_name,
        quality=quality_mass / total_queries,
        effective_quality=effective_mass / total_queries,
        p99_seconds=p99,
        violation_rate=violations / total_queries,
        num_switches=sum(switch_steps[1:]),
        total_queries=float(total_queries),
        path_steps=tuple(int(i) for i in path_steps),
        switch_steps=switch_steps,
        occupancy={name: mass / total_queries for name, mass in occupancy.items()},
    )

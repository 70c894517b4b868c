"""Reference implementations the sweep's bookkeeping is checked against.

These are the per-item forms the sweep used before latency reports were
built a column at a time and the Pareto frontier was evaluated with numpy,
kept verbatim in logic:

* :func:`reference_report` — one :class:`LatencyReport` per kept latency
  row, each percentile its own ``np.percentile`` call;
* :func:`reference_pareto_frontier` — the all-pairs pure-Python dominance
  loop;
* :func:`reference_csv` — the ``csv.DictWriter`` rendering of result rows.

The equivalence suite in ``tests/test_sweep.py`` requires the column-batched
reports, the vectorised frontier and the list-row CSV writer to reproduce
all of them exactly.
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.experiments.artifacts import _csv_cell
from repro.serving.metrics import LatencyReport

T = TypeVar("T")


def reference_report(
    latencies: np.ndarray, arrivals: np.ndarray, offered_qps: float, saturated: bool
) -> LatencyReport:
    """Summarize one kept latency row with three separate percentile calls."""
    latencies = np.asarray(latencies, dtype=np.float64)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    makespan = float(np.max(arrivals + latencies) - arrivals[0])
    achieved = latencies.size / makespan if makespan > 0 else 0.0
    return LatencyReport(
        offered_qps=offered_qps,
        achieved_qps=achieved,
        num_queries=int(latencies.size),
        mean_latency=float(latencies.mean()),
        p50_latency=float(np.percentile(latencies, 50)),
        p95_latency=float(np.percentile(latencies, 95)),
        p99_latency=float(np.percentile(latencies, 99)),
        max_latency=float(latencies.max()),
        saturated=saturated,
    )


def reference_pareto_frontier(
    items: Sequence[T],
    objectives: Callable[[T], tuple[float, ...]],
    minimize: Sequence[bool],
) -> list[T]:
    """The Pareto-optimal subset of ``items`` by an all-pairs Python loop."""
    if not items:
        return []
    values = [objectives(item) for item in items]
    normalized = [tuple(v if flag else -v for v, flag in zip(vals, minimize)) for vals in values]
    frontier: list[T] = []
    for i, item in enumerate(items):
        dominated = False
        for j, other in enumerate(normalized):
            if j == i:
                continue
            if all(o <= s for o, s in zip(other, normalized[i])) and any(
                o < s for o, s in zip(other, normalized[i])
            ):
                dominated = True
                break
        if not dominated:
            frontier.append(item)
    return frontier


def reference_csv(rows: Sequence[dict]) -> str:
    """Rows as CSV through ``csv.DictWriter``; header is the first-seen key union."""
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    handle = io.StringIO(newline="")
    writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    return handle.getvalue()

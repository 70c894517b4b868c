"""Reference implementations the sweep's bookkeeping is checked against.

These are the per-item forms the sweep used before latency reports were
built a column at a time and the Pareto frontier was evaluated with numpy,
kept verbatim in logic:

* :func:`reference_report` — one :class:`LatencyReport` per kept latency
  row, each percentile its own ``np.percentile`` call (numpy's partition
  of the row, where reports now sort the whole matrix once);
* :func:`reference_pareto_frontier` — the all-pairs pure-Python dominance
  loop;
* :func:`reference_csv` — the ``csv.DictWriter`` rendering of result rows;
* :func:`reference_sweep_files` — every file ``write_sweep_artifacts``
  writes, each table encoded on its own (where the writer now encodes the
  main table's rows once and copies their text into the companions).

The equivalence suite in ``tests/test_sweep.py`` requires the column-batched
reports, the vectorised frontier, the list-row CSV writer and the sweep
artifact writer to reproduce all of them exactly.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro.experiments.artifacts import _csv_cell, _json_default, _sanitize, result_payload
from repro.experiments.common import ExperimentResult
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


def reference_sweep_files(
    meta: Mapping,
    result: ExperimentResult,
    companions: Mapping[str, tuple[str, ExperimentResult]],
    seed: int | None = None,
    wall_clock_seconds: float | None = None,
) -> dict[str, bytes]:
    """File name -> bytes of a sweep's artifacts, each table written standalone.

    A table's JSON is ``json.dumps(..., indent=2)`` of its payload and its CSV
    :func:`reference_csv`; the companions carry ``<id>_<suffix>`` ids, the
    ``<title> — <what it shows>`` title and no wall-clock time.
    """
    tables = [(dict(meta), result, wall_clock_seconds)]
    for suffix, (shows, table) in companions.items():
        titled = {**meta, "id": f"{meta['id']}_{suffix}", "title": f"{meta['title']} — {shows}"}
        tables.append((titled, table, None))
    files = {}
    for table_meta, table, wall in tables:
        payload = result_payload(table_meta, table, seed, wall)
        text = json.dumps(_sanitize(payload), indent=2, default=_json_default, allow_nan=False)
        files[f"{table_meta['id']}.json"] = (text + "\n").encode("utf-8")
        files[f"{table_meta['id']}.csv"] = reference_csv(table.rows).encode("utf-8")
    return files

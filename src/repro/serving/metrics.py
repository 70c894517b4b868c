"""Latency / throughput metrics for at-scale simulations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def weighted_percentile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values`` under sample ``weights``.

    Inverse of the weighted empirical CDF: the smallest value whose
    cumulative weight reaches ``q`` percent of the total.  Both the router
    and the per-query frontend pool heterogeneous dwell samples (different
    sizes, different per-query weights, possibly ``inf`` mass from saturated
    or shed queries) through this single definition.

    Parameters
    ----------
    values : np.ndarray
        Sample values (``inf`` entries are legal and sort last).
    weights : np.ndarray
        Non-negative sample weights, same shape as ``values``; must sum to
        a positive total.
    q : float
        Percentile in ``[0, 100]``.

    Returns
    -------
    float
        The weighted percentile, possibly ``inf``.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    order = np.argsort(values)
    values = values[order]
    weights = weights[order]
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if total <= 0:
        raise ValueError("weights must sum to a positive total")
    index = int(np.searchsorted(cumulative, (q / 100.0) * total, side="left"))
    return float(values[min(index, values.size - 1)])


@dataclass(frozen=True)
class LatencyReport:
    """Summary of one at-scale simulation run."""

    offered_qps: float
    achieved_qps: float
    num_queries: int
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    max_latency: float
    saturated: bool

    @classmethod
    def from_latencies(
        cls,
        latencies: np.ndarray,
        arrivals: np.ndarray,
        offered_qps: Sequence[float],
        saturated: Sequence[bool],
    ) -> list["LatencyReport"]:
        """One report per load from its kept ``(loads, queries)`` samples.

        Row ``i`` of ``latencies`` and ``arrivals`` is the post-warmup window
        simulated at ``offered_qps[i]``.  All loads are summarized with one
        batched percentile call and axis-1 reductions, each value equal to
        what the same statistic of the row alone would give.  A row's
        makespan runs from its first arrival to its last *completion*,
        ``max(arrival + latency)``: a late arrival can finish on an idle lane
        while an earlier one still queues.
        """
        latencies = np.asarray(latencies, dtype=np.float64)
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if latencies.ndim != 2 or arrivals.shape != latencies.shape:
            raise ValueError("latencies and arrivals must be aligned (loads, queries) matrices")
        loads, num_queries = latencies.shape
        if len(offered_qps) != loads or len(saturated) != loads:
            raise ValueError("need one offered_qps and one saturated flag per load")
        if num_queries == 0:
            raise ValueError("cannot build a report from zero completed queries")
        p50, p95, p99 = np.percentile(latencies, (50, 95, 99), axis=1).tolist()
        spans = (np.max(arrivals + latencies, axis=1) - arrivals[:, 0]).tolist()
        means = latencies.mean(axis=1).tolist()
        peaks = latencies.max(axis=1).tolist()
        return [
            cls(
                offered_qps=offered_qps[i],
                achieved_qps=num_queries / spans[i] if spans[i] > 0 else 0.0,
                num_queries=num_queries,
                mean_latency=means[i],
                p50_latency=p50[i],
                p95_latency=p95[i],
                p99_latency=p99[i],
                max_latency=peaks[i],
                saturated=saturated[i],
            )
            for i in range(loads)
        ]

    def meets_sla(self, sla_seconds: float) -> bool:
        """Whether p99 latency is within the SLA and the system kept up."""
        if sla_seconds <= 0:
            raise ValueError("sla_seconds must be positive")
        return not self.saturated and self.p99_latency <= sla_seconds

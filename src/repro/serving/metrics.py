"""Latency / throughput metrics for at-scale simulations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: The report's percentiles as the quantiles ``np.percentile`` divides them into.
REPORT_QUANTILES = np.array((50, 95, 99)) / 100


def sorted_quantiles(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(x, q, axis=-1)`` (the default linear method) from a sorted ``x``.

    ``ordered`` is ``np.sort(x, axis=-1)``.  numpy partitions a copy of
    ``x`` for the requested indices; one sort serves every index.  The
    arithmetic is numpy's, bit for bit: the virtual index ``(n - 1) * q``,
    its floor and the next index (both indexed ``-1``, the last element,
    where the virtual index reaches ``n - 1``; the ``-1`` enters ``gamma``
    too), ``gamma = virtual - below``, and the lerp ``a + (b - a) *
    gamma``, replaced by ``b - (b - a) * (1 - gamma)`` where ``gamma >=
    0.5``.  A slice holding NaN sorts it last and gets NaN at every
    quantile, as numpy gives.  The result has ``x``'s leading axes and
    ``q`` as its last axis.
    """
    n = ordered.shape[-1]
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= n - 1
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = virtual - below
    a, b = ordered[..., below], ordered[..., above]
    diff = b - a
    quantiles = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=quantiles, where=gamma >= 0.5)
    last = ordered[..., -1:]
    np.copyto(quantiles, last, where=np.isnan(last))
    return quantiles


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


def percentile_is_infinite(
    finite_mass: float, infinite_mass: float, entries: int, q: float
) -> bool:
    """Whether :func:`weighted_percentile` of a pool is provably ``inf`` from its masses.

    The percentile is ``inf`` exactly when the sorted-order running weight up
    to the last finite entry falls below ``q`` percent of the sorted-order
    total, because every finite value sorts before every ``inf``.  A
    sequential sum of ``k`` non-negative floats lies within
    ``gamma(k) = k*u / (1 - k*u)`` of the exact sum (``u = 2**-53``), so
    ``F * (1 + g) < (q/100) * (F + I) * (1 - g)`` with ``g = gamma(2n)``
    proves the result without building or sorting the pool.  The doubled
    count covers both the caller's own sums of the masses and the
    percentile's; 16 more units cover this test's own roundings.  When the
    test declines, the percentile may still be ``inf``: callers then build
    the pool.

    Parameters
    ----------
    finite_mass : float
        Total weight of the pool's finite values: a float sum, in any
        order, of non-negative terms, each within one rounding of the pool
        weights it stands for.
    infinite_mass : float
        Total weight of the pool's ``inf`` values, summed the same way.
    entries : int
        At least the pool's entry count, and at least the number of terms
        in each of the two sums.
    q : float
        Percentile in ``[0, 100]``.

    Returns
    -------
    bool
        ``True`` only if ``weighted_percentile`` of the pool returns ``inf``.
    """
    scaled = (2 * entries + 16) * 2.0**-53
    if not scaled < 0.5:
        return False
    slack = scaled / (1.0 - scaled)
    return finite_mass * (1.0 + slack) < (q / 100.0) * (finite_mass + infinite_mass) * (1.0 - slack)


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
        simulated at ``offered_qps[i]``.  The matrix is sorted once along its
        rows and :func:`sorted_quantiles` reads p50, p95 and p99 off every
        row; with the axis-1 reductions, each value equals what
        ``np.percentile`` and the same statistic of the row alone give.  A row's
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
        p50, p95, p99 = sorted_quantiles(np.sort(latencies, axis=1), REPORT_QUANTILES).T.tolist()
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

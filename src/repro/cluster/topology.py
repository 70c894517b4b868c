"""Cross-node gather latency over PCIe-style interconnect links.

A query executing on its home node must gather the embedding rows that
sharding placed elsewhere.  The model mirrors
:class:`~repro.hardware.pcie.PCIeModel`: a fixed per-hop latency plus
bandwidth serialization of the payload, extended with a per-message
overhead per remote peer.  Remote responses serialize on the home node's
ingress link, so the gather completes when the *last* byte lands — the
max-over-shards critical path the fleet adds to every query's service
time.

An optional :class:`~repro.accel.embedding_cache.EmbeddingCacheConfig`
models a per-node static cache of hot *remote* rows: the Zipf hit rate
(:func:`~repro.data.distributions.approx_zipf_hit_rate`) scales the
expected remote payload down before it is priced on the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accel.embedding_cache import EmbeddingCacheConfig
from repro.cluster.sharding import ShardingPlan
from repro.data.distributions import approx_zipf_hit_rate
from repro.hardware.pcie import PCIeModel

__all__ = [
    "InterconnectLink",
    "gather_seconds",
    "gather_seconds_per_node",
    "remote_cache_hit_rate",
]


@dataclass(frozen=True)
class InterconnectLink:
    """An analytic cluster link, shaped like the PCIe model.

    Parameters
    ----------
    bandwidth_bytes_per_s : float
        Sustained ingress bandwidth of a node's link.
    latency_s : float
        Fixed one-way latency per hop (propagation + switching).
    hops : int
        Switch hops between any two nodes (1: single-switch fabric).
    message_overhead_s : float
        Fixed cost per remote peer contacted (request framing, interrupt).
    """

    bandwidth_bytes_per_s: float = PCIeModel.bandwidth_bytes_per_s
    latency_s: float = PCIeModel.latency_s
    hops: int = 1
    message_overhead_s: float = 2e-6

    def __post_init__(self) -> None:
        """Validate the link parameters."""
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.hops <= 0:
            raise ValueError("hops must be positive")
        if self.message_overhead_s < 0:
            raise ValueError("message_overhead_s must be non-negative")

    def transfer_seconds(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` across the link (0 bytes cost nothing)."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        return self.hops * self.latency_s + num_bytes / self.bandwidth_bytes_per_s


def gather_seconds(link: InterconnectLink, payload_bytes: Sequence[float]) -> float:
    """Critical-path latency of one query's cross-node gather.

    Remote peers are contacted in parallel, but their responses serialize
    on the home node's ingress link, so the gather completes after one
    hop latency, one message overhead per contacted peer, and the *sum*
    of all remote payloads at link bandwidth.  Queries with no remote
    payload gather for free.

    Parameters
    ----------
    link : InterconnectLink
        The fabric between nodes.
    payload_bytes : sequence of float
        Expected bytes fetched from each remote peer (zeros are skipped).

    Returns
    -------
    float
        Gather seconds added to the query's service time.
    """
    payloads = [float(b) for b in payload_bytes if b > 0]
    if not payloads:
        return 0.0
    return (
        link.hops * link.latency_s
        + len(payloads) * link.message_overhead_s
        + sum(payloads) / link.bandwidth_bytes_per_s
    )


def remote_cache_hit_rate(plan: ShardingPlan, home: int, cache: EmbeddingCacheConfig) -> float:
    """Hit rate of a home-node static cache holding the hottest remote rows.

    The cache is sized by the config's static partition and filled with
    the most popular remote rows under the config's Zipf exponent; the
    analytic hit rate follows
    :func:`~repro.data.distributions.approx_zipf_hit_rate`.

    Parameters
    ----------
    plan : ShardingPlan
        The placement that decides which rows are remote.
    home : int
        The caching node.
    cache : EmbeddingCacheConfig
        Per-node cache geometry (static partition holds remote rows).

    Returns
    -------
    float
        Expected fraction of remote lookups served locally, in [0, 1].
    """
    rows_remote = plan.remote_rows(home)
    if rows_remote <= 0:
        return 1.0
    row_bytes = plan.remote_bytes(home) / rows_remote
    cached_rows = cache.static_bytes / row_bytes
    return approx_zipf_hit_rate(int(rows_remote), cached_rows, cache.zipf_alpha)


def gather_seconds_per_node(
    plan: ShardingPlan,
    link: InterconnectLink,
    cache: EmbeddingCacheConfig | None = None,
) -> np.ndarray:
    """Per-home-node expected gather latency of the placement.

    Element ``i`` is the cross-node gather a query pays when it executes
    on node ``i`` under ``plan`` — zero for nodes that hold everything
    they read (single-node plans, or table-wise placements whose queries
    happen to stay local are still charged their expected remote share).
    Each home node reads the plan's per-node aggregates, so pricing a plan
    costs O(nodes²) arithmetic however many shards it holds.

    Parameters
    ----------
    plan : ShardingPlan
        The table placement.
    link : InterconnectLink
        The fabric between nodes.
    cache : EmbeddingCacheConfig, optional
        When set, each node caches its hottest remote rows and the
        expected remote payload shrinks by the cache hit rate.

    Returns
    -------
    np.ndarray
        Gather seconds per home node, shape ``(plan.num_nodes,)``.
    """
    gather = np.zeros(plan.num_nodes, dtype=np.float64)
    for home in range(plan.num_nodes):
        payloads = plan.remote_bytes_per_query(home)
        if cache is not None:
            payloads = payloads * (1.0 - remote_cache_hit_rate(plan, home, cache))
        gather[home] = gather_seconds(link, payloads)
    return gather

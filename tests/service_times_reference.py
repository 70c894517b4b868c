"""Reference implementation the service-time sampler's tier counts are checked against.

:func:`reference_sample_factors` is ``ServiceTimeSampler.sample_factors`` as
it was before the tiers were counted straight from the Zipf uniforms, kept
verbatim in logic: it draws the whole ``(queries, lookups)`` item-id matrix
with ``Generator.choice`` over the Zipf pmf, applies the popularity shift and
compares every id with the tier bounds.

The property suite in ``tests/test_service_times.py`` requires the sampler
to reproduce its factors and all four tallies exactly (``==``).
"""

from __future__ import annotations

import numpy as np

from repro.data.distributions import zipf_probabilities


def reference_sample_factors(sampler, num_queries: int, seed) -> np.ndarray:
    """Draw ids, count tiers per query, update ``sampler``'s tallies, return the factors."""
    cfg = sampler.config
    rng = np.random.default_rng(seed)
    probs = zipf_probabilities(cfg.num_items, cfg.zipf_alpha)
    ranks = rng.choice(cfg.num_items, size=(num_queries, cfg.lookups_per_query), p=probs)
    ids = (ranks + cfg.shift_items) % cfg.num_items
    hit_counts = (ids < cfg.warm_rows).sum(axis=1)
    ssd_counts = (ids >= cfg.dram_rows).sum(axis=1)
    dram_counts = cfg.lookups_per_query - hit_counts - ssd_counts

    sampler.accesses += ids.size
    sampler.hits += int(hit_counts.sum())
    sampler.dram_misses += int(dram_counts.sum())
    sampler.ssd_misses += int(ssd_counts.sum())

    lookup_cost = (
        hit_counts * sampler.hit_seconds
        + dram_counts * sampler.dram_seconds
        + ssd_counts * sampler.ssd_seconds
    ) / cfg.lookups_per_query
    ratio = lookup_cost / sampler.reference_lookup_seconds
    return (1.0 - cfg.embedding_fraction) + cfg.embedding_fraction * ratio

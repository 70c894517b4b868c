"""Power-law (Zipf) utilities.

Embedding-table accesses in production recommendation workloads follow a
power-law: a small set of "hot" rows receives the overwhelming majority of
lookups.  Both the synthetic datasets and the embedding-cache models reuse the
helpers here so that the locality assumptions stay consistent across the
stack.
"""

from __future__ import annotations

import numpy as np


def zipf_probabilities(num_items: int, alpha: float = 1.05) -> np.ndarray:
    """Normalized Zipf probabilities over ``num_items`` ranks.

    Rank 0 is the hottest item.  ``alpha`` controls skew: larger values
    concentrate more probability mass in the head of the distribution.
    """
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


def zipf_sample(
    rng: np.random.Generator,
    num_items: int,
    size: int | tuple[int, ...],
    alpha: float = 1.05,
) -> np.ndarray:
    """Draw Zipf-distributed integer ids in ``[0, num_items)``."""
    probs = zipf_probabilities(num_items, alpha)
    return rng.choice(num_items, size=size, p=probs)


def hit_rate_for_cache(
    num_items: int,
    cached_items: int,
    alpha: float = 1.05,
) -> float:
    """Fraction of Zipf-distributed accesses served by caching the hottest rows.

    This is the analytic hit rate of a static cache that pins the
    ``cached_items`` most popular rows of a table with ``num_items`` rows, the
    policy the paper's static embedding cache uses.
    """
    if cached_items < 0:
        raise ValueError(f"cached_items must be non-negative, got {cached_items}")
    if cached_items == 0:
        return 0.0
    if cached_items >= num_items:
        return 1.0
    probs = zipf_probabilities(num_items, alpha)
    return float(probs[:cached_items].sum())


def approx_zipf_hit_rate(
    num_items: float,
    cached_items: float,
    alpha: float = 1.05,
) -> float:
    """Analytic approximation of :func:`hit_rate_for_cache` for huge tables.

    Production embedding tables hold tens of millions of rows, far too many
    to materialize a probability vector for.  The generalized harmonic number
    ``H(n, alpha)`` is approximated by its integral, which is accurate to a
    few percent for the table sizes and cache fractions the accelerator
    models use.  The approximation goes negative below one row, so a cache
    holding less than one whole row hits nothing (as in
    :func:`hit_rate_for_cache`); the result lies in [0, 1] and is
    non-decreasing in ``cached_items``.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items}")
    if cached_items < 1:
        return 0.0
    if cached_items >= num_items:
        return 1.0
    return _harmonic_approx(cached_items, alpha) / _harmonic_approx(num_items, alpha)


def _harmonic_approx(n: float, alpha: float) -> float:
    """Integral approximation of the generalized harmonic number H(n, alpha)."""
    if abs(alpha - 1.0) < 1e-9:
        return np.log(n) + 0.5772156649  # Euler-Mascheroni constant
    return (n ** (1.0 - alpha) - 1.0) / (1.0 - alpha) + 1.0

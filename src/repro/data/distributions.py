"""Power-law (Zipf) utilities.

Embedding-table accesses in production recommendation workloads follow a
power-law: a small set of "hot" rows receives the overwhelming majority of
lookups.  Both the synthetic datasets and the embedding-cache models reuse the
helpers here so that the locality assumptions stay consistent across the
stack.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def zipf_probabilities(num_items: int, alpha: float = 1.05) -> np.ndarray:
    """Normalized Zipf probabilities over ``num_items`` ranks (read-only, memoized).

    Rank 0 is the hottest item.  ``alpha`` controls skew: larger values
    concentrate more probability mass in the head of the distribution.
    """
    return _zipf_tables(num_items, alpha)[0]


@lru_cache(maxsize=8)
def _zipf_tables(num_items: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only Zipf pmf of ``(num_items, alpha)`` and the CDF sampling inverts.

    The CDF is ``pmf.cumsum()`` divided by its last element, the table
    ``Generator.choice(num_items, p=pmf)`` builds on every call.
    """
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items}")
    if not alpha > 0:  # also rejects NaN, as Generator.choice's pmf check did
        raise ValueError(f"alpha must be positive, got {alpha}")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-alpha
    pmf = weights / weights.sum()
    cdf = pmf.cumsum()
    cdf /= cdf[-1]
    pmf.setflags(write=False)
    cdf.setflags(write=False)
    return pmf, cdf


def zipf_cdf(num_items: int, alpha: float = 1.05) -> np.ndarray:
    """The read-only CDF :func:`zipf_sample` inverts: rank ``r`` has ``cdf[r-1] <= u < cdf[r]``."""
    return _zipf_tables(num_items, alpha)[1]


def zipf_sample(
    rng: np.random.Generator,
    num_items: int,
    size: int | tuple[int, ...],
    alpha: float = 1.05,
) -> np.ndarray:
    """Draw Zipf-distributed integer ids in ``[0, num_items)``.

    Inverts :func:`zipf_cdf` at ``rng.random(size)``: the same uniforms and
    the same search ``rng.choice(num_items, size, p=zipf_probabilities(...))``
    performs, without re-validating and re-summing the pmf per call.
    """
    return zipf_cdf(num_items, alpha).searchsorted(rng.random(size), side="right")


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

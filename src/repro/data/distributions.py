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


#: Passes of one-rank steps :func:`zipf_sample` takes from a draw's guide
#: entry before the draws still short of their rank binary-search the CDF.
ZIPF_GUIDE_STEPS = 4


@lru_cache(maxsize=8)
def _zipf_guide(num_items: int, alpha: float) -> np.ndarray:
    """The read-only guide table of :func:`zipf_cdf`: ``M + 1`` int32 entries,
    ``M`` the smallest power of two at least ``4 * num_items``.

    Entry ``j`` counts the CDF values ``<= j / M``: the rank of every
    uniform in ``[j / M, (j + 1) / M)`` is at least entry ``j`` and at
    most entry ``j + 1``.  ``cdf <= j / M`` holds exactly when
    ``ceil(cdf * M) <= j`` (scaling by a power of two is exact), so the
    table is a cumulative count of those ceilings.  At 200,000 items it
    holds 4 MB, 2.6 times the CDF.
    """
    buckets = 1 << (4 * num_items - 1).bit_length()
    ceilings = np.ceil(zipf_cdf(num_items, alpha) * buckets).astype(np.intp)
    guide = np.bincount(ceilings, minlength=buckets + 1).cumsum().astype(np.int32)
    guide.setflags(write=False)
    return guide


def zipf_sample(
    rng: np.random.Generator,
    num_items: int,
    size: int | tuple[int, ...],
    alpha: float = 1.05,
) -> np.ndarray:
    """Draw Zipf-distributed integer ids in ``[0, num_items)``.

    Inverts :func:`zipf_cdf` at ``rng.random(size)``: each uniform ``u``
    gets the rank ``r`` with ``cdf[r-1] <= u < cdf[r]``, the ids
    ``rng.choice(num_items, size, p=zipf_probabilities(...))`` draws from
    the same uniforms.  The rank is found from the memoized guide table:
    start at the entry of ``u``'s bucket ``floor(u * M)``, step up one rank
    while ``cdf[rank] <= u``, and after :data:`ZIPF_GUIDE_STEPS` passes
    binary-search the CDF for the draws still short, so a draw in a bucket
    spanning many ranks (the tail buckets of a steep ``alpha``) never walks
    through it.
    """
    cdf = zipf_cdf(num_items, alpha)
    guide = _zipf_guide(num_items, alpha)
    uniforms = rng.random(size)
    u = uniforms.reshape(-1)
    ranks = guide[(u * (guide.size - 1)).astype(np.intp)].astype(np.intp)
    short = np.flatnonzero(cdf[ranks] <= u)
    for _ in range(ZIPF_GUIDE_STEPS):
        if not short.size:
            break
        ranks[short] += 1
        short = short[cdf[ranks[short]] <= u[short]]
    if short.size:
        ranks[short] = cdf.searchsorted(u[short], side="right")
    return ranks.reshape(uniforms.shape)


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

"""Stochastic, cache-aware per-query service times.

Deterministic service times make every query cost the same, which no
embedding-dominated serving tier does: lookups follow a Zipf popularity
skew, and each lookup pays a very different price depending on which tier
of the memory hierarchy holds the row (on-chip cache hit, DRAM miss, or
SSD miss).  This module samples per-query service-time *factors* from that
model so the queueing engines in :mod:`repro.serving.engine` can simulate
heterogeneous service without re-deriving the memory system each draw.

The sampler is also the measured-hit-rate feedback loop the capacity layer
was missing: instead of trusting the Zipf closed form
(:func:`repro.data.distributions.hit_rate_for_cache`), every draw counts
actual simulated cache hits and exposes the empirical rate via
:attr:`ServiceTimeSampler.measured_hit_rate`.  Scenario harnesses report
both numbers side by side so drift between the model and the closed form
is visible rather than assumed away.

Model
-----
A query performs ``lookups_per_query`` embedding lookups whose item ranks
are Zipf-distributed over ``num_items`` rows.  Rank ``r`` maps to item id
``(r + shift_items) % num_items`` -- shifting rotates popularity onto
previously-cold rows (the *flashcrowd* scenario).  The tiers:

* **hit** -- id below ``warm_fraction * hot_rows`` (the resident prefix of
  the pinned hot set): pays one on-chip SRAM access.
* **DRAM miss** -- id below ``dram_rows``: pays one DRAM access.
* **SSD miss** -- everything else: pays amortised SSD latency + transfer.

Per-query mean lookup cost is normalised by the *reference* cost of a
fully-warm, unshifted cache so the expected factor is ~1.0 at baseline;
``embedding_fraction`` bounds how much of a stage's service time the
embedding tier can inflate.  Item-id draws depend only on the seed (never
on the cache geometry), so shrinking the cache perturbs *costs* but not
*ids* -- the property the p99-monotonicity tests rely on.

The factors read only each query's tier counts, never the ids.  A lookup's
rank inverts the memoized Zipf CDF at one uniform, so the sampler draws the
uniforms :meth:`ServiceTimeSampler.sample_ids` would invert and counts each
tier with at most four comparisons of them against fixed CDF entries: the
shifted ids below a bound fill at most two rank intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.distributions import (
    hit_rate_for_cache,
    zipf_cdf,
    zipf_probabilities,
    zipf_sample,
)
from repro.hardware.memory import DramModel, SramModel, SsdModel

#: Lookups amortise SSD latency over gathers of this many rows, matching
#: ``SsdScalingModel.backend_gather_seconds``.
SSD_BATCH_ROWS = 64


@dataclass(frozen=True)
class CachedServiceConfig:
    """Parameters of the tiered cache/SSD service-time model.

    Parameters
    ----------
    num_items : int
        Total embedding rows in the table (Zipf support size).
    hot_rows : int
        Rows pinned to the on-chip cache when fully warm.
    dram_rows : int
        Rows resident in DRAM (a superset of the hot set); ids at or
        beyond this index spill to SSD.
    zipf_alpha : float
        Zipf popularity exponent of the lookup stream.
    lookups_per_query : int
        Embedding lookups each query performs (sparse features).
    embedding_fraction : float
        Fraction of a stage's deterministic service time attributable to
        the embedding tier, i.e. the share the cache model may inflate.
    row_bytes : int
        Bytes fetched per lookup.
    shift_items : int
        Rotate popularity rank ``r`` onto item ``(r + shift_items) %
        num_items``; a non-zero shift lands the hot head on cold rows.
    warm_fraction : float
        Fraction of ``hot_rows`` currently resident on chip (1.0 = fully
        warm, 0.0 = a just-reset cache).
    """

    num_items: int = 200_000
    hot_rows: int = 20_000
    dram_rows: int = 150_000
    zipf_alpha: float = 1.05
    lookups_per_query: int = 26
    embedding_fraction: float = 0.35
    row_bytes: int = 128
    shift_items: int = 0
    warm_fraction: float = 1.0

    def __post_init__(self) -> None:
        """Validate tier geometry and fractions."""
        if self.num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {self.num_items}")
        if not 0 <= self.hot_rows <= self.dram_rows:
            raise ValueError(
                f"need 0 <= hot_rows <= dram_rows, got {self.hot_rows} vs {self.dram_rows}"
            )
        if self.dram_rows > self.num_items:
            raise ValueError(
                f"dram_rows must be <= num_items, got {self.dram_rows} vs {self.num_items}"
            )
        if self.zipf_alpha <= 0:
            raise ValueError(f"zipf_alpha must be positive, got {self.zipf_alpha}")
        if self.lookups_per_query < 1:
            raise ValueError(f"lookups_per_query must be >= 1, got {self.lookups_per_query}")
        if not 0.0 <= self.embedding_fraction <= 1.0:
            raise ValueError(
                f"embedding_fraction must be in [0, 1], got {self.embedding_fraction}"
            )
        if self.row_bytes < 1:
            raise ValueError(f"row_bytes must be >= 1, got {self.row_bytes}")
        if self.shift_items < 0:
            raise ValueError(f"shift_items must be >= 0, got {self.shift_items}")
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise ValueError(f"warm_fraction must be in [0, 1], got {self.warm_fraction}")

    @property
    def warm_rows(self) -> int:
        """Rows of the pinned hot set currently resident on chip."""
        return int(self.warm_fraction * self.hot_rows)

    @property
    def analytic_hit_rate(self) -> float:
        """Zipf closed-form hit rate of the resident prefix (no shift)."""
        return hit_rate_for_cache(self.num_items, self.warm_rows, self.zipf_alpha)


#: ``--service-model`` choices: name -> service config (None = deterministic).
SERVICE_MODELS: dict[str, CachedServiceConfig | None] = {
    "deterministic": None,
    "cached": CachedServiceConfig(),
}


@dataclass
class ServiceTimeSampler:
    """Draw per-query service factors and count simulated cache hits.

    One sampler accumulates hit/miss tallies across every draw it serves,
    so :attr:`measured_hit_rate` converges to the stream's empirical hit
    frequency -- the feedback signal that replaces the Zipf closed form in
    scenario reporting.

    Parameters
    ----------
    config : CachedServiceConfig
        Tier geometry and popularity model.
    sram, dram, ssd : SramModel, DramModel, SsdModel
        Hardware cost models for the three tiers.
    """

    config: CachedServiceConfig
    sram: SramModel = field(default_factory=SramModel)
    dram: DramModel = field(default_factory=DramModel)
    ssd: SsdModel = field(default_factory=SsdModel)
    accesses: int = field(default=0, init=False)
    hits: int = field(default=0, init=False)
    dram_misses: int = field(default=0, init=False)
    ssd_misses: int = field(default=0, init=False)

    @property
    def hit_seconds(self) -> float:
        """Cost of one on-chip lookup (SRAM access at core frequency)."""
        return self.sram.access_cycles(self.config.row_bytes) / self.dram.frequency_hz

    @property
    def dram_seconds(self) -> float:
        """Cost of one DRAM-resident lookup."""
        return self.dram.access_seconds(self.config.row_bytes)

    @property
    def ssd_seconds(self) -> float:
        """Cost of one SSD lookup, latency amortised over a gather batch."""
        return (
            self.ssd.latency_s / SSD_BATCH_ROWS
            + self.config.row_bytes / self.ssd.bandwidth_bytes_per_s
        )

    @property
    def reference_lookup_seconds(self) -> float:
        """Expected lookup cost of a fully-warm, unshifted cache.

        Normalising per-query costs by this value keeps the expected
        service factor at ~1.0 for the baseline configuration, so a
        cached model neither speeds up nor slows down a warm steady state
        relative to the deterministic engine.
        """
        cfg = self.config
        probs = zipf_probabilities(cfg.num_items, cfg.zipf_alpha)
        p_hit = float(probs[: cfg.hot_rows].sum())
        p_dram = float(probs[cfg.hot_rows : cfg.dram_rows].sum())
        p_ssd = 1.0 - p_hit - p_dram
        return p_hit * self.hit_seconds + p_dram * self.dram_seconds + p_ssd * self.ssd_seconds

    @property
    def measured_hit_rate(self) -> float:
        """Empirical hit frequency over every lookup simulated so far."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def sample_ids(self, num_queries: int, seed: int | np.integer) -> np.ndarray:
        """Draw the ``(num_queries, lookups_per_query)`` item-id matrix.

        Ids depend only on the popularity model and the seed -- never on
        the cache geometry -- so two configs differing only in
        ``hot_rows``/``warm_fraction`` see identical access streams.
        """
        cfg = self.config
        rng = np.random.default_rng(seed)
        ranks = zipf_sample(rng, cfg.num_items, (num_queries, cfg.lookups_per_query), cfg.zipf_alpha)
        return (ranks + cfg.shift_items) % cfg.num_items

    def sample_factors(self, num_queries: int, seed: int | np.integer) -> np.ndarray:
        """Draw per-query service factors, updating the hit tallies.

        The tiers are counted from the uniforms :meth:`sample_ids` would
        invert, without building ids (:meth:`_count_below`), so factors and
        tallies equal those of the id matrix.

        Returns
        -------
        numpy.ndarray
            Shape ``(num_queries,)`` multiplicative factors: the
            non-embedding share passes through unchanged while the
            embedding share scales with the query's mean lookup cost
            relative to the warm-cache reference.
        """
        cfg = self.config
        uniforms = np.random.default_rng(seed).random((num_queries, cfg.lookups_per_query))
        hit_counts = self._count_below(uniforms, cfg.warm_rows)
        ssd_counts = cfg.lookups_per_query - self._count_below(uniforms, cfg.dram_rows)
        dram_counts = cfg.lookups_per_query - hit_counts - ssd_counts

        self.accesses += uniforms.size
        self.hits += int(hit_counts.sum())
        self.dram_misses += int(dram_counts.sum())
        self.ssd_misses += int(ssd_counts.sum())

        lookup_cost = (
            hit_counts * self.hit_seconds
            + dram_counts * self.dram_seconds
            + ssd_counts * self.ssd_seconds
        ) / cfg.lookups_per_query
        ratio = lookup_cost / self.reference_lookup_seconds
        return (1.0 - cfg.embedding_fraction) + cfg.embedding_fraction * ratio

    def _count_below(self, uniforms: np.ndarray, bound: int) -> np.ndarray:
        """Per query, the lookups whose item id is below ``bound``.

        A lookup's rank is ``cdf.searchsorted(u, side="right")`` over
        :func:`~repro.data.distributions.zipf_cdf`, so rank ``>= a`` exactly
        when ``u >= cdf[a - 1]``.  With ``s = shift_items % num_items``, the
        id ``(rank + s) % num_items`` is below ``bound`` on the rank
        intervals ``[0, bound - s)`` and ``[n - s, n - s + min(bound, s))``,
        so the count takes at most four comparisons per lookup.
        """
        cfg = self.config
        n = cfg.num_items
        shift = cfg.shift_items % n
        cdf = zipf_cdf(n, cfg.zipf_alpha)

        def at_least(rank: int) -> np.ndarray:
            """Lookups per query whose rank is at least ``rank`` (``1 <= rank``)."""
            return np.count_nonzero(uniforms >= cdf[rank - 1], axis=1)

        counts = np.zeros(uniforms.shape[0], dtype=np.int64)
        for lo, hi in ((0, bound - shift), (n - shift, n - shift + min(bound, shift))):
            if hi > lo:
                counts += uniforms.shape[1] if lo == 0 else at_least(lo)
                counts -= at_least(hi)
        return counts


def sampled_service(
    plan,
    config: CachedServiceConfig,
    num_queries: int,
    seed: int | np.integer,
    sampler: ServiceTimeSampler | None = None,
) -> np.ndarray:
    """Per-stage, per-query service-time matrix for ``plan``.

    Every stage of the pipeline shares one factor draw per query (the
    embedding tier is a shared resource), scaled by the stage's
    deterministic service time.

    Parameters
    ----------
    plan : repro.serving.resources.ServingPlan
        The compiled plan whose stages supply base service times.
    config : CachedServiceConfig
        Tier geometry and popularity model.
    num_queries : int
        Queries to draw.
    seed : int or numpy.integer
        Seed for the id draw (derive it from the arrival seed with
        :func:`repro.serving.engine.service_seed` to keep the streams
        independent).
    sampler : ServiceTimeSampler, optional
        Reuse an existing sampler so its hit tallies keep accumulating.

    Returns
    -------
    numpy.ndarray
        Shape ``(num_stages, num_queries)`` service seconds.
    """
    if sampler is None:
        sampler = ServiceTimeSampler(config)
    factors = sampler.sample_factors(num_queries, seed)
    base = np.array([stage.service_seconds for stage in plan.stages], dtype=np.float64)
    return base[:, None] * factors[None, :]

"""Synthetic MovieLens-like ranking queries (1M and 20M presets).

MovieLens is a user/item rating dataset.  The paper trains neural matrix
factorization (NeuMF) models on it and serves ranking queries where a user's
candidate movie pool is scored and the top items returned.  Here NeuMF is a
set of :class:`~repro.models.zoo.ModelSpec` entries (a paper-scale cost and a
``score_noise``), so the generator produces ranking queries only, no
training data.  It plants per-user and per-item latent factors so that the
preference structure is low-rank plus noise -- exactly the structure NeuMF
is designed to recover -- and grades each candidate's relevance from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.data.datasets import (
    RankingQuery,
    calibrate_bias,
    combine_logits,
    grade_relevance,
)

#: Candidates per ranking query: MovieLens's default 1,024-movie pool (its
#: catalogues are smaller than Criteo's).
CANDIDATES_PER_QUERY = 1024
#: Per-query preference quantiles at which relevance grades 1..4 start.
RELEVANCE_QUANTILES = (0.50, 0.80, 0.93, 0.99)


@dataclass(frozen=True)
class MovieLensConfig:
    """Configuration of the synthetic MovieLens generator."""

    num_users: int = 2000
    num_items: int = 1200
    latent_dim: ClassVar[int] = 8
    positive_rate: ClassVar[float] = 0.45
    seed: int = 1997

    @staticmethod
    def ml_1m() -> "MovieLensConfig":
        """Preset mirroring MovieLens-1M's relative scale (scaled down)."""
        return MovieLensConfig(num_users=2000, num_items=1200, seed=1997)

    @staticmethod
    def ml_20m() -> "MovieLensConfig":
        """Preset mirroring MovieLens-20M's relative scale (scaled down)."""
        return MovieLensConfig(num_users=6000, num_items=4000, seed=2015)


@dataclass
class MovieLensSynthetic:
    """Synthetic MovieLens-like dataset and ranking-query generator."""

    config: MovieLensConfig = field(default_factory=MovieLensConfig.ml_1m)
    name: str = "movielens-synthetic"

    def __post_init__(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._user_latents = rng.standard_normal((cfg.num_users, cfg.latent_dim))
        self._item_latents = rng.standard_normal((cfg.num_items, cfg.latent_dim))
        self._user_bias = rng.standard_normal(cfg.num_users) * 0.2
        self._item_bias = rng.standard_normal(cfg.num_items) * 0.2
        self._bias = self._calibrate_bias(rng)

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #
    def true_preference(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Ground-truth probability a user positively rates an item."""
        return combine_logits(self._bias, self._logit_terms(users, items))

    def _logit_terms(
        self, users: np.ndarray, items: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bias-free logit terms: latent dot product, user bias, item bias."""
        dot = np.einsum(
            "bk,bk->b",
            self._user_latents[users],
            self._item_latents[items],
        ) / np.sqrt(self.config.latent_dim)
        return dot, self._user_bias[users], self._item_bias[items]

    def _calibrate_bias(self, rng: np.random.Generator) -> float:
        """Choose the logit bias so the marginal positive rate matches config.

        The bias-free logit terms of a 4096-pair calibration sample are
        computed once; each bisection step of
        :func:`~repro.data.datasets.calibrate_bias` only adds the candidate
        bias and applies the sigmoid, in the same order
        :meth:`true_preference` does, so the result is bit-equal to a
        bisection over full :meth:`true_preference` evaluations.
        """
        users = rng.integers(0, self.config.num_users, size=4096)
        items = rng.integers(0, self.config.num_items, size=4096)
        terms = self._logit_terms(users, items)
        return calibrate_bias(
            lambda bias: float(combine_logits(bias, terms).mean()), self.config.positive_rate
        )

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_ranking_queries(
        self,
        num_queries: int,
        candidates_per_query: int = CANDIDATES_PER_QUERY,
        seed: int | None = None,
    ) -> list[RankingQuery]:
        """Draw per-user ranking queries over candidate item pools."""
        if num_queries <= 0 or candidates_per_query <= 0:
            raise ValueError("num_queries and candidates_per_query must be positive")
        cfg = self.config
        if candidates_per_query > cfg.num_items:
            raise ValueError(
                f"candidates_per_query ({candidates_per_query}) exceeds the item "
                f"catalogue size ({cfg.num_items})"
            )
        rng = np.random.default_rng(cfg.seed + 13 if seed is None else seed)
        queries = []
        for q in range(num_queries):
            user = int(rng.integers(0, cfg.num_users))
            items = rng.choice(cfg.num_items, size=candidates_per_query, replace=False)
            users = np.full(candidates_per_query, user, dtype=np.int64)
            prefs = self.true_preference(users, items)
            relevance = grade_relevance(prefs, RELEVANCE_QUANTILES)
            queries.append(RankingQuery(query_id=q, relevance=relevance))
        return queries

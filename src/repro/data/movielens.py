"""Synthetic MovieLens-like interaction datasets (1M and 20M presets).

MovieLens is a user/item rating dataset.  The paper trains neural matrix
factorization (NeuMF) models on it and serves ranking queries where a user's
candidate movie pool is scored and the top items returned.  The synthetic
generator plants per-user and per-item latent factors so that the rating
structure is low-rank plus noise -- exactly the structure NeuMF is designed to
recover -- and uses a long-tail item popularity so the embedding locality
differs from Criteo (more MLP-dominated, smaller tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.data.datasets import (
    CTRBatch,
    Dataset,
    RankingQuery,
    calibrate_bias,
    combine_logits,
    grade_relevance,
    split_dataset,
)
from repro.data.distributions import zipf_sample

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
    zipf_alpha: ClassVar[float] = 0.9
    positive_rate: ClassVar[float] = 0.45
    noise_std: ClassVar[float] = 0.25
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
    def sample_ctr_batch(self, n: int, seed: int | None = None) -> CTRBatch:
        """Draw ``n`` labelled (user, item) interaction samples.

        The "dense" feature block is a single popularity scalar (NeuMF's
        inputs are almost entirely the two id embeddings); sparse features are
        ``[user_id, item_id]``.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1 if seed is None else seed)
        users = rng.integers(0, cfg.num_users, size=n)
        items = zipf_sample(rng, cfg.num_items, n, alpha=cfg.zipf_alpha)
        prefs = self.true_preference(users, items)
        noisy = np.clip(prefs + rng.standard_normal(n) * cfg.noise_std * 0.1, 0.0, 1.0)
        labels = (rng.uniform(size=n) < noisy).astype(np.float64)
        popularity = np.log1p(items.astype(np.float64) + 1.0).reshape(-1, 1)
        popularity = (popularity - popularity.mean()) / (popularity.std() + 1e-9)
        sparse = np.stack([users, items], axis=1).astype(np.int64)
        return CTRBatch(dense=popularity, sparse=sparse, labels=labels)

    def build_dataset(
        self,
        num_train: int = 8192,
        num_test: int = 2048,
        seed: int | None = None,
    ) -> Dataset:
        table_sizes = [self.config.num_users, self.config.num_items]
        return split_dataset(self, num_train, num_test, seed, 1, table_sizes)

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
            popularity = np.log1p(items.astype(np.float64) + 1.0).reshape(-1, 1)
            popularity = (popularity - popularity.mean()) / (popularity.std() + 1e-9)
            sparse = np.stack([users, items], axis=1).astype(np.int64)
            queries.append(
                RankingQuery(
                    query_id=q, dense=popularity, sparse=sparse, relevance=relevance
                )
            )
        return queries

"""Synthetic Criteo-like click-through-rate dataset.

The real Criteo Kaggle dataset has 13 continuous and 26 categorical features
and ~45M rows.  The synthetic generator here preserves what the paper's
experiments depend on:

* a learnable, non-linear ground-truth CTR function where increasing model
  capacity (embedding dimension, MLP depth/width) measurably lowers test
  error -- this is what makes the Table 1 / Figure 2 Pareto frontier exist;
* power-law (Zipf) categorical value popularity -- this drives the embedding
  cache hit rates in :mod:`repro.accel.embedding_cache`;
* ranking queries with thousands of candidate items and sparse graded
  relevance -- this is what NDCG and the multi-stage funnel operate on.
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

#: Criteo's continuous (dense) features and categorical features, one
#: embedding table each: the workload every Criteo model, plan and payload
#: is sized for.
NUM_DENSE_FEATURES = 13
NUM_TABLES = 26
#: Candidates per ranking query: the paper's 4,096-item Criteo pool.
CANDIDATES_PER_QUERY = 4096
#: Candidates per query of the routed workloads (``recpipe route``, the
#: capacity planner): a 512-item pool, ranked whole by their first stage.
ROUTING_CANDIDATES_PER_QUERY = 512

#: Per-query CTR quantiles at which relevance grades 1..4 start: most
#: candidates are irrelevant and a small head highly relevant.
RELEVANCE_QUANTILES = (0.60, 0.85, 0.95, 0.99)


@dataclass(frozen=True)
class CriteoConfig:
    """Configuration of the synthetic Criteo generator.

    The defaults are scaled down from the real dataset so the full test and
    benchmark suite runs in seconds, but every structural property (feature
    counts, skew, label sparsity) matches the original.
    """

    num_dense: ClassVar[int] = NUM_DENSE_FEATURES
    num_tables: ClassVar[int] = NUM_TABLES
    table_size: int = 2000
    zipf_alpha: ClassVar[float] = 1.05
    positive_rate: float = 0.26
    latent_dim: ClassVar[int] = 8
    noise_std: ClassVar[float] = 0.35
    seed: int = 2021
    table_sizes_override: tuple[int, ...] | None = None

    def table_sizes(self) -> list[int]:
        if self.table_sizes_override is not None:
            return list(self.table_sizes_override)
        return [self.table_size] * self.num_tables


@dataclass
class CriteoSynthetic:
    """Synthetic Criteo-like CTR dataset and ranking-query generator."""

    config: CriteoConfig = field(default_factory=CriteoConfig)
    name: str = "criteo-kaggle-synthetic"

    def __post_init__(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        sizes = cfg.table_sizes()
        # Hidden per-category latent factors defining the ground-truth CTR.
        self._latents = [
            rng.standard_normal((rows, cfg.latent_dim)) / np.sqrt(cfg.latent_dim)
            for rows in sizes
        ]
        self._dense_weights = rng.standard_normal(cfg.num_dense) / np.sqrt(cfg.num_dense)
        self._interaction = rng.standard_normal((cfg.latent_dim, cfg.latent_dim)) * 0.5
        self._dense_cross = rng.standard_normal((cfg.num_dense, cfg.latent_dim)) * 0.3
        self._bias = self._calibrate_bias(rng)

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #
    def true_ctr(self, dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        """Ground-truth click probability for each (dense, sparse) row.

        The function mixes a linear dense term, a bilinear interaction between
        the summed categorical latents, and a dense-categorical cross term --
        enough non-linearity that small models underfit and large ones do not.
        """
        return combine_logits(self._bias, self._logit_terms(dense, sparse))

    def _logit_terms(
        self, dense: np.ndarray, sparse: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bias-free logit terms: linear, ``0.5·tanh(bilinear)``, ``0.5·tanh(cross)``."""
        latent_sum = self._sum_latents(sparse)
        linear = dense @ self._dense_weights
        bilinear = np.einsum("bi,ij,bj->b", latent_sum, self._interaction, latent_sum)
        cross = np.einsum("bd,dk,bk->b", dense, self._dense_cross, latent_sum)
        return linear, 0.5 * np.tanh(bilinear), 0.5 * np.tanh(cross)

    def _sum_latents(self, sparse: np.ndarray) -> np.ndarray:
        total = np.zeros((sparse.shape[0], self.config.latent_dim))
        for t in range(self.config.num_tables):
            total += self._latents[t][sparse[:, t]]
        return total / np.sqrt(self.config.num_tables)

    def _calibrate_bias(self, rng: np.random.Generator) -> float:
        """Choose the logit bias so the marginal positive rate matches config.

        The bias-free logit terms of a 4096-row calibration sample are
        computed once; each bisection step of
        :func:`~repro.data.datasets.calibrate_bias` only adds the candidate
        bias and applies the sigmoid, in the same order :meth:`true_ctr`
        does, so the result equals a bisection over full :meth:`true_ctr`
        evaluations bit for bit.
        """
        dense, sparse = self._sample_features(rng, 4096)
        terms = self._logit_terms(dense, sparse)
        return calibrate_bias(
            lambda bias: float(combine_logits(bias, terms).mean()), self.config.positive_rate
        )

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _sample_features(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        dense = rng.standard_normal((n, cfg.num_dense))
        sizes = cfg.table_sizes()
        sparse = np.empty((n, cfg.num_tables), dtype=np.int64)
        for t in range(cfg.num_tables):
            sparse[:, t] = zipf_sample(rng, sizes[t], n, alpha=cfg.zipf_alpha)
        return dense, sparse

    def sample_ctr_batch(self, n: int, seed: int | None = None) -> CTRBatch:
        """Draw ``n`` labelled CTR samples."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        rng = np.random.default_rng(self.config.seed + 1 if seed is None else seed)
        dense, sparse = self._sample_features(rng, n)
        ctr = self.true_ctr(dense, sparse)
        noisy = np.clip(ctr + rng.standard_normal(n) * self.config.noise_std * 0.1, 0.0, 1.0)
        labels = (rng.uniform(size=n) < noisy).astype(np.float64)
        return CTRBatch(dense=dense, sparse=sparse, labels=labels)

    def build_dataset(
        self,
        num_train: int = 8192,
        num_test: int = 2048,
        seed: int | None = None,
    ) -> Dataset:
        """Build a train/test CTR dataset sized for fast experimentation."""
        return split_dataset(
            self, num_train, num_test, seed, self.config.num_dense, self.config.table_sizes()
        )

    def sample_ranking_queries(
        self,
        num_queries: int,
        candidates_per_query: int = CANDIDATES_PER_QUERY,
        seed: int | None = None,
    ) -> list[RankingQuery]:
        """Draw serving-time queries with a candidate pool each.

        Relevance is graded: the ground-truth CTR of each candidate is mapped
        onto an integer 0..4 scale (most candidates irrelevant, a small head
        highly relevant), matching the sparse-relevance structure the paper
        exploits when small frontends can safely discard most candidates.
        """
        if num_queries <= 0 or candidates_per_query <= 0:
            raise ValueError("num_queries and candidates_per_query must be positive")
        rng = np.random.default_rng(self.config.seed + 13 if seed is None else seed)
        queries = []
        for q in range(num_queries):
            dense, sparse = self._sample_features(rng, candidates_per_query)
            ctr = self.true_ctr(dense, sparse)
            relevance = grade_relevance(ctr, RELEVANCE_QUANTILES)
            queries.append(
                RankingQuery(query_id=q, dense=dense, sparse=sparse, relevance=relevance)
            )
        return queries

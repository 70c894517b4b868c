"""Workload-level quality evaluation with memoization.

The RecPipe scheduler sweeps thousands of multi-stage configurations; each
configuration's quality is the mean NDCG over a workload of ranking queries.
:class:`QualityEvaluator` owns the query workload, evaluates configurations
reproducibly (each configuration gets its own deterministic RNG stream), and
memoizes results so repeated sweeps are cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.data.datasets import RankingQuery
from repro.quality.funnel import SERVE_K_DEFAULT, FunnelStage, simulate_funnel

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineConfig


class QualityEvaluator:
    """Mean NDCG of a multi-stage funnel over a fixed query workload."""

    def __init__(self, queries: Sequence[RankingQuery], seed: int = 0) -> None:
        if not queries:
            raise ValueError("the evaluator needs at least one query")
        self.queries = list(queries)
        self.seed = seed
        self._cache: dict[tuple, float] = {}

    @property
    def pool_size(self) -> int:
        """Number of candidates in each query's pool (minimum across queries)."""
        return min(q.num_candidates for q in self.queries)

    def evaluate(
        self,
        stages: Sequence[FunnelStage],
        sub_batches: int = 1,
        serve_k: int = SERVE_K_DEFAULT,
    ) -> float:
        """Mean NDCG@``serve_k`` (percent) of the funnel configuration over the workload."""
        key = self._cache_key(stages, sub_batches, serve_k)
        if key in self._cache:
            return self._cache[key]
        total = 0.0
        for q_index, query in enumerate(self.queries):
            rng = np.random.default_rng((self.seed, q_index, hash(key) & 0xFFFFFFFF))
            total += simulate_funnel(
                query.relevance,
                stages,
                rng,
                serve_k=serve_k,
                sub_batches=sub_batches,
            )
        result = total / len(self.queries)
        self._cache[key] = result
        return result

    def evaluate_pipeline(self, pipeline: PipelineConfig) -> float:
        """Quality of a pipeline: mean NDCG@``pipeline.serve_k`` of its funnel."""
        return self.evaluate(pipeline.funnel_stages(), serve_k=pipeline.serve_k)

    def evaluate_single_stage(self, score_noise: float, num_items: int) -> float:
        """Convenience wrapper for a one-stage funnel."""
        return self.evaluate([FunnelStage(score_noise=score_noise, num_items=num_items)])

    def quality_table(
        self,
        noise_levels: dict[str, float],
        item_counts: Sequence[int],
    ) -> dict[tuple[str, int], float]:
        """NDCG for every (model, items-ranked) pair -- the data behind Fig. 3."""
        table: dict[tuple[str, int], float] = {}
        for model_name, noise in noise_levels.items():
            for num_items in item_counts:
                table[(model_name, num_items)] = self.evaluate_single_stage(noise, num_items)
        return table

    def _cache_key(self, stages: Sequence[FunnelStage], sub_batches: int, serve_k: int) -> tuple:
        # The tuple's order seeds each funnel's noise (``hash(key)``).
        return (
            tuple((round(s.score_noise, 6), s.num_items) for s in stages),
            serve_k,
            sub_batches,
        )

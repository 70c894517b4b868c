"""Multi-stage ranking-funnel simulation.

A funnel is a sequence of stages.  Stage ``i`` receives a candidate list,
scores every candidate with its model, and forwards only the top
``stages[i+1].num_items`` candidates to the next stage; the last stage's top
``serve_k`` items are served to the user.  Quality is the NDCG of the served
list measured against the ideal ordering of the *full* candidate pool, so
both ranking fewer candidates and using a less accurate model reduce quality.

Model fidelity is represented by ``score_noise``: the stage's predicted score
for a candidate is its ground-truth relevance (normalized to [0, 1]) plus
Gaussian noise of that standard deviation.  The zoo (:mod:`repro.models.zoo`)
assigns each Pareto-optimal model a noise level consistent with its published
test error, so the funnel prices every model, DLRM or NeuMF, without a
trained instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.quality.metrics import ndcg_percent

SERVE_K_DEFAULT = 64


@dataclass(frozen=True)
class FunnelStage:
    """One stage of a ranking funnel.

    Attributes:
        score_noise: standard deviation of this stage's scoring error
            (smaller = more accurate model).
        num_items: number of candidates this stage ranks.  The first stage's
            value selects how many items are pulled from the query's candidate
            pool; later stages must rank at most what the previous stage kept.
    """

    score_noise: float
    num_items: int

    def __post_init__(self) -> None:
        if not 0 <= self.score_noise < math.inf:  # NaN fails both bounds
            raise ValueError(f"score_noise must be non-negative and finite, got {self.score_noise}")
        if self.num_items <= 0:
            raise ValueError(f"num_items must be positive, got {self.num_items}")


def _validate_stages(stages: Sequence[FunnelStage]) -> None:
    if not stages:
        raise ValueError("a funnel needs at least one stage")
    for prev, cur in zip(stages, stages[1:]):
        if cur.num_items > prev.num_items:
            raise ValueError(
                "stages must rank progressively fewer items: "
                f"{cur.num_items} follows {prev.num_items}"
            )


def _normalized_relevance(relevance: np.ndarray) -> np.ndarray:
    max_rel = relevance.max() if relevance.size else 0.0
    if max_rel <= 0:
        return np.zeros_like(relevance)
    return relevance / max_rel


def simulate_funnel(
    relevance_pool: np.ndarray,
    stages: Sequence[FunnelStage],
    rng: np.random.Generator,
    serve_k: int = SERVE_K_DEFAULT,
    sub_batches: int = 1,
) -> float:
    """Simulate one query through the funnel and return NDCG (percent).

    ``sub_batches`` models RPAccel's query splitting (Takeaway 4): each
    *intermediate* filtering step processes its candidates in ``sub_batches``
    independent chunks and keeps the top ``k / sub_batches`` from each chunk,
    stitching the survivors together.  This slightly degrades quality
    relative to globally selecting the top ``k``.  The final served list is
    always a global top-``serve_k`` over the last stage's scores (the last
    stage's outputs are complete before anything is served).
    """
    _validate_stages(stages)
    if serve_k <= 0:
        raise ValueError(f"serve_k must be positive, got {serve_k}")
    if sub_batches <= 0:
        raise ValueError(f"sub_batches must be positive, got {sub_batches}")

    relevance_pool = np.asarray(relevance_pool, dtype=np.float64)
    pool_size = relevance_pool.shape[0]
    normalized = _normalized_relevance(relevance_pool)

    first_n = min(stages[0].num_items, pool_size)
    candidate_idx = rng.permutation(pool_size)[:first_n]

    for i, stage in enumerate(stages):
        num_rank = min(stage.num_items, candidate_idx.shape[0])
        candidate_idx = candidate_idx[:num_rank]
        scores = normalized[candidate_idx] + rng.normal(
            0.0, stage.score_noise, size=candidate_idx.shape[0]
        )
        if i + 1 < len(stages):
            keep = min(stages[i + 1].num_items, candidate_idx.shape[0])
            chunks = sub_batches
        else:
            keep = min(serve_k, candidate_idx.shape[0])
            chunks = 1
        candidate_idx = _select_top(candidate_idx, scores, keep, chunks)

    served_relevance = relevance_pool[candidate_idx][:serve_k]
    return ndcg_percent(served_relevance, relevance_pool, serve_k)


def _select_top(
    candidate_idx: np.ndarray,
    scores: np.ndarray,
    keep: int,
    sub_batches: int,
) -> np.ndarray:
    """Keep the top-``keep`` candidates by score, optionally per sub-batch.

    With ``sub_batches > 1`` the candidates are split into equal chunks and
    the top ``keep / sub_batches`` of each chunk survive (RPAccel's stitched
    top-k), otherwise a global top-``keep`` selection is used.  The survivors
    are returned sorted by descending score.
    """
    n = candidate_idx.shape[0]
    if keep >= n:
        order = np.argsort(scores)[::-1]
        return candidate_idx[order]
    if sub_batches <= 1 or sub_batches >= n:
        order = np.argsort(scores)[::-1][:keep]
        return candidate_idx[order]

    chunks = np.array_split(np.arange(n), sub_batches)
    per_chunk = max(1, keep // sub_batches)
    survivors: list[np.ndarray] = []
    survivor_scores: list[np.ndarray] = []
    for chunk in chunks:
        if chunk.size == 0:
            continue
        chunk_scores = scores[chunk]
        top = chunk[np.argsort(chunk_scores)[::-1][:per_chunk]]
        survivors.append(top)
        survivor_scores.append(scores[top])
    merged = np.concatenate(survivors)
    merged_scores = np.concatenate(survivor_scores)
    order = np.argsort(merged_scores)[::-1][:keep]
    return candidate_idx[merged[order]]

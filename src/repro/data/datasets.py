"""Dataset containers shared by the synthetic Criteo and MovieLens generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nn.loss import sigmoid


@dataclass
class CTRBatch:
    """A batch of click-through-rate training samples.

    Attributes:
        dense: continuous features, shape ``(batch, num_dense)``.
        sparse: one categorical index per embedding table,
            shape ``(batch, num_tables)``.
        labels: binary click labels in ``{0, 1}``, shape ``(batch,)``.
    """

    dense: np.ndarray
    sparse: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.dense.ndim != 2:
            raise ValueError(f"dense features must be 2-D, got shape {self.dense.shape}")
        if self.sparse.ndim != 2:
            raise ValueError(f"sparse features must be 2-D, got shape {self.sparse.shape}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        n = self.dense.shape[0]
        if self.sparse.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError(
                "dense, sparse and labels must share the batch dimension: "
                f"{self.dense.shape[0]}, {self.sparse.shape[0]}, {self.labels.shape[0]}"
            )

    def __len__(self) -> int:
        return self.dense.shape[0]

    def take(self, indices: np.ndarray) -> "CTRBatch":
        """Return a new batch restricted to ``indices``."""
        return CTRBatch(
            dense=self.dense[indices],
            sparse=self.sparse[indices],
            labels=self.labels[indices],
        )


@dataclass
class RankingQuery:
    """A single serving-time query: one user, a pool of candidate items.

    The multi-stage funnel ranks the candidates; ``relevance`` holds the
    ground-truth graded relevance used for NDCG.  ``dense``/``sparse`` are the
    model inputs for every (user, candidate) pair, one row per candidate.
    """

    query_id: int
    dense: np.ndarray
    sparse: np.ndarray
    relevance: np.ndarray

    def __post_init__(self) -> None:
        n = self.dense.shape[0]
        if self.sparse.shape[0] != n or self.relevance.shape[0] != n:
            raise ValueError("dense, sparse and relevance must share the candidate dimension")
        if n == 0:
            raise ValueError("a ranking query must contain at least one candidate")

    @property
    def num_candidates(self) -> int:
        return self.dense.shape[0]

    def subset(self, indices: np.ndarray) -> "RankingQuery":
        """Restrict the candidate pool to ``indices`` (used between stages)."""
        return RankingQuery(
            query_id=self.query_id,
            dense=self.dense[indices],
            sparse=self.sparse[indices],
            relevance=self.relevance[indices],
        )


@dataclass
class Dataset:
    """A CTR dataset plus the metadata models need to configure themselves."""

    name: str
    train: CTRBatch
    test: CTRBatch
    num_dense: int
    table_sizes: list[int] = field(default_factory=list)

    @property
    def num_tables(self) -> int:
        return len(self.table_sizes)


def train_test_split(
    batch: CTRBatch,
    test_fraction: float,
    rng: np.random.Generator,
) -> tuple[CTRBatch, CTRBatch]:
    """Shuffle and split a batch into train and test partitions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(batch)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    if train_idx.size == 0:
        raise ValueError("split produced an empty training set; use a smaller test_fraction")
    return batch.take(train_idx), batch.take(test_idx)


def calibrate_bias(positive_rate: Callable[[float], float], target: float) -> float:
    """Bisect the logit bias whose marginal positive rate matches ``target``.

    ``positive_rate(bias)`` is the mean ground-truth probability of a fixed
    calibration sample under ``bias``; it must be non-decreasing in
    ``bias``.  The bracket ``[-8, 8]`` is halved 40 times.  The generators
    precompute every bias-free logit term of the sample once and pass a
    closure that only adds the bias and applies the sigmoid, so each step
    costs one pass over the sample instead of a full ground-truth
    evaluation.
    """
    lo, hi = -8.0, 8.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if positive_rate(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def split_dataset(
    generator,
    num_train: int,
    num_test: int,
    seed: int | None,
    num_dense: int,
    table_sizes: list[int],
) -> Dataset:
    """Draw ``num_train + num_test`` labelled samples from ``generator`` and split them.

    ``generator`` is a synthetic dataset (``sample_ctr_batch``, ``config.seed``
    and ``name``); the split is shuffled by a generator seeded 7 past ``seed``
    (or past the generator's own seed when ``seed`` is ``None``).
    """
    batch = generator.sample_ctr_batch(num_train + num_test, seed=seed)
    rng = np.random.default_rng(generator.config.seed + 7 if seed is None else seed + 7)
    test_fraction = num_test / (num_train + num_test)
    train, test = train_test_split(batch, test_fraction, rng)
    return Dataset(
        name=generator.name,
        train=train,
        test=test,
        num_dense=num_dense,
        table_sizes=table_sizes,
    )


def combine_logits(bias: float, terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Probability from a bias and a generator's three bias-free logit terms.

    The terms are added to the bias left to right, the order both the ground
    truth and :func:`calibrate_bias` closures use, so both see the same bits.
    """
    first, second, third = terms
    return sigmoid(bias + first + second + third)


def grade_relevance(values: np.ndarray, quantiles: Sequence[float]) -> np.ndarray:
    """Map probabilities onto a 0..4 graded relevance scale.

    Grade ``g`` goes to every value at or above the query's ``g``-th of the
    four ``quantiles``, so every query has a small set of highly relevant
    items and a long tail of irrelevant ones.
    """
    if values.size == 0:
        return np.zeros(0)
    thresholds = np.quantile(values, quantiles)
    relevance = np.zeros(values.shape[0], dtype=np.float64)
    for grade, threshold in enumerate(thresholds, start=1):
        relevance[values >= threshold] = float(grade)
    return relevance

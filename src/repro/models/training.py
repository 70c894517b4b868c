"""Training loop and evaluation helpers for the recommendation models."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import CTRBatch, Dataset
from repro.models.base import RecommendationModel
from repro.nn import Adam, BCEWithLogitsLoss, SGD
from repro.nn.loss import sigmoid


@dataclass
class TrainingHistory:
    """Per-epoch training metrics."""

    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_error: list[float] = field(default_factory=list)

    @property
    def final_test_error(self) -> float:
        if not self.test_error:
            raise ValueError("no epochs recorded")
        return self.test_error[-1]


class Trainer:
    """Mini-batch trainer for DLRM / NeuMF on a CTR dataset."""

    def __init__(
        self,
        model: RecommendationModel,
        lr: float = 0.01,
        optimizer: str = "adam",
        batch_size: int = 256,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.batch_size = batch_size
        self.loss_fn = BCEWithLogitsLoss()
        self._rng = np.random.default_rng(seed)
        if optimizer == "adam":
            self.optimizer = Adam(model.parameters(), model.gradients(), lr=lr)
        elif optimizer == "sgd":
            self.optimizer = SGD(model.parameters(), model.gradients(), lr=lr)
        else:
            raise ValueError(f"unknown optimizer: {optimizer!r}")

    def fit(self, dataset: Dataset, epochs: int = 3) -> TrainingHistory:
        """Train for ``epochs`` passes over ``dataset.train``."""
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        history = TrainingHistory()
        test = dataset.test
        for _ in range(epochs):
            history.train_loss.append(self._run_epoch(dataset.train))
            # One test forward gives both the loss and the error.
            logits = self.model.forward(test.dense, test.sparse)
            history.test_loss.append(self.loss_fn.forward(logits, test.labels))
            history.test_error.append(_error_percent(logits, test.labels))
        return history

    def _run_epoch(self, batch: CTRBatch) -> float:
        n = len(batch)
        perm = self._rng.permutation(n)
        total_loss = 0.0
        num_batches = 0
        for start in range(0, n, self.batch_size):
            idx = perm[start : start + self.batch_size]
            mini = batch.take(idx)
            self.model.zero_grad()
            logits = self.model.forward(mini.dense, mini.sparse)
            loss = self.loss_fn.forward(logits, mini.labels)
            grad_logits = self.loss_fn.backward()
            self.model.backward(grad_logits)
            self.optimizer.step()
            total_loss += loss
            num_batches += 1
        return total_loss / max(num_batches, 1)

    def evaluate_loss(self, batch: CTRBatch) -> float:
        """Mean BCE loss over ``batch`` without updating the model."""
        logits = self.model.forward(batch.dense, batch.sparse)
        return self.loss_fn.forward(logits, batch.labels)


def evaluate_error(model: RecommendationModel, batch: CTRBatch, threshold: float = 0.5) -> float:
    """Classification error (percent) of thresholded CTR predictions.

    This is the metric Table 1 reports (21.36% / 21.26% / 21.13%): the
    fraction of test interactions whose click outcome the model mispredicts.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return _error_percent(model.forward(batch.dense, batch.sparse), batch.labels, threshold)


def _error_percent(logits: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """Percent of ``labels`` that thresholded ``sigmoid(logits)`` mispredicts."""
    predictions = (sigmoid(logits.reshape(-1)) >= threshold).astype(np.float64)
    return float(np.mean(predictions != labels) * 100.0)

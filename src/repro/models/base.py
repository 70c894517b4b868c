"""Common interface implemented by every recommendation model."""

from __future__ import annotations

import numpy as np

from repro.models.cost import ModelCost
from repro.nn.loss import sigmoid


class RecommendationModel:
    """Interface shared by DLRM and NeuMF.

    A model scores (user-context, candidate-item) pairs: ``predict`` takes the
    dense and sparse feature blocks (one row per candidate) and returns a
    predicted click-through-rate / preference probability per row.  Training
    is driven by :class:`repro.models.training.Trainer` through
    ``forward`` / ``backward`` / ``parameters`` / ``gradients``.
    """

    name: str = "model"

    def forward(self, dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        """Return raw logits of shape ``(batch, 1)``."""
        raise NotImplementedError

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate a gradient with respect to the logits."""
        raise NotImplementedError

    def predict(self, dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        """Return predicted probabilities of shape ``(batch,)``."""
        logits = self.forward(dense, sparse).reshape(-1)
        return sigmoid(logits)

    def parameters(self) -> list[np.ndarray]:
        raise NotImplementedError

    def gradients(self) -> list[np.ndarray]:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.gradients():
            g[...] = 0.0

    def cost(self) -> ModelCost:
        """Per-item compute/memory cost profile used by the hardware models."""
        raise NotImplementedError

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

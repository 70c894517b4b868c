"""Loss functions with analytic gradients."""

from __future__ import annotations

import numpy as np


class BCEWithLogitsLoss:
    """Binary cross-entropy on raw logits (numerically stable).

    ``forward`` returns the mean loss over the batch; ``backward`` returns the
    gradient of the mean loss with respect to the logits.
    """

    def __init__(self) -> None:
        self._logits: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float64).reshape(-1)
        targets = np.asarray(targets, dtype=np.float64).reshape(-1)
        if logits.shape != targets.shape:
            raise ValueError(
                "logits and targets must have the same shape, "
                f"got {logits.shape} vs {targets.shape}"
            )
        if targets.size and (targets.min() < 0 or targets.max() > 1):
            raise ValueError("targets must lie in [0, 1]")
        self._logits = logits
        self._targets = targets
        # log(1 + exp(-|x|)) + max(x, 0) - x * y  is the stable form.
        loss = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0) - logits * targets
        return float(loss.mean()) if loss.size else 0.0

    def backward(self) -> np.ndarray:
        if self._logits is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        probs = sigmoid(self._logits)
        n = max(self._logits.size, 1)
        return ((probs - self._targets) / n).reshape(-1, 1)

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, evaluated without overflow at large ``|x|``.

    Non-negative inputs use ``1 / (1 + exp(-x))`` and negative ones
    ``exp(x) / (1 + exp(x))``, so ``exp`` never sees a positive argument.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out

"""Parameter initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so that
model construction is fully reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization for a ``(fan_in, fan_out)`` weight.

    Keeps the variance of activations roughly constant across layers; this is
    the scheme DLRM uses for its MLP weights.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float64)


def normal_init(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    std: float = 0.01,
) -> np.ndarray:
    """Zero-mean Gaussian initialization, used for embedding tables."""
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    return (rng.standard_normal(size=shape) * std).astype(np.float64)

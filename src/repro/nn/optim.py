"""The Adam optimizer, updating (parameter, gradient) pairs in place."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Adam:
    """Adam optimizer (Kingma & Ba) over parallel lists of parameters and gradients.

    ``extents[i]`` is how much of parameter ``i`` a step updates: ``None``
    all of it, ``k`` only its leading ``k`` rows ``p[:k]``, with the same
    rows of its gradient and state (:meth:`arrays`).  Whoever sets an extent
    vouches that every row past it holds a ``+0.0`` gradient and ``+0.0``
    state.  On such a row a step leaves the state ``+0.0`` and subtracts
    ``+0.0`` from the parameter, which returns every value unchanged
    (``-0.0`` and NaN included), so a step with extents is bit-identical to
    a step over every row.
    """

    def __init__(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if len(params) != len(grads):
            raise ValueError(
                f"params and grads must be parallel lists, got {len(params)} vs {len(grads)}"
            )
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(f"parameter/gradient shape mismatch: {p.shape} vs {g.shape}")
        if not 0 < lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.params = list(params)
        self.grads = list(grads)
        self.extents: list[int | None] = [None] * len(self.params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in self.params]
        self._v = [np.zeros_like(p) for p in self.params]
        self._t = 0

    def arrays(self, index: int) -> tuple[np.ndarray, ...]:
        """Parameter ``index``, its gradient and its state: the arrays whose rows a step pairs."""
        return (self.params[index], self.grads[index], self._m[index], self._v[index])

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for index, extent in enumerate(self.extents):
            arrays = self.arrays(index)
            p, g, m, v = arrays if extent is None else (a[:extent] for a in arrays)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

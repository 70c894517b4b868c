"""Gradient-descent optimizers operating on (parameter, gradient) pairs."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


class Optimizer:
    """Base optimizer: holds references to parameters and their gradients.

    ``extents[i]`` is how much of parameter ``i`` a step updates: ``None``
    all of it, ``k`` only its leading ``k`` rows ``p[:k]``, with the same
    rows of its gradient and state (:meth:`arrays`).  Whoever sets an extent
    vouches that every row past it holds a ``+0.0`` gradient and ``+0.0``
    state.  On such a row :class:`SGD` and :class:`Adam` leave the state
    ``+0.0`` and subtract ``+0.0`` from the parameter, which returns every
    value unchanged (``-0.0`` and NaN included), so a step with extents is
    bit-identical to a step over every row.
    """

    def __init__(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError(
                f"params and grads must be parallel lists, got {len(params)} vs {len(grads)}"
            )
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(f"parameter/gradient shape mismatch: {p.shape} vs {g.shape}")
        self.params = list(params)
        self.grads = list(grads)
        self.extents: list[int | None] = [None] * len(self.params)
        # Per-element state, one list parallel to params per slot.
        self._state: tuple[list[np.ndarray], ...] = ()

    def arrays(self, index: int) -> tuple[np.ndarray, ...]:
        """Parameter ``index``, its gradient and its state: the arrays whose rows a step pairs."""
        return (self.params[index], self.grads[index], *(slot[index] for slot in self._state))

    def _in_extent(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Each parameter's :meth:`arrays`, cut to the rows its extent lets a step update."""
        for index, extent in enumerate(self.extents):
            arrays = self.arrays(index)
            yield arrays if extent is None else tuple(a[:extent] for a in arrays)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        lr: float = 0.1,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(params, grads)
        if not 0 < lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in self.params]
        self._state = (self._velocity,)

    def step(self) -> None:
        for p, g, v in self._in_extent():
            if self.momentum > 0.0:
                v *= self.momentum
                v += g
                p -= self.lr * v
            else:
                p -= self.lr * g


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba)."""

    def __init__(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, grads)
        if not 0 < lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in self.params]
        self._v = [np.zeros_like(p) for p in self.params]
        self._state = (self._m, self._v)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, g, m, v in self._in_extent():
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

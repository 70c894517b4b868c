"""Dense layers and multi-layer perceptrons.

Every layer implements ``forward`` and ``backward``.  ``backward`` receives the
gradient of the loss with respect to the layer's output and returns the
gradient with respect to its input, accumulating parameter gradients in
``layer.grads`` along the way.  Parameters and gradients are exposed through
``parameters()`` / ``gradients()`` as parallel lists so optimizers can update
them in place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.init import xavier_uniform


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        """Trainable parameters, as a flat list of arrays."""
        return []

    def gradients(self) -> list[np.ndarray]:
        """Gradients aligned with :meth:`parameters`."""
        return []

    def zero_grad(self) -> None:
        for g in self.gradients():
            g[...] = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Identity(Layer):
    """Pass-through layer (useful as a placeholder activation)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Linear(Layer):
    """Fully-connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError(f"layer dimensions must be positive, got {in_features}x{out_features}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = xavier_uniform(rng, in_features, out_features)
        self.bias = np.zeros(out_features, dtype=np.float64)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected input of shape (batch, {self.in_features}), got {x.shape}")
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.grad_weight += self._x.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class MLP(Layer):
    """Multi-layer perceptron defined by a list of layer widths.

    ``layer_sizes = [13, 64, 4]`` builds two linear layers (13->64, 64->4)
    with ReLU between them.  ``final_activation`` is ``"relu"`` or
    ``"none"``: DLRM's bottom MLP ends in ReLU, its top MLP in the raw CTR
    logit.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator | None = None,
        final_activation: str = "relu",
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.layers: list[Layer] = []
        n_linear = len(layer_sizes) - 1
        for i in range(n_linear):
            self.layers.append(Linear(layer_sizes[i], layer_sizes[i + 1], rng=rng))
            is_last = i == n_linear - 1
            if not is_last:
                self.layers.append(ReLU())
            else:
                self.layers.append(_make_activation(final_activation))

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads


def _make_activation(name: str) -> Layer:
    if name == "relu":
        return ReLU()
    if name == "none":
        return Identity()
    raise ValueError(f"unknown activation: {name!r}")

"""Minimal neural-network substrate the trainable DLRM is built from.

The paper implements its models in PyTorch.  This package provides the small
subset of functionality DLRM training needs -- dense layers, ReLU, the
stacked embedding-bag collection, binary cross-entropy and Adam -- with
explicit ``forward`` / ``backward`` methods and no external dependencies
beyond numpy.

The substrate is intentionally simple: every layer owns its parameters and
gradients as numpy arrays, and a model is a composition of layers.  The
hardware models never read these layers: they price a model from its
paper-scale :meth:`repro.models.zoo.ModelSpec.reference_cost`.
"""

from repro.nn.init import normal_init, xavier_uniform
from repro.nn.layers import MLP, Identity, Layer, Linear, ReLU
from repro.nn.embedding import EmbeddingBagCollection
from repro.nn.loss import BCEWithLogitsLoss
from repro.nn.optim import Adam

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Identity",
    "MLP",
    "EmbeddingBagCollection",
    "BCEWithLogitsLoss",
    "Adam",
    "xavier_uniform",
    "normal_init",
]

"""Reference implementations the stacked embeddings, DLRM and trainer are checked against.

Each piece is the code as it was before Table 1 training moved to one
stacked embedding array, an upper-triangle interaction and one test
forward per epoch, kept verbatim in logic:

* :class:`ReferenceEmbeddingBagCollection` owns one separate array per
  table; ``forward`` is one lookup per table, ``backward`` one
  ``np.add.at`` per table.
* :func:`reference_interactions` computes the full ``(batch, n, n)`` Gram
  matrix and gathers its upper triangle.
* :class:`ReferenceDLRM` builds its layers in the same order from the same
  seed (so it draws the same initial weights) and runs the two pieces above;
  ``zero_grad`` resets every gradient in full, where ``DLRM`` resets the
  embeddings only by the rows ``backward`` wrote.
* :class:`ReferenceAdam` steps every row of every parameter, where
  ``Trainer.fit`` has the optimizer step only each embedding table's live
  rows.
* :class:`ReferenceTrainer` evaluates each epoch with two test forwards:
  one for the loss, one (through :func:`reference_error`, the sigmoid of a
  forward) for the error.  It trains in row order with the dense Adam
  above.

The equivalence suite in ``tests/test_nn_equivalence.py`` requires the
production code to reproduce them bit for bit (``tobytes()`` equality).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.datasets import CTRBatch, Dataset
from repro.models.dlrm import DLRM, DLRMConfig
from repro.models.training import Trainer, TrainingHistory
from repro.nn import MLP, Adam
from repro.nn.init import normal_init
from repro.nn.loss import sigmoid


class ReferenceEmbeddingTable:
    """One ``(num_rows, dim)`` table with its own weight and gradient arrays."""

    def __init__(self, num_rows: int, dim: int, rng: np.random.Generator, std: float = 0.01):
        self.weight = normal_init(rng, (num_rows, dim), std=std)
        self.grad_weight = np.zeros_like(self.weight)
        self._indices: np.ndarray | None = None

    @property
    def num_rows(self) -> int:
        return self.weight.shape[0]

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_rows):
            raise IndexError(f"embedding index out of range [0, {self.num_rows})")
        self._indices = indices
        return self.weight[indices]

    def backward(self, grad_out: np.ndarray) -> None:
        np.add.at(self.grad_weight, self._indices, grad_out)


class ReferenceEmbeddingBagCollection:
    """One separate table per feature: a lookup and an ``np.add.at`` each."""

    def __init__(
        self, table_sizes: Sequence[int], dim: int, rng: np.random.Generator, std: float = 0.01
    ):
        self.dim = dim
        self.tables = [ReferenceEmbeddingTable(rows, dim, rng, std) for rows in table_sizes]

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        outputs = [table.forward(indices[:, t]) for t, table in enumerate(self.tables)]
        return np.concatenate(outputs, axis=1)

    def backward(self, grad_out: np.ndarray) -> None:
        for t, table in enumerate(self.tables):
            table.backward(grad_out[:, t * self.dim : (t + 1) * self.dim])

    def parameters(self) -> list[np.ndarray]:
        return [table.weight for table in self.tables]

    def gradients(self) -> list[np.ndarray]:
        return [table.grad_weight for table in self.tables]


def reference_interactions(vectors: np.ndarray) -> np.ndarray:
    """Upper-triangle pair dot products, gathered from the full Gram matrix."""
    n = vectors.shape[1]
    gram = np.einsum("bik,bjk->bij", vectors, vectors)
    iu, ju = np.triu_indices(n, k=1)
    return gram[:, iu, ju]


class ReferenceDLRM(DLRM):
    """DLRM with per-table embeddings and the full-Gram interaction."""

    def __init__(self, config: DLRMConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.bottom = MLP(config.mlp_bottom, rng=rng, final_activation="relu")
        self.embeddings = ReferenceEmbeddingBagCollection(
            config.table_sizes, config.embedding_dim, rng=rng
        )
        top_sizes = [config.top_input_width, *config.mlp_top, 1]
        self.top = MLP(top_sizes, rng=rng, final_activation="none")
        self._cache: dict[str, np.ndarray] | None = None

    def zero_grad(self) -> None:
        for g in self.gradients():
            g[...] = 0.0

    def forward(self, dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        dense = np.asarray(dense, dtype=np.float64)
        cfg = self.config
        bottom_out = self.bottom.forward(dense)
        emb_out = self.embeddings.forward(sparse)
        batch = dense.shape[0]
        emb_vectors = emb_out.reshape(batch, cfg.num_tables, cfg.embedding_dim)
        vectors = np.concatenate([bottom_out[:, None, :], emb_vectors], axis=1)
        top_input = np.concatenate([bottom_out, reference_interactions(vectors)], axis=1)
        logits = self.top.forward(top_input)
        iu, ju = np.triu_indices(cfg.num_tables + 1, k=1)
        self._cache = {"vectors": vectors, "iu": iu, "ju": ju}
        return logits

    def backward(self, grad_logits: np.ndarray) -> None:
        cfg = self.config
        vectors = self._cache["vectors"]
        iu, ju = self._cache["iu"], self._cache["ju"]
        batch = vectors.shape[0]
        grad_top_input = self.top.backward(grad_logits)
        grad_bottom_direct = grad_top_input[:, : cfg.embedding_dim]
        grad_interactions = grad_top_input[:, cfg.embedding_dim :]
        grad_gram = np.zeros((batch, cfg.num_tables + 1, cfg.num_tables + 1))
        grad_gram[:, iu, ju] = grad_interactions
        grad_vectors = np.einsum("bij,bjk->bik", grad_gram + grad_gram.transpose(0, 2, 1), vectors)
        grad_bottom = grad_vectors[:, 0, :] + grad_bottom_direct
        grad_emb = grad_vectors[:, 1:, :].reshape(batch, cfg.num_tables * cfg.embedding_dim)
        self.bottom.backward(grad_bottom)
        self.embeddings.backward(grad_emb)


class ReferenceAdam(Adam):
    """Adam stepping every row of every parameter."""

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(self.params, self.grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReferenceTrainer(Trainer):
    """The trainer with two test forwards per epoch and dense Adam steps."""

    def __init__(
        self,
        model: ReferenceDLRM,
        lr: float = 0.01,
        batch_size: int = 256,
        seed: int = 0,
    ) -> None:
        super().__init__(model, lr=lr, batch_size=batch_size, seed=seed)
        self.optimizer = ReferenceAdam(model.parameters(), model.gradients(), lr=lr)

    def fit(self, dataset: Dataset, epochs: int = 3) -> TrainingHistory:
        history = TrainingHistory()
        for _ in range(epochs):
            history.train_loss.append(self._run_epoch(dataset.train))
            history.test_loss.append(self.reference_loss(dataset.test))
            history.test_error.append(reference_error(self.model, dataset.test))
        return history

    def reference_loss(self, batch: CTRBatch) -> float:
        logits = self.model.forward(batch.dense, batch.sparse)
        return self.loss_fn.forward(logits, batch.labels)


def reference_error(model, batch: CTRBatch, threshold: float = 0.5) -> float:
    """Percent of ``batch`` whose thresholded ``sigmoid(model.forward)`` mispredicts the label."""
    probs = sigmoid(model.forward(batch.dense, batch.sparse).reshape(-1))
    predictions = (probs >= threshold).astype(np.float64)
    return float(np.mean(predictions != batch.labels) * 100.0)

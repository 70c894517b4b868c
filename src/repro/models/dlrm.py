"""Deep Learning Recommendation Model (DLRM).

Architecture (Naumov et al., arXiv:1906.00091 -- the model used throughout the
paper's Criteo experiments):

* a *bottom MLP* maps the dense features to the embedding dimension,
* one embedding table per categorical feature maps sparse ids to the same
  dimension,
* a *feature interaction* computes dot products between every pair of latent
  vectors (bottom output + all embedding lookups) and concatenates them with
  the bottom output,
* a *top MLP* maps the interaction features to a single CTR logit.

The network hyperparameters configured by the paper (embedding dimension,
bottom/top MLP widths -- Table 1) are exposed through :class:`DLRMConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import EmbeddingBagCollection, MLP


@dataclass(frozen=True)
class DLRMConfig:
    """Hyperparameters of a DLRM instance.

    ``mlp_bottom`` includes the dense-feature input width and must end in
    ``embedding_dim`` (the interaction requires equal widths).  ``mlp_top``
    lists hidden widths only; the input width is derived from the interaction
    and a final single-logit output layer is appended automatically.
    """

    name: str
    embedding_dim: int
    mlp_bottom: tuple[int, ...]
    mlp_top: tuple[int, ...]
    table_sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if len(self.mlp_bottom) < 2:
            raise ValueError("mlp_bottom must include input and output widths")
        if self.mlp_bottom[-1] != self.embedding_dim:
            raise ValueError(
                f"bottom MLP must end in embedding_dim={self.embedding_dim}, "
                f"got {self.mlp_bottom[-1]}"
            )
        if not self.table_sizes:
            raise ValueError("at least one embedding table is required")

    @property
    def num_dense(self) -> int:
        return self.mlp_bottom[0]

    @property
    def num_tables(self) -> int:
        return len(self.table_sizes)

    @property
    def num_interaction_features(self) -> int:
        """Width of the pairwise dot-product interaction output."""
        vectors = self.num_tables + 1
        return vectors * (vectors - 1) // 2

    @property
    def top_input_width(self) -> int:
        return self.embedding_dim + self.num_interaction_features


def pairwise_interactions(vectors: np.ndarray) -> np.ndarray:
    """Dot products of every vector pair ``i < j``, row-major over ``(i, j)``.

    ``vectors`` has shape ``(batch, n, dim)``; the result has shape
    ``(batch, n * (n - 1) / 2)``, ordered as ``np.triu_indices(n, k=1)``.
    Row ``i`` is one ``np.einsum("bk,bjk->bj", ...)`` against vectors
    ``i + 1:``, so only the upper triangle is computed, never the full
    ``(batch, n, n)`` Gram matrix.  On C-contiguous float64 input this is
    bit-identical to ``np.einsum("bik,bjk->bij", v, v)[:, iu, ju]``: both
    reduce each pair over a contiguous ``dim`` axis with the same
    sum-of-products loop, so they add the same products in the same order.
    ``np.matmul`` is not a substitute: BLAS changes the summation order and
    so the last digits.
    """
    n = vectors.shape[1]
    rows = [np.einsum("bk,bjk->bj", vectors[:, i], vectors[:, i + 1 :]) for i in range(n - 1)]
    return np.concatenate(rows, axis=1)


class DLRM:
    """DLRM with explicit forward/backward over the numpy substrate.

    :class:`repro.models.training.Trainer` drives it through ``forward`` /
    ``backward`` / ``parameters`` / ``gradients`` / ``zero_grad``.
    """

    def __init__(self, config: DLRMConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.bottom = MLP(config.mlp_bottom, rng=rng, final_activation="relu")
        self.embeddings = EmbeddingBagCollection(config.table_sizes, config.embedding_dim, rng=rng)
        top_sizes = [config.top_input_width, *config.mlp_top, 1]
        self.top = MLP(top_sizes, rng=rng, final_activation="none")
        # The interaction's (i < j) pairs, in the order the top MLP reads them.
        self._upper = np.triu_indices(config.num_tables + 1, k=1)
        self._vectors: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        """Logits of shape ``(batch, 1)``; keeps the interaction vectors for ``backward``.

        Exact against the per-table, full-Gram formulation: the embedding
        lookup is one gather over the stacked tables (a copy), and the
        interaction is :func:`pairwise_interactions`, which reduces each
        ``i < j`` pair over ``dim`` with the same ``einsum`` loop the full
        Gram matrix used.  ``vectors`` is built by ``np.concatenate``, so it
        is C-contiguous float64, the input that equality holds for.
        """
        dense = np.asarray(dense, dtype=np.float64)
        sparse = np.asarray(sparse)
        cfg = self.config
        if dense.ndim != 2 or dense.shape[1] != cfg.num_dense:
            raise ValueError(
                f"expected dense features of shape (batch, {cfg.num_dense}), got {dense.shape}"
            )
        bottom_out = self.bottom.forward(dense)
        emb_out = self.embeddings.forward(sparse)
        batch = dense.shape[0]
        emb_vectors = emb_out.reshape(batch, cfg.num_tables, cfg.embedding_dim)
        vectors = np.concatenate([bottom_out[:, None, :], emb_vectors], axis=1)
        top_input = np.concatenate([bottom_out, pairwise_interactions(vectors)], axis=1)
        logits = self.top.forward(top_input)
        self._vectors = vectors
        return logits

    def backward(self, grad_logits: np.ndarray) -> None:
        if self._vectors is None:
            raise RuntimeError("backward called before forward")
        cfg = self.config
        vectors = self._vectors
        iu, ju = self._upper
        batch = vectors.shape[0]

        grad_top_input = self.top.backward(grad_logits)
        grad_bottom_direct = grad_top_input[:, : cfg.embedding_dim]
        grad_interactions = grad_top_input[:, cfg.embedding_dim :]

        grad_gram = np.zeros((batch, cfg.num_tables + 1, cfg.num_tables + 1))
        grad_gram[:, iu, ju] = grad_interactions
        # gram = V V^T, so dV = (G + G^T) V.
        grad_vectors = np.einsum("bij,bjk->bik", grad_gram + grad_gram.transpose(0, 2, 1), vectors)
        grad_bottom = grad_vectors[:, 0, :] + grad_bottom_direct
        grad_emb = grad_vectors[:, 1:, :].reshape(batch, cfg.num_tables * cfg.embedding_dim)
        self.bottom.backward(grad_bottom)
        self.embeddings.backward(grad_emb)

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def parameters(self) -> list[np.ndarray]:
        return self.bottom.parameters() + self.embeddings.parameters() + self.top.parameters()

    def gradients(self) -> list[np.ndarray]:
        return self.bottom.gradients() + self.embeddings.gradients() + self.top.gradients()

    def zero_grad(self) -> None:
        """Reset both MLPs in full and the embeddings by the rows ``backward`` wrote."""
        self.bottom.zero_grad()
        self.embeddings.zero_grad()
        self.top.zero_grad()

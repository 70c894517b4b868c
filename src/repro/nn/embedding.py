"""Embedding tables and embedding-bag collections.

Recommendation models map sparse categorical inputs to dense latent vectors
through embedding tables.  DLRM uses one table per categorical feature and a
sum-pooled "embedding bag" lookup.  The tables dominate the model's memory
footprint and their access pattern (power-law over rows) drives the caching
behaviour that the hardware models in :mod:`repro.accel` exploit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.init import normal_init
from repro.nn.layers import Layer


class EmbeddingTable(Layer):
    """A single embedding table of shape ``(num_rows, dim)``.

    ``forward`` takes integer indices of shape ``(batch,)`` or
    ``(batch, bag)`` and returns dense vectors.  Multi-index bags are
    sum-pooled, matching DLRM's EmbeddingBag-with-sum semantics.
    """

    def __init__(
        self,
        num_rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        std: float = 0.01,
    ) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError(f"table dimensions must be positive, got {num_rows}x{dim}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = normal_init(rng, (num_rows, dim), std=std)
        self.grad_weight = np.zeros_like(self.weight)
        self._indices: np.ndarray | None = None

    @property
    def num_rows(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_rows):
            raise IndexError(
                f"embedding index out of range [0, {self.num_rows}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        self._indices = indices
        if indices.ndim == 1:
            return self.weight[indices]
        if indices.ndim == 2:
            return self.weight[indices].sum(axis=1)
        raise ValueError(f"indices must be 1-D or 2-D, got shape {indices.shape}")

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._indices is None:
            raise RuntimeError("backward called before forward")
        indices = self._indices
        if indices.ndim == 1:
            np.add.at(self.grad_weight, indices, grad_out)
        else:
            bag = indices.shape[1]
            flat_idx = indices.reshape(-1)
            flat_grad = np.repeat(grad_out, bag, axis=0)
            np.add.at(self.grad_weight, flat_idx, flat_grad)
        # Embedding inputs are indices, not differentiable values.
        return np.zeros_like(grad_out)

    def parameters(self) -> list[np.ndarray]:
        return [self.weight]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight]

    def num_parameters(self) -> int:
        return self.weight.size

    def storage_bytes(self, bytes_per_element: int = 4) -> int:
        """Storage footprint of the table at serving precision (fp32 default)."""
        return self.weight.size * bytes_per_element


class EmbeddingBagCollection(Layer):
    """A collection of embedding tables, one per categorical feature.

    ``forward`` takes an integer array of shape ``(batch, num_tables)`` holding
    one index per table and returns the concatenation of the per-table
    lookups, shape ``(batch, num_tables * dim)``.

    The tables are stacked: the collection owns one ``(sum(rows), dim)``
    ``weight`` and one ``grad_weight``, and each ``tables[t].weight`` /
    ``grad_weight`` is the view of rows ``offsets[t]:offsets[t + 1]``.  Each
    table's rows are drawn from ``rng`` in table order, as separate tables
    would draw them, so the stack holds the same values.  ``forward`` is one
    gather over the stack and ``backward`` one 1-D ``np.add.at`` over flat
    element indices.  Both are exact against per-table lookups: a gather
    copies values, and ``np.add.at`` applies its additions one at a time in
    index order, so every gradient element adds its rows' values in batch
    order, starting from its current value, as a per-table ``np.add.at``
    does.  ``parameters()``/``gradients()`` stay per table, so an optimizer
    updates one table-sized array at a time.

    ``zero_grad`` clears only the stacked rows ``backward`` wrote since the
    last reset (at most ``batch * num_tables`` of them), not the whole
    stack: while nothing but ``backward`` writes the gradient, every other
    row is already zero.  A caller that permutes the stack's rows calls
    :meth:`renumber` with the same map, so the next ``backward`` and
    ``zero_grad`` find the rows they recorded.
    """

    def __init__(
        self,
        table_sizes: Sequence[int],
        dim: int,
        rng: np.random.Generator | None = None,
        std: float = 0.01,
    ) -> None:
        if not table_sizes:
            raise ValueError("at least one embedding table is required")
        if min(table_sizes) <= 0 or dim <= 0:
            raise ValueError(f"table dimensions must be positive, got {list(table_sizes)}x{dim}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.table_sizes = np.asarray(table_sizes, dtype=np.intp)
        self.offsets = np.concatenate(([0], np.cumsum(self.table_sizes)))
        self.weight = np.empty((int(self.offsets[-1]), dim))
        self.grad_weight = np.zeros_like(self.weight)
        self.tables = []
        for start, stop in zip(self.offsets[:-1], self.offsets[1:]):
            table = EmbeddingTable(int(stop - start), dim, rng=rng, std=std)
            self.weight[start:stop] = table.weight
            table.weight = self.weight[start:stop]
            table.grad_weight = self.grad_weight[start:stop]
            self.tables.append(table)
        self._rows: np.ndarray | None = None
        self._written: list[np.ndarray] = []

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.ndim != 2 or indices.shape[1] != self.num_tables:
            raise ValueError(
                f"expected indices of shape (batch, {self.num_tables}), got {indices.shape}"
            )
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
        if indices.size:
            # Each table checks its own range: a stacked row past a table's
            # end exists, but belongs to the next table.
            low, high = indices.min(axis=0), indices.max(axis=0)
            bad = np.flatnonzero((low < 0) | (high >= self.table_sizes))
            if bad.size:
                t = bad[0]
                raise IndexError(
                    f"embedding index out of range [0, {self.table_sizes[t]}) in table {t}: "
                    f"min={low[t]}, max={high[t]}"
                )
        self._rows = indices.astype(np.intp, copy=False) + self.offsets[:-1]
        gathered = self.weight.take(self._rows, axis=0)
        return gathered.reshape(len(indices), self.num_tables * self.dim)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._rows is None:
            raise RuntimeError("backward called before forward")
        if grad_out.shape[1] != self.num_tables * self.dim:
            raise ValueError(
                f"expected gradient width {self.num_tables * self.dim}, got {grad_out.shape[1]}"
            )
        # Element (row, k) of the stack sits at flat index row * dim + k; the
        # flat indices follow grad_out's (batch, table, k) order.
        elements = (self._rows * self.dim)[:, :, None] + np.arange(self.dim)
        np.add.at(self.grad_weight.reshape(-1), elements.reshape(-1), grad_out.reshape(-1))
        self._written.append(self._rows.reshape(-1))
        return np.zeros_like(grad_out)

    def zero_grad(self) -> None:
        for rows in self._written:
            self.grad_weight[rows] = 0.0
        self._written.clear()

    def renumber(self, new_row: np.ndarray) -> None:
        """Rename the rows ``forward`` and ``backward`` recorded: ``r`` becomes ``new_row[r]``."""
        if self._rows is not None:
            self._rows = new_row[self._rows]
        self._written = [new_row[rows] for rows in self._written]

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for table in self.tables:
            params.extend(table.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        grads: list[np.ndarray] = []
        for table in self.tables:
            grads.extend(table.gradients())
        return grads

    def num_parameters(self) -> int:
        return sum(table.num_parameters() for table in self.tables)

    def storage_bytes(self, bytes_per_element: int = 4) -> int:
        return sum(table.storage_bytes(bytes_per_element) for table in self.tables)

    def lookups_per_sample(self) -> int:
        """Number of embedding-vector fetches one inference sample performs."""
        return self.num_tables

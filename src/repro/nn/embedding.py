"""The stacked embedding-bag collection DLRM looks its sparse features up in.

Recommendation models map sparse categorical inputs to dense latent vectors
through embedding tables.  DLRM uses one table per categorical feature and
one lookup per table and sample.  The tables dominate the model's memory
footprint and their access pattern (power-law over rows) drives the caching
behaviour that the hardware models in :mod:`repro.accel` exploit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.init import normal_init
from repro.nn.layers import Layer


class EmbeddingBagCollection(Layer):
    """A collection of embedding tables, one per categorical feature.

    ``forward`` takes an integer array of shape ``(batch, num_tables)`` holding
    one index per table and returns the concatenation of the per-table
    lookups, shape ``(batch, num_tables * dim)``.

    The tables are stacked: the collection owns one ``(sum(rows), dim)``
    ``weight`` and one ``grad_weight``, and table ``t`` is their rows
    ``offsets[t]:offsets[t + 1]``.  Each table's rows are drawn from ``rng``
    by :func:`~repro.nn.init.normal_init` in table order, as separate tables
    would draw them, so the stack holds the same values.  ``forward`` is one
    gather over the stack and ``backward`` one 1-D ``np.add.at`` over flat
    element indices.  Both are exact against per-table lookups: a gather
    copies values, and ``np.add.at`` applies its additions one at a time in
    index order, so every gradient element adds its rows' values in batch
    order, starting from its current value, as a per-table ``np.add.at``
    does.  ``parameters()``/``gradients()`` are each table's view of the
    stack, made once, so an optimizer updates one table-sized array at a
    time and finds the same arrays on every call.

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
        tables = [slice(start, stop) for start, stop in zip(self.offsets[:-1], self.offsets[1:])]
        for rows in tables:
            self.weight[rows] = normal_init(rng, (rows.stop - rows.start, dim))
        self._weights = [self.weight[rows] for rows in tables]
        self._grads = [self.grad_weight[rows] for rows in tables]
        self._rows: np.ndarray | None = None
        self._written: list[np.ndarray] = []

    @property
    def num_tables(self) -> int:
        return len(self.table_sizes)

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
        return list(self._weights)

    def gradients(self) -> list[np.ndarray]:
        return list(self._grads)

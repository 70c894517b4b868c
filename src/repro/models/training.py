"""Training loop for the trainable DLRM."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.data.datasets import CTRBatch, Dataset
from repro.models.dlrm import DLRM
from repro.nn import Adam, BCEWithLogitsLoss, EmbeddingBagCollection
from repro.nn.loss import sigmoid


@dataclass
class TrainingHistory:
    """Per-epoch training metrics."""

    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_error: list[float] = field(default_factory=list)

    @property
    def final_test_error(self) -> float:
        if not self.test_error:
            raise ValueError("no epochs recorded")
        return self.test_error[-1]


class Trainer:
    """Mini-batch Adam trainer for a DLRM on a CTR dataset.

    The trainer's optimizer steps only inside :meth:`fit`, which relies on
    it: a stacked embedding row that neither the train split nor an earlier
    ``fit`` reached has zero optimizer state.
    """

    def __init__(
        self,
        model: DLRM,
        lr: float = 0.01,
        batch_size: int = 256,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.batch_size = batch_size
        self.loss_fn = BCEWithLogitsLoss()
        self._rng = np.random.default_rng(seed)
        self.optimizer = Adam(model.parameters(), model.gradients(), lr=lr)
        # Stacked embedding rows an earlier fit stepped (None before the first).
        self._trained: np.ndarray | None = None

    def fit(self, dataset: Dataset, epochs: int = 3) -> TrainingHistory:
        """Train for ``epochs`` passes over ``dataset.train``.

        Each step updates only the embedding rows a fit can reach (see
        :meth:`_live_rows_first`); the trained numbers are bit-identical to
        a step over every row.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        history = TrainingHistory()
        with self._live_rows_first(dataset) as (train, test):
            for _ in range(epochs):
                history.train_loss.append(self._run_epoch(train))
                # One test forward gives both the loss and the error.
                logits = self.model.forward(test.dense, test.sparse)
                history.test_loss.append(self.loss_fn.forward(logits, test.labels))
                history.test_error.append(_error_percent(logits, test.labels))
        return history

    @contextmanager
    def _live_rows_first(self, dataset: Dataset) -> Iterator[tuple[CTRBatch, CTRBatch]]:
        """Hold each stacked embedding table's live rows first; yield the renamed splits.

        Live rows are the rows ``dataset.train`` names and the rows an
        earlier ``fit`` trained; each table holds them, then the rest, each
        group in row order.  The weights, gradients, optimizer state and the
        collection's recorded rows move one table at a time, in place; the
        splits' ids are renamed to match, and each table's optimizer extent
        is its live count.  Every row past it has a ``+0.0`` gradient and
        ``+0.0`` state, on which a step is the identity.  Gathers copy
        values, and each gradient element receives its additions in batch
        order wherever its row sits, so training is exact.  Leaving the
        block restores row order and full extents.

        Ids ``forward`` would refuse train in row order, so ``forward``
        raises its own error.
        """
        train, test = dataset.train, dataset.test
        collection = self.model.embeddings
        if not all(_names_rows(collection, b) for b in (train, test)):
            yield train, test
            return
        slot_of = {id(p): i for i, p in enumerate(self.optimizer.params)}
        slots = [slot_of[id(weight)] for weight in collection.parameters()]
        offsets = collection.offsets
        live = self._trained if self._trained is not None else np.zeros(offsets[-1], dtype=bool)
        live[_stacked_rows(train, offsets).reshape(-1)] = True
        self._trained = live
        table = np.repeat(np.arange(collection.num_tables), collection.table_sizes)
        # By table, then live before the rest; lexsort keeps row order within each.
        order = np.lexsort((~live, table))
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        self._permute(collection, slots, order, renamed=position)
        live_counts = np.bincount(table[live], minlength=collection.num_tables)
        for slot, count in zip(slots, live_counts):
            self.optimizer.extents[slot] = int(count)
        try:
            yield _renamed(train, position, offsets), _renamed(test, position, offsets)
        finally:
            for slot in slots:
                self.optimizer.extents[slot] = None
            self._permute(collection, slots, position, renamed=order)

    def _permute(
        self,
        collection: EmbeddingBagCollection,
        slots: list[int],
        rows: np.ndarray,
        renamed: np.ndarray,
    ) -> None:
        """Move stacked row ``rows[j]`` to row ``j`` in every array a step pairs with a table.

        ``renamed`` is the inverse map: it renames the collection's
        recorded rows.  Each table is permuted on its own, in place.
        """
        for slot, start, stop in zip(slots, collection.offsets[:-1], collection.offsets[1:]):
            local = rows[start:stop] - start
            for array in self.optimizer.arrays(slot):
                array[...] = array[local]
        collection.renumber(renamed)

    def _run_epoch(self, batch: CTRBatch) -> float:
        n = len(batch)
        perm = self._rng.permutation(n)
        total_loss = 0.0
        num_batches = 0
        for start in range(0, n, self.batch_size):
            idx = perm[start : start + self.batch_size]
            mini = batch.take(idx)
            self.model.zero_grad()
            logits = self.model.forward(mini.dense, mini.sparse)
            loss = self.loss_fn.forward(logits, mini.labels)
            grad_logits = self.loss_fn.backward()
            self.model.backward(grad_logits)
            self.optimizer.step()
            total_loss += loss
            num_batches += 1
        return total_loss / max(num_batches, 1)


def _names_rows(collection: EmbeddingBagCollection, batch: CTRBatch) -> bool:
    """Whether every sparse id of ``batch`` names a row of its table, as ``forward`` requires."""
    sparse = batch.sparse
    if sparse.shape[1] != collection.num_tables or not np.issubdtype(sparse.dtype, np.integer):
        return False
    if not sparse.size:
        return True
    low, high = sparse.min(axis=0), sparse.max(axis=0)
    return bool((low >= 0).all() and (high < collection.table_sizes).all())


def _stacked_rows(batch: CTRBatch, offsets: np.ndarray) -> np.ndarray:
    """The stacked row of each sparse id of ``batch``, as ``forward`` computes it."""
    return batch.sparse.astype(np.intp, copy=False) + offsets[:-1]


def _renamed(batch: CTRBatch, position: np.ndarray, offsets: np.ndarray) -> CTRBatch:
    """``batch`` with each sparse id renamed to where ``position`` moved its stacked row."""
    return replace(batch, sparse=position[_stacked_rows(batch, offsets)] - offsets[:-1])


def _error_percent(logits: np.ndarray, labels: np.ndarray) -> float:
    """Percent of ``labels`` that ``sigmoid(logits)`` thresholded at 0.5 mispredicts.

    This is the metric Table 1 reports (21.36% / 21.26% / 21.13%): the
    fraction of test interactions whose click outcome the model mispredicts.
    """
    predictions = (sigmoid(logits.reshape(-1)) >= 0.5).astype(np.float64)
    return float(np.mean(predictions != labels) * 100.0)

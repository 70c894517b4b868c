"""Equivalence suite: Table 1 training against the per-table, dense-step code it replaced.

Stacked embeddings, upper-triangle interactions, one-forward evaluation and
optimizer steps over live embedding rows only keep every trained parameter,
loss and error of the code they replaced.  Each test runs the production code
and the reference in ``tests/nn_reference.py`` on the same inputs and
requires equal bytes (``tobytes()``), not closeness: a numpy build on which
the two forms round differently fails here.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CriteoConfig, CriteoSynthetic
from repro.models.dlrm import DLRM, pairwise_interactions
from repro.models.training import Trainer
from repro.models.zoo import RM_LARGE, RM_SMALL, build_model
from repro.nn import Adam, BCEWithLogitsLoss, EmbeddingBagCollection
from tests.nn_reference import (
    ReferenceAdam,
    ReferenceDLRM,
    ReferenceEmbeddingBagCollection,
    ReferenceTrainer,
    reference_error,
    reference_interactions,
)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStackedCollectionMatchesReference:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=30),
        dim=st.integers(min_value=1, max_value=64),
        batch=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_and_backward_are_bit_identical(self, sizes, dim, batch, seed):
        stacked = EmbeddingBagCollection(sizes, dim, rng=np.random.default_rng(seed))
        reference = ReferenceEmbeddingBagCollection(sizes, dim, rng=np.random.default_rng(seed))
        for weight, ref in zip(stacked.parameters(), reference.tables, strict=True):
            assert same_bytes(weight, ref.weight)

        rng = np.random.default_rng(seed + 1)
        indices = rng.integers(0, sizes, size=(batch, len(sizes)))
        indices[-1] = indices[0]  # at least one repeated row per table
        # A non-zero prior gradient: add.at must start from it.
        for grad, ref in zip(stacked.gradients(), reference.tables, strict=True):
            prior = rng.standard_normal(ref.grad_weight.shape)
            grad[...] = prior
            ref.grad_weight[...] = prior

        assert same_bytes(stacked.forward(indices), reference.forward(indices))
        grad_out = rng.standard_normal((batch, len(sizes) * dim))
        stacked.backward(grad_out)
        reference.backward(grad_out)
        for grad, ref in zip(stacked.gradients(), reference.tables, strict=True):
            assert same_bytes(grad, ref.grad_weight)

    def test_zero_grad_clears_the_rows_of_every_backward_since_the_last(self):
        stacked = EmbeddingBagCollection([5, 7, 2], 3)
        rng = np.random.default_rng(1)
        # Two backwards over disjoint rows with no reset between them.
        for indices in ([[0, 1, 0], [1, 2, 0]], [[4, 6, 1], [3, 5, 1]]):
            stacked.forward(np.array(indices))
            stacked.backward(rng.standard_normal((2, 9)))
        assert np.count_nonzero(stacked.grad_weight.any(axis=1)) == 10
        stacked.zero_grad()
        assert not stacked.grad_weight.any()


class TestInteractionsMatchReference:
    @given(
        batch=st.integers(min_value=1, max_value=300),
        vectors=st.integers(min_value=2, max_value=31),
        dim=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_upper_triangle_is_bit_identical_to_full_gram(self, batch, vectors, dim, seed):
        v = np.random.default_rng(seed).standard_normal((batch, vectors, dim))
        out = pairwise_interactions(v)
        assert out.shape == (batch, vectors * (vectors - 1) // 2)
        assert same_bytes(out, reference_interactions(v))


def small_criteo():
    # Uneven tables, so stacked offsets differ per table.
    sizes = tuple(40 + 23 * t for t in range(26))
    generator = CriteoSynthetic(CriteoConfig(table_sizes_override=sizes))
    return generator.build_dataset(num_train=700, num_test=300, seed=5)


class TestTrainingMatchesReference:
    @pytest.mark.parametrize("spec", [RM_SMALL, RM_LARGE], ids=lambda spec: spec.name)
    def test_two_epoch_fit_is_bit_identical(self, spec):
        dataset = small_criteo()
        model = build_model(spec, dataset.table_sizes, num_dense=dataset.num_dense, seed=5)
        assert isinstance(model, DLRM)
        reference = ReferenceDLRM(model.config)
        for p, q in zip(model.parameters(), reference.parameters(), strict=True):
            assert same_bytes(p, q)

        history = Trainer(model, lr=0.005, batch_size=256, seed=5).fit(dataset, epochs=2)
        expected = ReferenceTrainer(reference, lr=0.005, batch_size=256, seed=5).fit(
            dataset, epochs=2
        )
        assert history.train_loss == expected.train_loss
        assert history.test_loss == expected.test_loss
        assert history.test_error == expected.test_error
        for p, q in zip(model.parameters(), reference.parameters(), strict=True):
            assert same_bytes(p, q)
        for p, q in zip(model.gradients(), reference.gradients(), strict=True):
            assert same_bytes(p, q)
        # Once fit restores row order, two fresh forwards read what its last
        # one-pass epoch end recorded.
        test = dataset.test
        assert reference_error(model, test) == history.test_error[-1]
        logits = model.forward(test.dense, test.sparse)
        assert BCEWithLogitsLoss().forward(logits, test.labels) == history.test_loss[-1]


def optimizer_state(optimizer: Adam) -> list[np.ndarray]:
    """Every per-element state array of ``optimizer``: Adam's m and v."""
    return [*optimizer._m, *optimizer._v]


def trained_pair(spec, dataset):
    """A trainer and a reference trainer over bit-equal copies of one model."""
    model = build_model(spec, dataset.table_sizes, num_dense=dataset.num_dense, seed=5)
    reference = ReferenceDLRM(model.config)
    trainer = Trainer(model, lr=0.005, batch_size=128, seed=5)
    expected = ReferenceTrainer(reference, lr=0.005, batch_size=128, seed=5)
    return trainer, expected


def assert_fits_match(trainer, expected, dataset, epochs=2):
    """One ``fit`` of each trainer on ``dataset`` leaves the same bytes everywhere."""
    history = trainer.fit(dataset, epochs=epochs)
    assert history == expected.fit(dataset, epochs=epochs)
    model, reference = trainer.model, expected.model
    pairs = [
        (model.parameters(), reference.parameters()),
        (model.gradients(), reference.gradients()),
        (optimizer_state(trainer.optimizer), optimizer_state(expected.optimizer)),
    ]
    for arrays, expected_arrays in pairs:
        for p, q in zip(arrays, expected_arrays, strict=True):
            assert same_bytes(p, q)
    assert trainer.optimizer.extents == [None] * len(trainer.optimizer.params)


def half_rows(dataset, half):
    """``dataset`` with every train id moved into the lower (0) or upper (1) half of its table."""
    sizes = np.asarray(dataset.table_sizes)
    low = sizes // 2
    ids = dataset.train.sparse
    ids = ids % low if half == 0 else low + ids % (sizes - low)
    return replace(dataset, train=replace(dataset.train, sparse=ids))


class TestLiveRowStepsMatchDenseSteps:
    """``Trainer.fit`` steps each table's live rows only; the reference steps every row."""

    def test_consecutive_fits_on_different_rows(self):
        dataset = small_criteo()
        trainer, expected = trained_pair(RM_SMALL, dataset)
        # The second fit's rows are disjoint from the first's, which stay live.
        for half in (0, 1):
            assert_fits_match(trainer, expected, half_rows(dataset, half))
        model, reference = trainer.model, expected.model
        model.zero_grad()
        reference.zero_grad()
        assert not any(g.any() for g in model.gradients())
        # The rows of fit's last forward are recorded in row order, too.
        grad = np.random.default_rng(2).standard_normal((len(dataset.test), 1))
        model.backward(grad)
        reference.backward(grad)
        for p, q in zip(model.gradients(), reference.gradients(), strict=True):
            assert same_bytes(p, q)

    def test_tables_every_train_row_or_no_train_row_uses(self):
        sizes = (1, 3, *(40 + 23 * t for t in range(24)))
        generator = CriteoSynthetic(CriteoConfig(table_sizes_override=sizes))
        dataset = generator.build_dataset(num_train=700, num_test=300, seed=5)
        for t, size in enumerate(sizes[:2]):
            assert np.unique(dataset.train.sparse[:, t]).size == size
        # Every sample names one row per table, so only an empty split leaves
        # a table with no train row.
        empty = replace(dataset, train=dataset.train.take(np.arange(0)))
        trainer, expected = trained_pair(RM_LARGE, dataset)
        for split in (empty, dataset, empty):
            assert_fits_match(trainer, expected, split)

    @pytest.mark.parametrize(
        "table, bad_id, shown",
        # Table 2 has 86 rows; table 25, the last, 615 from stacked row 7,900,
        # so -7,901 is stacked row -1, which numpy would read as the last row.
        [(2, 86, r"\[0, 86\) in table 2: min=0, max=86$"), (25, -7901, r"in table 25: min=-7901,")],
    )
    def test_ids_forward_refuses_still_raise_its_error(self, table, bad_id, shown):
        """An id outside its table is never renamed into range: ``forward`` refuses it."""
        dataset = small_criteo()
        ids = dataset.train.sparse.copy()
        ids[3, table] = bad_id
        broken = replace(dataset, train=replace(dataset.train, sparse=ids))
        trainer, _ = trained_pair(RM_SMALL, dataset)
        before = [p.copy() for p in trainer.model.parameters()]
        with pytest.raises(IndexError, match=shown):
            trainer.fit(broken, epochs=1)
        for p, q in zip(trainer.model.parameters(), before, strict=True):
            assert same_bytes(p, q)

    def test_unsigned_ids_train_as_signed_ones(self):
        dataset = small_criteo()
        unsigned = replace(
            dataset,
            train=replace(dataset.train, sparse=dataset.train.sparse.astype(np.uint64)),
            test=replace(dataset.test, sparse=dataset.test.sparse.astype(np.uint64)),
        )
        trainer, expected = trained_pair(RM_SMALL, dataset)
        assert_fits_match(trainer, expected, unsigned)

    def test_a_step_leaves_the_rows_past_the_extent_bit_for_bit(self):
        """On +0.0 gradient and state a step is the identity, -0.0, NaN and inf included."""
        rng = np.random.default_rng(3)
        start = rng.standard_normal((6, 3))
        start[4:] = [[-0.0, np.nan, np.inf], [0.0, -np.inf, 5e-324]]
        params = [start.copy(), start.copy()]
        expected = [a.copy() for a in params]
        grads = [np.zeros_like(a) for a in params]
        expected_grads = [np.zeros_like(a) for a in params]
        optimizer = Adam(params, grads, lr=0.1)
        optimizer.extents = [4, 0]
        reference = ReferenceAdam(expected, expected_grads, lr=0.1)
        for _ in range(3):
            grads[0][:4] = expected_grads[0][:4] = rng.standard_normal((4, 3))
            optimizer.step()
            reference.step()
        for a, b in zip(params, expected, strict=True):
            assert same_bytes(a, b)
        for a, b in zip(optimizer_state(optimizer), optimizer_state(reference), strict=True):
            assert same_bytes(a, b)
        assert same_bytes(params[1], start)

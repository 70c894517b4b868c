"""Equivalence suite: stacked embeddings, upper-triangle interactions and one-forward evaluation.

Table 1 training keeps every trained parameter, loss and error of the
per-table code it replaced.  Each test runs the production code and the
reference in ``tests/nn_reference.py`` on the same inputs and requires equal
bytes (``tobytes()``), not closeness: a numpy build on which the two forms
round differently fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CriteoConfig, CriteoSynthetic
from repro.models.dlrm import DLRM, pairwise_interactions
from repro.models.training import Trainer, evaluate_error
from repro.models.zoo import RM_LARGE, RM_SMALL, build_model
from repro.nn import EmbeddingBagCollection
from tests.nn_reference import (
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
        for table, ref in zip(stacked.tables, reference.tables):
            assert same_bytes(table.weight, ref.weight)

        rng = np.random.default_rng(seed + 1)
        indices = rng.integers(0, sizes, size=(batch, len(sizes)))
        indices[-1] = indices[0]  # at least one repeated row per table
        # A non-zero prior gradient: add.at must start from it.
        for table, ref in zip(stacked.tables, reference.tables):
            prior = rng.standard_normal(ref.grad_weight.shape)
            table.grad_weight[...] = prior
            ref.grad_weight[...] = prior

        assert same_bytes(stacked.forward(indices), reference.forward(indices))
        grad_out = rng.standard_normal((batch, len(sizes) * dim))
        stacked.backward(grad_out)
        reference.backward(grad_out)
        for table, ref in zip(stacked.tables, reference.tables):
            assert same_bytes(table.grad_weight, ref.grad_weight)

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
        # The public evaluators read the same forward as fit's one-pass epoch end.
        assert evaluate_error(model, dataset.test) == reference_error(reference, dataset.test)
        trainer = Trainer(model)
        assert trainer.evaluate_loss(dataset.test) == history.test_loss[-1]

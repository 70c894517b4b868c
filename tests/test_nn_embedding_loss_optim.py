"""Unit tests for embeddings, losses and optimizers (repro.nn)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    BCEWithLogitsLoss,
    EmbeddingBagCollection,
    EmbeddingTable,
    MSELoss,
    SGD,
)


class TestEmbeddingTable:
    def test_lookup_returns_rows(self):
        table = EmbeddingTable(10, 4, rng=np.random.default_rng(0))
        idx = np.array([0, 3, 9])
        np.testing.assert_allclose(table.forward(idx), table.weight[idx])

    def test_bag_lookup_sums(self):
        table = EmbeddingTable(10, 4, rng=np.random.default_rng(0))
        idx = np.array([[0, 1], [2, 2]])
        expected = table.weight[idx].sum(axis=1)
        np.testing.assert_allclose(table.forward(idx), expected)

    def test_out_of_range_raises(self):
        table = EmbeddingTable(5, 2)
        with pytest.raises(IndexError):
            table.forward(np.array([5]))

    def test_float_indices_rejected(self):
        table = EmbeddingTable(5, 2)
        with pytest.raises(TypeError):
            table.forward(np.array([0.5]))

    def test_backward_accumulates_per_row(self):
        table = EmbeddingTable(6, 3, rng=np.random.default_rng(1))
        idx = np.array([2, 2, 4])
        table.forward(idx)
        grad = np.ones((3, 3))
        table.backward(grad)
        np.testing.assert_allclose(table.grad_weight[2], 2.0 * np.ones(3))
        np.testing.assert_allclose(table.grad_weight[4], np.ones(3))
        np.testing.assert_allclose(table.grad_weight[0], np.zeros(3))

    def test_storage_bytes(self):
        table = EmbeddingTable(100, 8)
        assert table.storage_bytes() == 100 * 8 * 4


class TestEmbeddingBagCollection:
    def test_concatenates_tables(self):
        coll = EmbeddingBagCollection([5, 7], 3, rng=np.random.default_rng(0))
        idx = np.array([[1, 2], [0, 6]])
        out = coll.forward(idx)
        assert out.shape == (2, 6)
        np.testing.assert_allclose(out[:, :3], coll.tables[0].weight[idx[:, 0]])
        np.testing.assert_allclose(out[:, 3:], coll.tables[1].weight[idx[:, 1]])

    def test_wrong_table_count_raises(self):
        coll = EmbeddingBagCollection([5, 7], 3)
        with pytest.raises(ValueError):
            coll.forward(np.array([[1, 2, 3]]))

    def test_tables_are_views_of_the_stack(self):
        coll = EmbeddingBagCollection([5, 7, 2], 3)
        assert coll.weight.shape == (14, 3)
        for table, start in zip(coll.tables, (0, 5, 12)):
            assert np.shares_memory(table.weight, coll.weight)
            assert np.shares_memory(table.grad_weight, coll.grad_weight)
            assert table.weight.base is coll.weight
            np.testing.assert_array_equal(table.weight, coll.weight[start : start + table.num_rows])

    def test_float_indices_rejected(self):
        coll = EmbeddingBagCollection([5, 7], 3)
        with pytest.raises(TypeError):
            coll.forward(np.array([[1.0, 2.0]]))

    def test_negative_index_rejected(self):
        coll = EmbeddingBagCollection([5, 7], 3)
        with pytest.raises(IndexError, match="table 1"):
            coll.forward(np.array([[1, 2], [0, -1]]))

    @pytest.mark.parametrize("index", [5, 6, 11])
    def test_index_past_its_own_table_rejected(self, index):
        # Stacked rows 5..11 exist (they are table 1's), but table 0 has 5 rows.
        coll = EmbeddingBagCollection([5, 7], 3)
        with pytest.raises(IndexError, match=r"\[0, 5\) in table 0"):
            coll.forward(np.array([[index, 0]]))

    def test_uneven_tables_return_their_own_rows(self):
        sizes = [3, 17, 1, 8, 30]
        coll = EmbeddingBagCollection(sizes, 4, rng=np.random.default_rng(2))
        idx = np.random.default_rng(3).integers(0, sizes, size=(50, len(sizes)))
        out = coll.forward(idx)
        assert out.shape == (50, len(sizes) * 4)
        for t, table in enumerate(coll.tables):
            np.testing.assert_array_equal(out[:, t * 4 : (t + 1) * 4], table.weight[idx[:, t]])

    def test_lookups_per_sample(self):
        coll = EmbeddingBagCollection([5] * 26, 4)
        assert coll.lookups_per_sample() == 26

    @given(num_tables=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_parameter_count_scales_with_tables(self, num_tables):
        coll = EmbeddingBagCollection([10] * num_tables, 4)
        assert coll.num_parameters() == num_tables * 10 * 4


class TestLosses:
    def test_bce_matches_reference(self):
        loss = BCEWithLogitsLoss()
        logits = np.array([0.0, 2.0, -2.0])
        targets = np.array([0.0, 1.0, 0.0])
        expected = np.mean(
            np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0) - logits * targets
        )
        assert loss.forward(logits, targets) == pytest.approx(expected)

    def test_bce_gradient_is_sigmoid_minus_target(self):
        loss = BCEWithLogitsLoss()
        logits = np.array([0.5, -1.0])
        targets = np.array([1.0, 0.0])
        loss.forward(logits, targets)
        grad = loss.backward().reshape(-1)
        probs = 1 / (1 + np.exp(-logits))
        np.testing.assert_allclose(grad, (probs - targets) / 2)

    def test_bce_extreme_logits_stable(self):
        loss = BCEWithLogitsLoss()
        value = loss.forward(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value) and value < 1e-6

    def test_bce_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss().forward(np.array([0.0]), np.array([2.0]))

    def test_mse_and_gradient(self):
        loss = MSELoss()
        value = loss.forward(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert value == pytest.approx(2.5)
        np.testing.assert_allclose(loss.backward().reshape(-1), np.array([1.0, 2.0]))


class TestOptimizers:
    def test_sgd_step(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, 0.5])
        SGD([p], [g], lr=0.1).step()
        np.testing.assert_allclose(p, [0.95, 1.95])

    def test_sgd_momentum_accumulates(self):
        p = np.array([1.0])
        g = np.array([1.0])
        opt = SGD([p], [g], lr=0.1, momentum=0.9)
        opt.step()
        opt.step()
        assert p[0] == pytest.approx(1.0 - 0.1 - 0.1 * 1.9)

    def test_adam_converges_on_quadratic(self):
        p = np.array([5.0])
        g = np.zeros(1)
        opt = Adam([p], [g], lr=0.2)
        for _ in range(200):
            g[...] = 2.0 * p
            opt.step()
        assert abs(p[0]) < 0.1

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            SGD([np.zeros(2)], [np.zeros(3)])

    def test_zero_grad(self):
        g = np.ones(3)
        opt = SGD([np.zeros(3)], [g], lr=0.1)
        opt.zero_grad()
        np.testing.assert_allclose(g, 0.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([np.zeros(1)], [np.zeros(1)], lr=0.0)
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], [np.zeros(1)], lr=-1.0)

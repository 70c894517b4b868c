"""Unit tests for the embedding collection, the loss and the optimizer (repro.nn)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Adam, BCEWithLogitsLoss, EmbeddingBagCollection


class TestEmbeddingBagCollection:
    def test_concatenates_tables(self):
        coll = EmbeddingBagCollection([5, 7], 3, rng=np.random.default_rng(0))
        idx = np.array([[1, 2], [0, 6]])
        out = coll.forward(idx)
        assert out.shape == (2, 6)
        first, second = coll.parameters()
        np.testing.assert_allclose(out[:, :3], first[idx[:, 0]])
        np.testing.assert_allclose(out[:, 3:], second[idx[:, 1]])

    def test_wrong_table_count_raises(self):
        coll = EmbeddingBagCollection([5, 7], 3)
        with pytest.raises(ValueError):
            coll.forward(np.array([[1, 2, 3]]))

    def test_tables_are_views_of_the_stack(self):
        coll = EmbeddingBagCollection([5, 7, 2], 3)
        assert coll.weight.shape == (14, 3)
        tables = zip(coll.parameters(), coll.gradients(), (0, 5, 12), (5, 7, 2))
        for weight, grad, start, rows in tables:
            assert weight.base is coll.weight
            assert grad.base is coll.grad_weight
            np.testing.assert_array_equal(weight, coll.weight[start : start + rows])
            np.testing.assert_array_equal(grad, coll.grad_weight[start : start + rows])
        # The same arrays on every call: an optimizer finds the tables it holds.
        assert all(a is b for a, b in zip(coll.parameters(), coll.parameters()))
        assert all(a is b for a, b in zip(coll.gradients(), coll.gradients()))

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
        for t, weight in enumerate(coll.parameters()):
            np.testing.assert_array_equal(out[:, t * 4 : (t + 1) * 4], weight[idx[:, t]])

    @given(num_tables=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_parameter_count_scales_with_tables(self, num_tables):
        coll = EmbeddingBagCollection([10] * num_tables, 4)
        assert sum(p.size for p in coll.parameters()) == num_tables * 10 * 4


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


class TestOptimizers:
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
            Adam([np.zeros(2)], [np.zeros(3)])

    def test_invalid_lr(self):
        # A finite lr keeps lr * 0.0 at 0.0: a row with no gradient or state stays put.
        for lr in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="learning rate must be positive and finite"):
                Adam([np.zeros(1)], [np.zeros(1)], lr=lr)

    @pytest.mark.parametrize("eps", [0.0, -1e-8, np.nan])
    def test_non_positive_eps_rejected(self, eps):
        """With eps <= 0 a row with no gradient or state would step to NaN or flip -0.0."""
        with pytest.raises(ValueError, match="eps must be positive"):
            Adam([np.zeros(1)], [np.zeros(1)], eps=eps)

"""Tests for DLRM, the model zoo and the trainer (repro.models)."""

import numpy as np
import pytest

from repro.data import CriteoSynthetic, CriteoConfig
from repro.models import (
    DLRM,
    DLRMConfig,
    Trainer,
    build_model,
    criteo_model_specs,
    movielens_model_specs,
)
from repro.models.zoo import MODEL_ZOO, RM_LARGE, RM_MED, RM_SMALL
from repro.nn import BCEWithLogitsLoss
from repro.nn.loss import sigmoid


def tiny_dlrm(seed=0):
    return DLRM(
        DLRMConfig(
            name="tiny",
            embedding_dim=4,
            mlp_bottom=(5, 8, 4),
            mlp_top=(16,),
            table_sizes=(10, 12, 8),
            seed=seed,
        )
    )


class TestDLRM:
    def test_forward_shape_and_range(self):
        model = tiny_dlrm()
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((6, 5))
        sparse = rng.integers(0, 8, size=(6, 3))
        logits = model.forward(dense, sparse)
        assert logits.shape == (6, 1)
        probs = sigmoid(logits.reshape(-1))
        assert np.all((probs >= 0) & (probs <= 1))

    def test_interaction_width(self):
        config = tiny_dlrm().config
        assert config.num_interaction_features == 4 * 3 // 2
        assert config.top_input_width == 4 + 6

    def test_bottom_must_end_in_embedding_dim(self):
        with pytest.raises(ValueError):
            DLRMConfig(
                name="bad",
                embedding_dim=4,
                mlp_bottom=(5, 8),
                mlp_top=(16,),
                table_sizes=(10,),
            )

    def test_wrong_dense_width_rejected(self):
        model = tiny_dlrm()
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 7)), np.zeros((2, 3), dtype=int))

    def test_training_reduces_loss(self):
        model = tiny_dlrm(seed=1)
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((256, 5))
        sparse = rng.integers(0, 8, size=(256, 3))
        labels = (dense[:, 0] + 0.5 * dense[:, 1] > 0).astype(float)
        from repro.nn import Adam, BCEWithLogitsLoss

        loss_fn = BCEWithLogitsLoss()
        opt = Adam(model.parameters(), model.gradients(), lr=0.01)
        losses = []
        for _ in range(30):
            model.zero_grad()
            logits = model.forward(dense, sparse)
            losses.append(loss_fn.forward(logits, labels))
            model.backward(loss_fn.backward())
            opt.step()
        assert losses[-1] < losses[0] * 0.9

    def test_cost_profile(self):
        # The hardware models price a DLRM from its spec, not a built instance.
        cost = RM_SMALL.reference_cost()
        assert cost.embedding_lookups_per_item == 26
        assert cost.embedding_dim == 4
        assert cost.macs_per_item > 0
        assert cost.mlp_layer_dims == ((13, 64), (64, 4), (64, 1))


class TestNeuMF:
    """NeuMF exists as zoo specs only: a paper-scale cost and a score noise."""

    def test_cost_profile(self):
        cost = movielens_model_specs()[0].reference_cost()
        assert cost.embedding_lookups_per_item == 4
        assert cost.macs_per_item > 0


class TestModelZoo:
    def test_zoo_contains_paper_models(self):
        assert {"RMsmall", "RMmed", "RMlarge"}.issubset(MODEL_ZOO)
        assert MODEL_ZOO["RMlarge"].reference_macs_per_item == 180_000

    def test_pareto_ordering(self):
        specs = criteo_model_specs()
        macs = [s.reference_macs_per_item for s in specs]
        errors = [s.paper_error_percent for s in specs]
        noises = [s.score_noise for s in specs]
        assert macs == sorted(macs)
        assert errors == sorted(errors, reverse=True)
        assert noises == sorted(noises, reverse=True)

    def test_reference_costs_match_table1(self):
        assert RM_SMALL.reference_storage_bytes == 1 * 1024**3
        assert RM_MED.reference_storage_bytes == 4 * 1024**3
        assert RM_LARGE.reference_storage_bytes == 8 * 1024**3
        assert RM_SMALL.embedding_dim == 4
        assert RM_MED.embedding_dim == 16
        assert RM_LARGE.embedding_dim == 32

    def test_build_model_dlrm_and_neumf(self):
        dlrm = build_model(RM_SMALL, [50] * 26, num_dense=13)
        assert isinstance(dlrm, DLRM)
        # NeuMF exists as specs (a reference cost and score noise) only.
        for spec in movielens_model_specs():
            with pytest.raises(ValueError, match=f"^{spec.name} is a NeuMF spec"):
                build_model(spec, [100, 80])

    def test_scaled_cost(self):
        cost = RM_LARGE.reference_cost()
        scaled = cost.scaled(4.0)
        assert scaled.reference_storage_bytes == 4 * cost.reference_storage_bytes
        with pytest.raises(ValueError):
            cost.scaled(0.0)


class TestTrainer:
    def test_criteo_training_improves_over_epochs(self):
        dataset = CriteoSynthetic(CriteoConfig(table_size=300)).build_dataset(
            num_train=1500, num_test=400
        )
        model = build_model(RM_SMALL, dataset.table_sizes, num_dense=13, seed=3)
        trainer = Trainer(model, lr=0.01, batch_size=128, seed=3)
        test = dataset.test
        pre_training_loss = BCEWithLogitsLoss().forward(
            model.forward(test.dense, test.sparse), test.labels
        )
        history = trainer.fit(dataset, epochs=3)
        assert min(history.test_loss) < pre_training_loss
        assert 0.0 <= history.final_test_error <= 100.0

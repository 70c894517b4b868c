"""Table 1 / Figure 2: the Pareto-optimal model hyperparameter sweep.

The paper sweeps DLRM hyperparameters (embedding dimension, MLP depth/width)
on Criteo and reports three Pareto-optimal models -- RMsmall, RMmed, RMlarge
-- whose test error decreases (21.36% -> 21.26% -> 21.13%) as compute and
storage grow.  This harness trains the scaled-down numpy instantiations of
those configurations on the synthetic Criteo dataset and reports measured
error alongside the published reference numbers.
"""

from __future__ import annotations

from repro.data.criteo import CriteoSynthetic
from repro.experiments.common import ExperimentResult
from repro.models.cost import GiB
from repro.models.training import Trainer
from repro.models.zoo import build_model, criteo_model_specs

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Pareto-optimal model hyperparameter sweep"
PAPER_REF = "Table 1 / Figure 2"
TAGS = ("criteo", "models", "training")

#: Training examples drawn from the synthetic Criteo dataset.
NUM_TRAIN = 6000
#: Held-out test examples.
NUM_TEST = 1500
#: Training epochs per model.
EPOCHS = 4


def run(seed: int = 7) -> ExperimentResult:
    """Train each Pareto-optimal configuration and report its test error."""
    dataset = CriteoSynthetic().build_dataset(num_train=NUM_TRAIN, num_test=NUM_TEST, seed=seed)
    result = ExperimentResult(name="table1_pareto_models")
    for spec in criteo_model_specs():
        model = build_model(spec, dataset.table_sizes, num_dense=dataset.num_dense, seed=seed)
        trainer = Trainer(model, lr=0.005, batch_size=256, seed=seed)
        history = trainer.fit(dataset, epochs=EPOCHS)
        cost = spec.reference_cost()
        result.add(
            model=spec.name,
            embedding_dim=spec.embedding_dim,
            mlp_bottom="-".join(str(w) for w in spec.mlp_bottom),
            reference_size_gb=spec.reference_storage_bytes / GiB,
            reference_flops=cost.flops_per_item,
            paper_error_pct=spec.paper_error_percent,
            measured_error_pct=history.final_test_error,
            measured_test_loss=history.test_loss[-1],
        )
    result.note(
        "measured errors come from the scaled-down synthetic dataset; the paper "
        "column is the published Criteo Kaggle number"
    )
    return result

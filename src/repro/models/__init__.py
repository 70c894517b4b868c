"""Recommendation models: the trainable DLRM, the model zoo and the trainer.

* :class:`~repro.models.dlrm.DLRM` -- Facebook's Deep Learning Recommendation
  Model (bottom MLP over dense features, per-feature embedding tables, dot
  product feature interaction, top MLP producing a CTR score), built on the
  :mod:`repro.nn` substrate and trained on the Criteo-like dataset by
  :class:`~repro.models.training.Trainer` (Table 1).  It is the one
  trainable model.
* :mod:`repro.models.zoo` holds the Pareto-optimal configurations from
  Table 1 (RMsmall / RMmed / RMlarge) plus the MovieLens NeuMF presets.
  NeuMF exists as :class:`~repro.models.zoo.ModelSpec` entries only: the
  MovieLens experiments need its paper-scale cost and ``score_noise``, not a
  trained instance.
* :mod:`repro.models.cost` holds the compute/memory cost profile that the
  hardware models consume, which each spec's ``reference_cost`` derives.
"""

from repro.models.cost import ModelCost
from repro.models.dlrm import DLRM, DLRMConfig
from repro.models.zoo import (
    MODEL_ZOO,
    ModelSpec,
    build_model,
    criteo_model_specs,
    movielens_model_specs,
)
from repro.models.training import TrainingHistory, Trainer

__all__ = [
    "ModelCost",
    "DLRM",
    "DLRMConfig",
    "ModelSpec",
    "MODEL_ZOO",
    "criteo_model_specs",
    "movielens_model_specs",
    "build_model",
    "Trainer",
    "TrainingHistory",
]

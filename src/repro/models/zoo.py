"""Model zoo: the Pareto-optimal configurations used throughout the paper.

Table 1 of the paper defines three Pareto-optimal DLRM configurations for
Criteo (RMsmall / RMmed / RMlarge); the MovieLens experiments use three NeuMF
configurations of analogous small/medium/large complexity.  Each entry records

* the architecture hyperparameters needed to instantiate the numpy model,
* the paper-scale reference cost (model size in GB, MLP compute per item,
  published test error), and
* ``score_noise`` -- the standard deviation of the ranking-score error this
  model family exhibits relative to the ground-truth relevance.  The quality
  simulator (:mod:`repro.quality`) uses it to evaluate NDCG across the huge
  multi-stage design space without retraining a model per configuration,
  exactly as the paper's own methodology evaluates quality from trained-model
  score fidelity.

Lower ``score_noise`` corresponds to lower test error (a more accurate model
ranks items closer to the ideal order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.data.criteo import NUM_DENSE_FEATURES, NUM_TABLES
from repro.models.cost import FP32_BYTES, GiB, ModelCost
from repro.models.dlrm import DLRM, DLRMConfig
from repro.models.neumf import NeuMF, NeuMFConfig


@dataclass(frozen=True)
class ModelSpec:
    """A named model configuration plus its paper-scale reference cost."""

    name: str
    family: str  # "dlrm" or "neumf"
    embedding_dim: int
    mlp_bottom: tuple[int, ...]
    mlp_top: tuple[int, ...]
    reference_storage_bytes: int
    reference_macs_per_item: int
    paper_error_percent: float
    score_noise: float

    def __post_init__(self) -> None:
        if self.family not in ("dlrm", "neumf"):
            raise ValueError(f"unknown model family: {self.family!r}")
        if not 0 <= self.score_noise < math.inf:  # NaN fails both bounds
            raise ValueError(f"score_noise must be non-negative and finite, got {self.score_noise}")

    def reference_cost(self, num_tables: int = NUM_TABLES) -> ModelCost:
        """Paper-scale cost profile (used by analytic hardware models)."""
        lookups = num_tables if self.family == "dlrm" else 4
        mlp_params = _mlp_parameters(self.mlp_bottom) + _mlp_parameters(
            (self.mlp_top[0] if self.mlp_top else self.embedding_dim, 1)
        )
        embedding_rows = self.reference_storage_bytes // (self.embedding_dim * FP32_BYTES)
        return ModelCost(
            name=self.name,
            macs_per_item=self.reference_macs_per_item,
            embedding_lookups_per_item=lookups,
            embedding_dim=self.embedding_dim,
            mlp_parameters=mlp_params,
            embedding_rows=embedding_rows,
            reference_storage_bytes=self.reference_storage_bytes,
            mlp_layer_dims=self.mlp_layer_dims(),
        )

    def mlp_layer_dims(self) -> tuple[tuple[int, int], ...]:
        """(input, output) widths of the model's dense layers."""
        if self.family == "dlrm":
            bottom = tuple(
                (self.mlp_bottom[i], self.mlp_bottom[i + 1])
                for i in range(len(self.mlp_bottom) - 1)
            )
            top_head = self.mlp_top[0] if self.mlp_top else self.embedding_dim
            top_sizes = (top_head, *self.mlp_top[1:], 1)
            top = tuple((top_sizes[i], top_sizes[i + 1]) for i in range(len(top_sizes) - 1))
            return bottom + top
        mlp_sizes = (2 * self.embedding_dim, *self.mlp_top)
        layers = tuple((mlp_sizes[i], mlp_sizes[i + 1]) for i in range(len(mlp_sizes) - 1))
        return layers + ((self.embedding_dim + self.mlp_top[-1], 1),)


def _mlp_parameters(sizes: tuple[int, ...]) -> int:
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


# --------------------------------------------------------------------------- #
# Criteo / DLRM specs (Table 1)
# --------------------------------------------------------------------------- #
RM_SMALL = ModelSpec(
    name="RMsmall",
    family="dlrm",
    embedding_dim=4,
    mlp_bottom=(NUM_DENSE_FEATURES, 64, 4),
    mlp_top=(64,),
    reference_storage_bytes=1 * GiB,
    reference_macs_per_item=1_100,
    paper_error_percent=21.36,
    score_noise=0.30,
)

RM_MED = ModelSpec(
    name="RMmed",
    family="dlrm",
    embedding_dim=16,
    mlp_bottom=(NUM_DENSE_FEATURES, 64, 16),
    mlp_top=(64,),
    reference_storage_bytes=4 * GiB,
    reference_macs_per_item=2_000,
    paper_error_percent=21.26,
    score_noise=0.22,
)

RM_LARGE = ModelSpec(
    name="RMlarge",
    family="dlrm",
    embedding_dim=32,
    mlp_bottom=(NUM_DENSE_FEATURES, 512, 256, 128, 64, 32),
    mlp_top=(96,),
    reference_storage_bytes=8 * GiB,
    reference_macs_per_item=180_000,
    paper_error_percent=21.13,
    score_noise=0.12,
)

# --------------------------------------------------------------------------- #
# MovieLens / NeuMF specs (small / medium / large complexity tiers)
# --------------------------------------------------------------------------- #
NMF_SMALL = ModelSpec(
    name="NMFsmall",
    family="neumf",
    embedding_dim=8,
    mlp_bottom=(),
    mlp_top=(32, 16),
    reference_storage_bytes=int(0.05 * GiB),
    reference_macs_per_item=700,
    paper_error_percent=0.0,
    score_noise=0.28,
)

NMF_MED = ModelSpec(
    name="NMFmed",
    family="neumf",
    embedding_dim=16,
    mlp_bottom=(),
    mlp_top=(64, 32),
    reference_storage_bytes=int(0.2 * GiB),
    reference_macs_per_item=3_000,
    paper_error_percent=0.0,
    score_noise=0.20,
)

NMF_LARGE = ModelSpec(
    name="NMFlarge",
    family="neumf",
    embedding_dim=64,
    mlp_bottom=(),
    mlp_top=(256, 128, 64),
    reference_storage_bytes=int(0.8 * GiB),
    reference_macs_per_item=60_000,
    paper_error_percent=0.0,
    score_noise=0.11,
)

MODEL_ZOO: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (RM_SMALL, RM_MED, RM_LARGE, NMF_SMALL, NMF_MED, NMF_LARGE)
}


def get_model_spec(name: str) -> ModelSpec:
    """Look up a model spec by name (case-sensitive, e.g. ``"RMlarge"``)."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}") from None


def criteo_model_specs() -> list[ModelSpec]:
    """The Criteo Pareto frontier, smallest to largest."""
    return [RM_SMALL, RM_MED, RM_LARGE]


def movielens_model_specs() -> list[ModelSpec]:
    """The MovieLens Pareto frontier, smallest to largest."""
    return [NMF_SMALL, NMF_MED, NMF_LARGE]


def build_model(
    spec: ModelSpec,
    table_sizes: list[int] | tuple[int, ...],
    num_dense: int | None = None,
    seed: int = 0,
):
    """Instantiate a trainable numpy model for ``spec`` on a given dataset.

    ``table_sizes`` comes from the dataset (:class:`repro.data.Dataset`):
    for DLRM it is the per-categorical-feature table sizes, for NeuMF it is
    ``[num_users, num_items]``.
    """
    if spec.family == "dlrm":
        if num_dense is None:
            num_dense = spec.mlp_bottom[0]
        bottom = (num_dense, *spec.mlp_bottom[1:])
        config = DLRMConfig(
            name=spec.name,
            embedding_dim=spec.embedding_dim,
            mlp_bottom=bottom,
            mlp_top=spec.mlp_top,
            table_sizes=tuple(table_sizes),
            reference_storage_bytes=spec.reference_storage_bytes,
            seed=seed,
        )
        return DLRM(config)
    if spec.family == "neumf":
        if len(table_sizes) != 2:
            raise ValueError(
                "NeuMF requires table_sizes=[num_users, num_items], got "
                f"{len(table_sizes)} entries"
            )
        config = NeuMFConfig(
            name=spec.name,
            num_users=int(table_sizes[0]),
            num_items=int(table_sizes[1]),
            embedding_dim=spec.embedding_dim,
            mlp_hidden=spec.mlp_top,
            reference_storage_bytes=spec.reference_storage_bytes,
            seed=seed,
        )
        return NeuMF(config)
    raise ValueError(f"unknown model family: {spec.family!r}")

"""Multi-stage pipeline configurations and their aggregate demands.

A :class:`PipelineConfig` is the unit the RecPipe scheduler reasons about: an
ordered list of stages, each pairing one Pareto-optimal model with the number
of candidate items it ranks.  The module also derives the aggregate compute
and embedding-traffic demands of a configuration (the Figure 1c comparison)
and converts configurations into the quality simulator's funnel description.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from repro.data.criteo import NUM_TABLES
from repro.models.cost import ModelCost
from repro.models.zoo import ModelSpec
from repro.quality.funnel import SERVE_K_DEFAULT, FunnelStage


@dataclass(frozen=True)
class Stage:
    """One stage of a ranking funnel: a model and how many items it ranks."""

    model: ModelSpec
    num_items: int

    def __post_init__(self) -> None:
        """Validate the stage's item count."""
        if self.num_items <= 0:
            raise ValueError(f"num_items must be positive, got {self.num_items}")

    def reference_cost(self, num_tables: int = NUM_TABLES) -> ModelCost:
        """Per-item compute/storage cost of this stage's model."""
        return self.model.reference_cost(num_tables=num_tables)


@dataclass(frozen=True)
class PipelineConfig:
    """An ordered multi-stage pipeline configuration."""

    stages: tuple[Stage, ...]
    serve_k: int = SERVE_K_DEFAULT

    def __post_init__(self) -> None:
        """Validate the stage ladder (monotone items, serve_k reachable)."""
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        if self.serve_k <= 0:
            raise ValueError("serve_k must be positive")
        for prev, cur in zip(self.stages, self.stages[1:]):
            if cur.num_items > prev.num_items:
                raise ValueError(
                    "stages must rank progressively fewer items, got "
                    f"{prev.num_items} -> {cur.num_items}"
                )
        if self.stages[-1].num_items < self.serve_k:
            raise ValueError(f"the last stage must rank at least serve_k={self.serve_k} items")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_stages(self) -> int:
        """Number of stages in the funnel."""
        return len(self.stages)

    @cached_property
    def name(self) -> str:
        """Canonical label, e.g. ``RMsmall@4096 -> RMlarge@512``."""
        return " -> ".join(f"{s.model.name}@{s.num_items}" for s in self.stages)

    def stage_costs(self, num_tables: int = NUM_TABLES) -> list[ModelCost]:
        """Per-stage reference model costs, in funnel order."""
        return [stage.reference_cost(num_tables) for stage in self.stages]

    def stage_items(self) -> list[int]:
        """Per-stage items-ranked counts, in funnel order."""
        return [stage.num_items for stage in self.stages]

    def funnel_stages(self) -> list[FunnelStage]:
        """Quality-simulator description of this pipeline."""
        return [
            FunnelStage(score_noise=stage.model.score_noise, num_items=stage.num_items)
            for stage in self.stages
        ]

    # ------------------------------------------------------------------ #
    # Aggregate demands (Figure 1c)
    # ------------------------------------------------------------------ #
    def total_macs(self, num_tables: int = NUM_TABLES) -> float:
        """MLP multiply-accumulates needed to process one query end to end."""
        return float(
            sum(
                stage.num_items * stage.reference_cost(num_tables).macs_per_item
                for stage in self.stages
            )
        )

    def total_embedding_bytes(self, num_tables: int = NUM_TABLES) -> float:
        """Embedding bytes fetched to process one query end to end."""
        return float(
            sum(
                stage.num_items * stage.reference_cost(num_tables).embedding_bytes_per_item
                for stage in self.stages
            )
        )


def enumerate_pipelines(
    model_specs: Sequence[ModelSpec],
    first_stage_items: Sequence[int],
    later_stage_items: Sequence[int],
    max_stages: int = 3,
    serve_k: int = SERVE_K_DEFAULT,
) -> list[PipelineConfig]:
    """Exhaustively enumerate multi-stage configurations (RecPipe step 1).

    The frontend stage draws its item count from ``first_stage_items`` (the
    candidate pool sizes); later stages draw from ``later_stage_items`` and
    must rank strictly fewer items than their predecessor.  Only
    configurations whose final stage uses the most accurate model are kept
    -- matching the paper's observation that high quality requires the
    backend to run the most accurate network.
    """
    if max_stages <= 0:
        raise ValueError("max_stages must be positive")
    specs = list(model_specs)
    largest = max(specs, key=lambda s: s.reference_macs_per_item)
    configs: list[PipelineConfig] = []
    for num_stages in range(1, max_stages + 1):
        for models in product(specs, repeat=num_stages):
            if models[-1].name != largest.name:
                continue
            for items in _item_ladders(
                first_stage_items, later_stage_items, num_stages, serve_k
            ):
                stages = tuple(Stage(model=m, num_items=n) for m, n in zip(models, items))
                configs.append(PipelineConfig(stages=stages, serve_k=serve_k))
    return configs


def _item_ladders(
    first_stage_items: Sequence[int],
    later_stage_items: Sequence[int],
    num_stages: int,
    serve_k: int,
) -> Iterable[tuple[int, ...]]:
    """All strictly decreasing item ladders of length ``num_stages``."""
    laters = sorted({n for n in later_stage_items if n >= serve_k})
    for first in first_stage_items:
        if num_stages == 1:
            if first >= serve_k:
                yield (first,)
            continue
        for rest in product(laters, repeat=num_stages - 1):
            ladder = (first, *rest)
            if all(a > b for a, b in zip(ladder, ladder[1:])):
                yield ladder

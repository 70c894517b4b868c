"""Shared infrastructure for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.pipeline import PipelineConfig, Stage
from repro.core.scheduler import RecPipeScheduler
from repro.data.criteo import CANDIDATES_PER_QUERY, NUM_TABLES, CriteoSynthetic
from repro.data.movielens import MovieLensConfig, MovieLensSynthetic
from repro.models.zoo import (
    NMF_LARGE,
    NMF_MED,
    NMF_SMALL,
    RM_LARGE,
    RM_MED,
    RM_SMALL,
)
from repro.quality.evaluator import QualityEvaluator
from repro.serving.service_times import CachedServiceConfig
from repro.serving.simulator import SimulationConfig

#: Candidate-pool size used throughout the Criteo deep dive.
CRITEO_POOL = CANDIDATES_PER_QUERY
#: Number of ranking queries used by the quality evaluator in experiments.
NUM_QUALITY_QUERIES = 6


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus free-form notes."""

    name: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, key: str) -> list:
        return [row[key] for row in self.rows]

    def filtered(self, **criteria) -> list[dict]:
        """Rows matching every key=value criterion."""
        return [row for row in self.rows if all(row.get(k) == v for k, v in criteria.items())]

    def format_table(self) -> str:
        """Plain-text rendering of the rows and notes (what ``recpipe`` prints)."""
        if not self.rows:
            return f"== {self.name} ==\n(no rows)"
        keys = list(self.rows[0].keys())
        cells = [[_fmt(row.get(k)) for k in keys] for row in self.rows]
        widths = [max(len(k), *(len(line[i]) for line in cells)) for i, k in enumerate(keys)]
        header = " | ".join(k.ljust(width) for k, width in zip(keys, widths))
        sep = "-+-".join("-" * width for width in widths)
        lines = [f"== {self.name} ==", header, sep]
        for line in cells:
            lines.append(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def merge_panels(name: str, *parts: ExperimentResult) -> ExperimentResult:
    """One figure from its panels: each row gains a leading ``panel`` column.

    Rows keep part order, so the CSV header (first-seen key order) is
    ``panel`` followed by the first part's columns; notes follow the rows'
    part order too.
    """
    merged = ExperimentResult(name=name)
    for part in parts:
        merged.rows.extend({"panel": part.name, **row} for row in part.rows)
        merged.notes.extend(part.notes)
    return merged


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


# --------------------------------------------------------------------------- #
# Canonical Criteo pipelines (the configurations the paper's deep dive uses)
# --------------------------------------------------------------------------- #
def criteo_one_stage() -> PipelineConfig:
    """Single-stage baseline: RMlarge ranks the full candidate pool."""
    return PipelineConfig((Stage(RM_LARGE, CRITEO_POOL),))


def criteo_two_stage() -> PipelineConfig:
    """The paper's optimal two-stage Criteo design: RMsmall -> RMlarge."""
    return PipelineConfig((Stage(RM_SMALL, CRITEO_POOL), Stage(RM_LARGE, 512)))


def criteo_two_stage_med() -> PipelineConfig:
    """The RMmed-frontend alternative the paper compares against."""
    return PipelineConfig((Stage(RM_MED, CRITEO_POOL), Stage(RM_LARGE, 512)))


def criteo_three_stage() -> PipelineConfig:
    """Three-stage Criteo funnel: RMsmall -> RMmed -> RMlarge."""
    return PipelineConfig((Stage(RM_SMALL, CRITEO_POOL), Stage(RM_MED, 1024), Stage(RM_LARGE, 256)))


def movielens_pipelines(pool: int = 1024) -> dict[int, PipelineConfig]:
    """One/two/three-stage NeuMF funnels for the MovieLens datasets."""
    return {
        1: PipelineConfig((Stage(NMF_LARGE, pool),)),
        2: PipelineConfig((Stage(NMF_SMALL, pool), Stage(NMF_LARGE, max(pool // 4, 64)))),
        3: PipelineConfig(
            (
                Stage(NMF_SMALL, pool),
                Stage(NMF_MED, max(pool // 4, 128)),
                Stage(NMF_LARGE, max(pool // 8, 64)),
            )
        ),
    }


# --------------------------------------------------------------------------- #
# Cached evaluators and schedulers (experiments share workloads)
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=4)
def criteo_quality_evaluator(pool: int) -> QualityEvaluator:
    """The shared Criteo quality evaluator over ``pool``-candidate queries."""
    dataset = CriteoSynthetic()
    queries = dataset.sample_ranking_queries(NUM_QUALITY_QUERIES, candidates_per_query=pool)
    return QualityEvaluator(queries)


@lru_cache(maxsize=4)
def movielens_quality_evaluator(preset: str, pool: int) -> QualityEvaluator:
    """The shared MovieLens-``preset`` quality evaluator over ``pool``-candidate queries."""
    config = MovieLensConfig.ml_1m() if preset == "1m" else MovieLensConfig.ml_20m()
    dataset = MovieLensSynthetic(config=config, name=f"movielens-{preset}")
    queries = dataset.sample_ranking_queries(NUM_QUALITY_QUERIES, candidates_per_query=pool)
    return QualityEvaluator(queries)


def make_scheduler(
    evaluator: QualityEvaluator,
    num_queries: int = 2000,
    num_tables: int = NUM_TABLES,
    seed: int = 0,
    service: CachedServiceConfig | None = None,
) -> RecPipeScheduler:
    """A scheduler with a simulation budget small enough for CI-speed runs.

    ``service`` selects the per-query service-time model every simulation
    under the scheduler runs with (``None`` keeps deterministic service).
    """
    simulation = SimulationConfig.with_budget(num_queries, seed=seed, service=service)
    return RecPipeScheduler(evaluator, simulation=simulation, num_tables=num_tables)

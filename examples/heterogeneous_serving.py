"""Heterogeneous serving: choose between CPU-only, GPU-only and GPU-CPU
mappings for a latency SLA and a target load (the Figure 8 workflow), for
both the Criteo-like and MovieLens-like workloads.

Run with:  python examples/heterogeneous_serving.py
"""

from repro.core import RecPipeScheduler
from repro.data import MovieLensConfig, MovieLensSynthetic
from repro.experiments.common import (
    CRITEO_POOL,
    criteo_one_stage,
    criteo_quality_evaluator,
    criteo_two_stage,
    movielens_pipelines,
)
from repro.quality import QualityEvaluator
from repro.serving import SimulationConfig

SLA_MS = 25.0


def evaluate_mappings(scheduler, mappings, qps):
    rows = []
    for label, (pipeline, platform) in mappings.items():
        evaluated = scheduler.evaluate(pipeline, platform, qps)
        rows.append((label, evaluated))
    return rows


def print_rows(title, rows):
    print(f"\n{title}")
    print(f"{'mapping':<24} {'NDCG':>7} {'p99 (ms)':>10} {'meets SLA':>10} {'capacity':>10}")
    for label, e in rows:
        p99 = float("inf") if e.saturated else e.p99_latency * 1e3
        meets = (not e.saturated) and p99 <= SLA_MS
        p99_text = "saturated" if e.saturated else f"{p99:.2f}"
        print(
            f"{label:<24} {e.quality:>7.2f} {p99_text:>10} {str(meets):>10} "
            f"{e.throughput_capacity:>10.0f}"
        )


def main() -> None:
    # Criteo: DLRM-based funnel, 26 embedding tables.
    criteo_scheduler = RecPipeScheduler(
        criteo_quality_evaluator(CRITEO_POOL),
        simulation=SimulationConfig.with_budget(2000),
        num_tables=26,
    )
    criteo_mappings = {
        "cpu 2-stage": (criteo_two_stage(), "cpu"),
        "gpu 1-stage": (criteo_one_stage(), "gpu"),
        "gpu-cpu 2-stage": (criteo_two_stage(), "gpu-cpu"),
    }
    for qps in (70, 500):
        rows = evaluate_mappings(criteo_scheduler, criteo_mappings, qps)
        print_rows(f"Criteo @ {qps} QPS (SLA {SLA_MS:.0f} ms)", rows)

    # MovieLens: NeuMF funnel, 2 embedding tables, MLP-dominated.
    ml = MovieLensSynthetic(MovieLensConfig.ml_1m(), name="movielens-1m")
    ml_queries = ml.sample_ranking_queries(4, candidates_per_query=1024)
    ml_scheduler = RecPipeScheduler(
        QualityEvaluator(ml_queries),
        simulation=SimulationConfig.with_budget(2000),
        num_tables=2,
    )
    pipelines = movielens_pipelines(1024)
    ml_mappings = {
        "cpu 2-stage": (pipelines[2], "cpu"),
        "gpu 1-stage": (pipelines[1], "gpu"),
        "gpu-cpu 2-stage": (pipelines[2], "gpu-cpu"),
    }
    rows = evaluate_mappings(ml_scheduler, ml_mappings, 500)
    print_rows("MovieLens-1M @ 500 QPS", rows)


if __name__ == "__main__":
    main()

"""Recommendation quality: NDCG and multi-stage ranking-funnel simulation.

The paper's central observation is that *quality* (how relevant the served
list of items is, measured with NDCG over the top-64 items) differs from
*accuracy* (per-item prediction error): quality depends both on how accurate
each stage's model is and on how many candidate items are ranked.  This
package provides

* :func:`~repro.quality.metrics.dcg` / :func:`~repro.quality.metrics.ndcg` --
  the ranking metrics,
* :class:`~repro.quality.funnel.FunnelStage` and
  :func:`~repro.quality.funnel.simulate_funnel` -- simulation of a multi-stage
  ranking funnel where each stage scores its candidates with a model of a
  given fidelity and passes the top items to the next stage,
* :class:`~repro.quality.evaluator.QualityEvaluator` -- NDCG averaged over a
  workload of queries, memoized so the scheduler can sweep thousands of
  multi-stage configurations cheaply.
"""

from repro.quality.metrics import dcg, ideal_dcg, ndcg, ndcg_percent
from repro.quality.funnel import FunnelStage, simulate_funnel
from repro.quality.evaluator import QualityEvaluator

__all__ = [
    "dcg",
    "ideal_dcg",
    "ndcg",
    "ndcg_percent",
    "FunnelStage",
    "simulate_funnel",
    "QualityEvaluator",
]

"""Figure 3: recommendation quality vs accuracy.

Accuracy depends only on the model, but quality (NDCG of the served top-64)
depends on both the model and the number of candidate items ranked -- and the
paper observes that the items-ranked axis moves quality more than the model
axis does.  This harness produces the (model x items-ranked) NDCG table.
"""

from __future__ import annotations

from repro.experiments.common import CRITEO_POOL, ExperimentResult, criteo_quality_evaluator
from repro.models.zoo import criteo_model_specs

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Recommendation quality vs accuracy across the items-ranked axis"
PAPER_REF = "Figure 3"
TAGS = ("criteo", "quality", "models")

#: The items-ranked axis.
ITEM_COUNTS = (256, 512, 1024, 2048, 4096)


def run() -> ExperimentResult:
    """NDCG for every (Pareto model, items-ranked) pair."""
    evaluator = criteo_quality_evaluator(CRITEO_POOL)
    result = ExperimentResult(name="fig03_quality_vs_accuracy")
    for spec in criteo_model_specs():
        for items in ITEM_COUNTS:
            result.add(
                model=spec.name,
                paper_error_pct=spec.paper_error_percent,
                items_ranked=items,
                quality_ndcg=evaluator.evaluate_single_stage(spec.score_noise, items),
            )
    result.note(
        "quality rises with items ranked for every model and with model size at a "
        "fixed item count; the items-ranked axis dominates (paper Figure 3)"
    )
    return result

"""Figure 1(c): multi-stage vs single-stage demand reduction at iso-quality.

The paper reports that, at iso-quality on Criteo, decomposing the monolithic
RMlarge ranker into a two-stage RMsmall -> RMlarge funnel reduces MLP compute
by 7.5x and embedding memory traffic by 4.0x.
"""

from __future__ import annotations

from repro.experiments.common import (
    CRITEO_POOL,
    ExperimentResult,
    criteo_one_stage,
    criteo_quality_evaluator,
    criteo_two_stage,
)


#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Multi-stage vs single-stage demand reduction at iso-quality"
PAPER_REF = "Figure 1(c)"
TAGS = ("criteo", "motivation", "pipeline")


def run() -> ExperimentResult:
    """Compare per-query demands of the one- and two-stage Criteo designs."""
    one = criteo_one_stage()
    two = criteo_two_stage()
    evaluator = criteo_quality_evaluator(CRITEO_POOL)

    result = ExperimentResult(name="fig01c_motivation")
    for label, pipeline in (("one-stage", one), ("two-stage", two)):
        result.add(
            config=label,
            pipeline=pipeline.name,
            quality_ndcg=evaluator.evaluate_pipeline(pipeline),
            compute_macs=pipeline.total_macs(),
            embedding_bytes=pipeline.total_embedding_bytes(),
        )
    compute_reduction = one.total_macs() / two.total_macs()
    memory_reduction = one.total_embedding_bytes() / two.total_embedding_bytes()
    result.note(f"compute reduction {compute_reduction:.2f}x (paper: 7.5x)")
    result.note(f"embedding traffic reduction {memory_reduction:.2f}x (paper: 4.0x)")
    result.add(
        config="reduction",
        pipeline="one-stage / two-stage",
        quality_ndcg=0.0,
        compute_macs=compute_reduction,
        embedding_bytes=memory_reduction,
    )
    return result

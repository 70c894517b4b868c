"""Figure 10: RPAccel micro-architecture design-space exploration.

* **(a)** MAC utilization of each Pareto model on systolic arrays from 8x8 to
  128x128: small models waste most of a monolithic array, which motivates the
  reconfigurable fission design (monolithic ~30% vs reconfigurable ~60% on a
  two-stage pipeline).
* **(b)** the streaming bucketed top-k filtering unit: selection recall
  against an exact top-k, drain latency, and the weight-SRAM overhead with
  and without the CTR threshold (12% -> 3%).
* **(c)** average embedding memory access time (AMAT) as a function of the
  fraction of the static cache devoted to the frontend model, for different
  cache sizes and inter-stage filtering ratios.
"""

from __future__ import annotations

import numpy as np

from repro.accel.embedding_cache import EmbeddingCacheConfig, MultiStageEmbeddingCache
from repro.accel.systolic import ReconfigurableArray, SubArray, SystolicArrayConfig
from repro.accel.topk import TopKFilterConfig, TopKFilterUnit
from repro.experiments.common import CRITEO_POOL, ExperimentResult, merge_panels
from repro.models.zoo import RM_LARGE, RM_SMALL, criteo_model_specs

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "RPAccel micro-architecture design-space exploration"
PAPER_REF = "Figure 10"
TAGS = ("accel", "rpaccel", "design-space")

MB = 1024 * 1024

#: Panel (a): the square systolic-array sizes.
ARRAY_SIZES = (8, 16, 32, 64, 128)
#: Panel (b): how many of the Criteo pool's scores the filter keeps.
TOPK_KEEP = 512
#: Panel (b): the seed the scores are drawn from.
TOPK_SEED = 3
#: Panel (c): fractions of the static cache devoted to the frontend.
FRONTEND_FRACTIONS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
#: Panel (c): ``(static cache bytes, inter-stage filtering ratio)`` pairs.
CACHE_CONFIGS = ((4 * MB, 8), (12 * MB, 8), (12 * MB, 16))


def run_utilization() -> ExperimentResult:
    """Figure 10a: MAC utilization per model per array size."""
    result = ExperimentResult(name="fig10a_systolic_utilization")
    for spec in criteo_model_specs():
        cost = spec.reference_cost()
        for size in ARRAY_SIZES:
            sub = SubArray(rows=size, cols=size)
            result.add(
                model=spec.name,
                array=f"{size}x{size}",
                utilization=sub.model_utilization(cost),
            )
    # Monolithic vs reconfigurable utilization on the two-stage pipeline.
    array = ReconfigurableArray(SystolicArrayConfig())
    small, large = RM_SMALL.reference_cost(), RM_LARGE.reference_cost()
    mono = array.monolithic
    mono_util = 0.5 * (mono.model_utilization(small) + mono.model_utilization(large))
    fe = array.split(8, 0.3)[0]
    be = array.split(8, 0.7)[0]
    reconfig_util = array.average_utilization([(fe, small), (be, large)])
    result.note(f"monolithic two-stage utilization {mono_util:.2f} (paper ~0.30)")
    result.note(f"reconfigurable two-stage utilization {reconfig_util:.2f} (paper ~0.60)")
    result.add(model="two-stage", array="monolithic", utilization=mono_util)
    result.add(model="two-stage", array="reconfigurable", utilization=reconfig_util)
    return result


def run_topk() -> ExperimentResult:
    """Figure 10b: streaming top-k filter recall, latency and SRAM overhead."""
    rng = np.random.default_rng(TOPK_SEED)
    scores = rng.beta(2.0, 2.0, size=CRITEO_POOL)
    unit = TopKFilterUnit(TopKFilterConfig())
    selected = unit.select(scores, TOPK_KEEP)
    exact = set(np.argsort(scores)[::-1][:TOPK_KEEP].tolist())
    recall = len(exact.intersection(set(selected.tolist()))) / TOPK_KEEP
    result = ExperimentResult(name="fig10b_topk_filter")
    result.add(
        metric="recall_vs_exact_topk",
        value=recall,
    )
    result.add(metric="selected_count", value=float(len(selected)))
    result.add(metric="drain_cycles", value=unit.filter_cycles(CRITEO_POOL, TOPK_KEEP))
    result.add(
        metric="sram_overhead_no_threshold",
        value=unit.sram_overhead_fraction(CRITEO_POOL, apply_threshold=False),
    )
    result.add(
        metric="sram_overhead_with_threshold",
        value=unit.sram_overhead_fraction(CRITEO_POOL, apply_threshold=True),
    )
    result.note("paper: ~12% SRAM overhead without the CTR threshold, ~3% with it")
    return result


def run_cache_partition() -> ExperimentResult:
    """Figure 10c: AMAT vs fraction of the static cache devoted to the frontend."""
    small, large = RM_SMALL.reference_cost(), RM_LARGE.reference_cost()
    result = ExperimentResult(name="fig10c_cache_partition")
    for static_bytes, ratio in CACHE_CONFIGS:
        cache = MultiStageEmbeddingCache(
            EmbeddingCacheConfig(total_bytes=static_bytes + 4 * MB, lookahead_bytes=4 * MB)
        )
        backend_items = CRITEO_POOL // ratio
        for fraction in FRONTEND_FRACTIONS:
            amat = cache.pipeline_amat_cycles(
                [small, large], [CRITEO_POOL, backend_items], frontend_fraction=fraction
            )
            result.add(
                static_cache_mb=static_bytes / MB,
                filtering_ratio=f"1/{ratio}",
                frontend_fraction=fraction,
                amat_cycles=amat,
            )
    result.note(
        "larger caches lower AMAT everywhere; the optimal frontend fraction shifts "
        "with the inter-stage filtering ratio (paper Figure 10c)"
    )
    return result


def run() -> ExperimentResult:
    return merge_panels("fig10_design_space", run_utilization(), run_topk(), run_cache_partition())

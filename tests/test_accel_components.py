"""Tests for the accelerator component models (systolic array, top-k, caches)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    AreaPowerModel,
    EmbeddingCacheConfig,
    MultiStageEmbeddingCache,
    ReconfigurableArray,
    SsdScalingModel,
    SubArray,
    TopKFilterConfig,
    TopKFilterUnit,
)
from repro.hardware.memory import DramModel
from repro.models.zoo import RM_LARGE, RM_MED, RM_SMALL

MB = 1024 * 1024


class TestSystolicArray:
    def test_small_model_wastes_large_array(self):
        """Figure 10a: RMsmall utilization falls as the array grows."""
        cost = RM_SMALL.reference_cost()
        utils = [SubArray(n, n).model_utilization(cost) for n in (8, 32, 128)]
        assert utils[0] > utils[1] > utils[2]

    def test_large_model_uses_array_better_than_small(self):
        array = SubArray(128, 128)
        assert array.model_utilization(RM_LARGE.reference_cost()) > array.model_utilization(
            RM_SMALL.reference_cost()
        )

    def test_layer_utilization_bounds(self):
        array = SubArray(64, 64)
        assert array.layer_utilization(64, 64) == pytest.approx(1.0)
        assert 0.0 < array.layer_utilization(4, 4) < 0.01

    def test_mlp_cycles_scale_with_items(self):
        array = SubArray(64, 64)
        cost = RM_LARGE.reference_cost()
        assert array.mlp_cycles(cost, 4096) > 4 * array.mlp_cycles(cost, 512)

    def test_zero_items_free(self):
        assert SubArray(64, 64).mlp_cycles(RM_SMALL.reference_cost(), 0) == 0.0

    def test_split_preserves_total_macs(self):
        array = ReconfigurableArray()
        subs = array.split(8, 0.5)
        total = sum(s.total_macs for s in subs)
        assert total == pytest.approx(0.5 * array.config.total_macs, rel=0.15)

    def test_split_validation(self):
        array = ReconfigurableArray()
        with pytest.raises(ValueError):
            array.split(0)
        with pytest.raises(ValueError):
            array.split(4, 1.5)

    def test_reconfigurable_beats_monolithic_utilization(self):
        """Takeaway 5: fission roughly doubles utilization on two-stage pipelines."""
        array = ReconfigurableArray()
        small, large = RM_SMALL.reference_cost(), RM_LARGE.reference_cost()
        mono = array.monolithic
        mono_util = 0.5 * (mono.model_utilization(small) + mono.model_utilization(large))
        fe, be = array.split(8, 0.3)[0], array.split(8, 0.7)[0]
        reconfig = array.average_utilization([(fe, small), (be, large)])
        assert reconfig > 1.3 * mono_util

    @given(rows=st.integers(1, 256), cols=st.integers(1, 256))
    @settings(max_examples=25, deadline=None)
    def test_utilization_always_in_unit_interval(self, rows, cols):
        util = SubArray(rows, cols).model_utilization(RM_MED.reference_cost())
        assert 0.0 < util <= 1.0


class TestTopKFilter:
    def test_selects_high_scores(self):
        unit = TopKFilterUnit()
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=4096)
        selected = unit.select(scores, 512)
        assert len(selected) >= 512
        exact = set(np.argsort(scores)[::-1][:512].tolist())
        recall = len(exact & set(selected.tolist())) / 512
        assert recall > 0.95

    def test_threshold_filters_low_scores(self):
        unit = TopKFilterUnit(TopKFilterConfig(ctr_threshold=0.5))
        scores = np.full(100, 0.2)
        assert unit.select(scores, 10).size == 0

    def test_scores_must_be_probabilities(self):
        with pytest.raises(ValueError):
            TopKFilterUnit().select(np.array([1.5]), 1)

    def test_drain_cycles_small_relative_to_inference(self):
        """Takeaway 6: the filtering step costs a few hundred cycles."""
        unit = TopKFilterUnit()
        assert unit.filter_cycles(4096, 512) < 1000

    def test_sram_overhead_matches_paper(self):
        unit = TopKFilterUnit()
        without = unit.sram_overhead_fraction(4096, apply_threshold=False)
        with_threshold = unit.sram_overhead_fraction(4096, apply_threshold=True)
        assert 0.08 <= without <= 0.16  # paper: ~12%
        assert 0.01 <= with_threshold <= 0.05  # paper: ~3%

    @given(k=st.integers(1, 1024), n=st.integers(1, 8192))
    @settings(max_examples=25, deadline=None)
    def test_selection_never_exceeds_pool(self, k, n):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=n)
        selected = TopKFilterUnit().select(scores, k)
        assert len(set(selected.tolist())) == len(selected)
        assert np.all(selected < n)


class TestEmbeddingCache:
    def test_hit_rate_monotone_in_capacity(self):
        cache = MultiStageEmbeddingCache()
        cost = RM_LARGE.reference_cost()
        rates = [cache.static_hit_rate(cost, c * MB) for c in (1, 4, 12, 64)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_partition_prefers_larger_tables(self):
        cache = MultiStageEmbeddingCache()
        parts = cache.partition_static_cache([RM_SMALL.reference_cost(), RM_LARGE.reference_cost()])
        assert parts[1].capacity_bytes > parts[0].capacity_bytes

    def test_explicit_frontend_fraction(self):
        cache = MultiStageEmbeddingCache()
        parts = cache.partition_static_cache(
            [RM_SMALL.reference_cost(), RM_LARGE.reference_cost()], frontend_fraction=0.25
        )
        assert parts[0].capacity_bytes == pytest.approx(0.25 * cache.config.static_bytes, rel=0.01)

    def test_amat_between_sram_and_dram(self):
        cache = MultiStageEmbeddingCache()
        amat = cache.amat_cycles(0.5)
        assert cache.amat_cycles(1.0) < amat < cache.amat_cycles(0.0)

    def test_gather_overlap_reduces_time(self):
        cache = MultiStageEmbeddingCache()
        cost = RM_LARGE.reference_cost()
        full = cache.gather_seconds(cost, 512, 0.5, overlap_fraction=0.0)
        hidden = cache.gather_seconds(cost, 512, 0.5, overlap_fraction=0.8)
        assert hidden < full

    def test_pipeline_amat_has_interior_optimum_or_monotone(self):
        """Figure 10c: AMAT varies smoothly with the frontend fraction."""
        cache = MultiStageEmbeddingCache(
            EmbeddingCacheConfig(total_bytes=16 * MB, lookahead_bytes=4 * MB)
        )
        costs = [RM_SMALL.reference_cost(), RM_LARGE.reference_cost()]
        amats = [
            cache.pipeline_amat_cycles(costs, [4096, 512], frontend_fraction=f)
            for f in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(np.isfinite(amats))
        assert max(amats) < DramModel().access_cycles(128) + 1

    def test_invalid_lookahead_size(self):
        with pytest.raises(ValueError):
            EmbeddingCacheConfig(total_bytes=4 * MB, lookahead_bytes=8 * MB)


class TestAreaPower:
    def test_overheads_close_to_paper(self):
        area, power = AreaPowerModel().overheads()
        assert 0.05 <= area <= 0.20  # paper: 11%
        assert 0.20 <= power <= 0.50  # paper: 36%

    def test_rpaccel_strictly_larger(self):
        model = AreaPowerModel()
        assert model.rpaccel_breakdown().total_area_mm2 > model.baseline_breakdown().total_area_mm2


class TestSsdScaling:
    def test_fraction_in_ssd_grows_with_scale(self):
        model = SsdScalingModel()
        cost = RM_LARGE.reference_cost()
        fracs = [model.fraction_in_ssd(cost, s) for s in (1, 4, 32)]
        assert fracs[0] == 0.0
        assert fracs[1] < fracs[2] < 1.0

    def test_miss_rate_grows_with_scale(self):
        model = SsdScalingModel()
        cost = RM_LARGE.reference_cost()
        assert model.onchip_miss_rate(cost, 32) > model.onchip_miss_rate(cost, 1)

    def test_overlap_shrinks_with_scale(self):
        model = SsdScalingModel()
        cost = RM_LARGE.reference_cost()
        frontend = 0.3e-3
        overlaps = [model.overlap_fraction(cost, 512, s, frontend) for s in (1, 8, 32)]
        assert overlaps[0] >= overlaps[1] >= overlaps[2]

    def test_gather_time_grows_with_scale(self):
        model = SsdScalingModel()
        cost = RM_LARGE.reference_cost()
        assert model.backend_gather_seconds(cost, 512, 32) > model.backend_gather_seconds(
            cost, 512, 1
        )

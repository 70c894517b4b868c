"""Tests for NDCG and the ranking-funnel quality simulation (repro.quality)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CriteoSynthetic, CriteoConfig
from repro.models import build_model
from repro.models.zoo import RM_LARGE, RM_MED, RM_SMALL
from repro.quality import (
    FunnelStage,
    QualityEvaluator,
    dcg,
    ideal_dcg,
    ndcg,
    ndcg_percent,
    rank_with_model,
    simulate_funnel,
)


class TestMetrics:
    def test_dcg_of_known_list(self):
        rel = np.array([3.0, 2.0, 1.0])
        expected = 3 / np.log2(2) + 2 / np.log2(3) + 1 / np.log2(4)
        assert dcg(rel) == pytest.approx(expected)

    def test_dcg_empty(self):
        assert dcg(np.array([])) == 0.0

    def test_ideal_dcg_sorts_descending(self):
        pool = np.array([0.0, 3.0, 1.0, 2.0])
        assert ideal_dcg(pool, 2) == pytest.approx(dcg(np.array([3.0, 2.0])))

    def test_perfect_ranking_has_ndcg_one(self):
        pool = np.array([4.0, 3.0, 2.0, 1.0, 0.0])
        assert ndcg(pool[:3], pool, 3) == pytest.approx(1.0)
        assert ndcg_percent(pool[:3], pool, 3) == pytest.approx(100.0)

    def test_worst_ranking_lower_than_best(self):
        pool = np.array([4.0, 3.0, 2.0, 0.0, 0.0, 0.0])
        best = ndcg(np.array([4.0, 3.0, 2.0]), pool, 3)
        worst = ndcg(np.array([0.0, 0.0, 0.0]), pool, 3)
        assert worst < best

    def test_no_relevant_items_gives_one(self):
        pool = np.zeros(10)
        assert ndcg(pool[:3], pool, 3) == 1.0

    @given(k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_ndcg_bounded(self, k):
        rng = np.random.default_rng(k)
        pool = rng.integers(0, 5, size=50).astype(float)
        served = rng.permutation(pool)[:k]
        value = ndcg(served, pool, k)
        assert 0.0 <= value <= 1.0 + 1e-9


class TestFunnel:
    def graded_pool(self, n=2048, seed=0):
        rng = np.random.default_rng(seed)
        pool = np.zeros(n)
        pool[: n // 100] = 4.0
        pool[n // 100 : n // 20] = 2.0
        return rng.permutation(pool)

    def test_zero_noise_full_pool_is_perfect(self):
        pool = self.graded_pool()
        quality = simulate_funnel(pool, [FunnelStage(0.0, pool.size)], np.random.default_rng(0))
        assert quality == pytest.approx(100.0)

    def test_quality_increases_with_items_ranked(self):
        pool = self.graded_pool()
        rng_seed = 7
        q_small = simulate_funnel(pool, [FunnelStage(0.1, 256)], np.random.default_rng(rng_seed))
        q_large = simulate_funnel(pool, [FunnelStage(0.1, 2048)], np.random.default_rng(rng_seed))
        assert q_large > q_small

    def test_quality_decreases_with_noise(self):
        pool = self.graded_pool()
        q_accurate = simulate_funnel(pool, [FunnelStage(0.05, 2048)], np.random.default_rng(1))
        q_noisy = simulate_funnel(pool, [FunnelStage(0.8, 2048)], np.random.default_rng(1))
        assert q_accurate > q_noisy

    def test_two_stage_close_to_single_stage(self):
        pool = self.graded_pool(4096)
        single = np.mean(
            [
                simulate_funnel(pool, [FunnelStage(0.12, 4096)], np.random.default_rng(s))
                for s in range(5)
            ]
        )
        two = np.mean(
            [
                simulate_funnel(
                    pool,
                    [FunnelStage(0.30, 4096), FunnelStage(0.12, 512)],
                    np.random.default_rng(s),
                )
                for s in range(5)
            ]
        )
        assert two >= single - 2.0

    def test_stage_item_counts_must_decrease(self):
        pool = self.graded_pool()
        with pytest.raises(ValueError):
            simulate_funnel(
                pool,
                [FunnelStage(0.1, 256), FunnelStage(0.1, 512)],
                np.random.default_rng(0),
            )

    def test_sub_batching_degrades_gracefully(self):
        pool = self.graded_pool(4096)
        stages = [FunnelStage(0.25, 4096), FunnelStage(0.12, 512)]
        exact = np.mean([simulate_funnel(pool, stages, np.random.default_rng(s)) for s in range(4)])
        chunked = np.mean(
            [
                simulate_funnel(pool, stages, np.random.default_rng(s), sub_batches=4)
                for s in range(4)
            ]
        )
        assert chunked <= exact + 1e-9
        assert chunked >= exact - 3.0

    def test_invalid_arguments(self):
        pool = self.graded_pool()
        with pytest.raises(ValueError):
            simulate_funnel(pool, [], np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_funnel(pool, [FunnelStage(0.1, 64)], np.random.default_rng(0), serve_k=0)
        with pytest.raises(ValueError):
            FunnelStage(-0.1, 64)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_noise_rejected(self, noise):
        """A NaN score sorted first made ``simulate_funnel`` return an NDCG of 48.3."""
        with pytest.raises(ValueError, match="non-negative and finite"):
            FunnelStage(noise, 256)
        with pytest.raises(ValueError, match="non-negative and finite"):
            dataclasses.replace(RM_SMALL, score_noise=noise)


class TestQualityEvaluator:
    @pytest.fixture(scope="class")
    def evaluator(self):
        queries = CriteoSynthetic(CriteoConfig(table_size=400)).sample_ranking_queries(
            4, candidates_per_query=1024
        )
        return QualityEvaluator(queries)

    def test_deterministic_and_cached(self, evaluator):
        stages = [FunnelStage(0.2, 1024)]
        first = evaluator.evaluate(stages)
        second = evaluator.evaluate(stages)
        assert first == second

    def test_model_size_ordering(self, evaluator):
        q = {
            spec.name: evaluator.evaluate_single_stage(spec.score_noise, 1024)
            for spec in (RM_SMALL, RM_MED, RM_LARGE)
        }
        assert q["RMlarge"] > q["RMmed"] > q["RMsmall"]

    def test_quality_table_contents(self, evaluator):
        table = evaluator.quality_table({"RMsmall": 0.3}, [256, 1024])
        assert ("RMsmall", 256) in table and ("RMsmall", 1024) in table
        assert table[("RMsmall", 1024)] > table[("RMsmall", 256)]

    def test_requires_queries(self):
        with pytest.raises(ValueError):
            QualityEvaluator([])


class TestRankWithTrainedModel:
    def test_trained_model_beats_untrained(self):
        dataset_gen = CriteoSynthetic(CriteoConfig(table_size=300))
        dataset = dataset_gen.build_dataset(num_train=2500, num_test=400, seed=9)
        (query,) = dataset_gen.sample_ranking_queries(1, candidates_per_query=512, seed=21)

        untrained = build_model(RM_SMALL, dataset.table_sizes, num_dense=13, seed=5)
        q_untrained = np.mean(
            [
                rank_with_model(query, untrained, 512, rng=np.random.default_rng(s))
                for s in range(3)
            ]
        )
        from repro.models import Trainer

        trained = build_model(RM_SMALL, dataset.table_sizes, num_dense=13, seed=5)
        Trainer(trained, lr=0.01, batch_size=256, seed=5).fit(dataset, epochs=3)
        q_trained = np.mean(
            [
                rank_with_model(query, trained, 512, rng=np.random.default_rng(s))
                for s in range(3)
            ]
        )
        assert q_trained > q_untrained - 1.0

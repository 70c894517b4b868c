"""Tests for the synthetic datasets and distribution utilities (repro.data)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    CriteoConfig,
    CriteoSynthetic,
    CTRBatch,
    MovieLensConfig,
    MovieLensSynthetic,
    train_test_split,
)
from repro.data.distributions import (
    _zipf_guide,
    approx_zipf_hit_rate,
    hit_rate_for_cache,
    zipf_cdf,
    zipf_probabilities,
    zipf_sample,
)
from tests.data_reference import (
    reference_criteo_calibrate_bias,
    reference_movielens_calibrate_bias,
    reference_true_ctr,
    reference_true_preference,
    reference_zipf_ranks,
    reference_zipf_sample,
)


class TestDistributions:
    def test_zipf_probabilities_normalized_and_decreasing(self):
        probs = zipf_probabilities(100, alpha=1.05)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.diff(probs) <= 0)

    def test_zipf_sample_range(self):
        samples = zipf_sample(np.random.default_rng(0), 50, 1000)
        assert samples.min() >= 0 and samples.max() < 50

    def test_zipf_sample_is_skewed(self):
        samples = zipf_sample(np.random.default_rng(0), 1000, 20000, alpha=1.2)
        head_fraction = np.mean(samples < 10)
        assert head_fraction > 0.2

    def test_hit_rate_monotone_in_cache_size(self):
        rates = [hit_rate_for_cache(1000, c) for c in (0, 10, 100, 500, 1000)]
        assert rates[0] == 0.0 and rates[-1] == 1.0
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_approx_matches_exact_for_small_tables(self):
        exact = hit_rate_for_cache(5000, 500, alpha=1.05)
        approx = approx_zipf_hit_rate(5000, 500, alpha=1.05)
        assert approx == pytest.approx(exact, abs=0.08)

    @given(
        cached=st.lists(st.floats(min_value=0.0, max_value=2e8), min_size=2, max_size=2),
        total=st.integers(min_value=1, max_value=10**8),
        alpha=st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_approx_hit_rate_bounded(self, cached, total, alpha):
        """Rates lie in [0, 1] and never fall as the cache grows."""
        small, large = sorted(cached)
        low = approx_zipf_hit_rate(total, small, alpha)
        high = approx_zipf_hit_rate(total, large, alpha)
        assert 0.0 <= low <= high <= 1.0

    def test_approx_hit_rate_zero_below_one_cached_row(self):
        # The integral approximation of H(n, alpha) is negative for n < 1;
        # a cache smaller than one row must hit nothing, not go negative.
        assert approx_zipf_hit_rate(100, 0.5, 1.0) == 0.0
        assert approx_zipf_hit_rate(1000, 0.2, 0.5) == 0.0
        assert approx_zipf_hit_rate(100, 1.0, 1.0) > 0.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            zipf_probabilities(10, alpha=0.0)
        with pytest.raises(ValueError):
            zipf_sample(np.random.default_rng(0), 10, 5, alpha=float("nan"))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_items=st.one_of(st.integers(1, 64), st.integers(1, 300_000)),
        size=st.one_of(
            st.integers(0, 2_000),
            st.lists(st.integers(0, 40), min_size=1, max_size=3).map(tuple),
        ),
        alpha=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_zipf_sample_equals_choice_over_the_pmf(self, seed, num_items, size, alpha):
        drawn = zipf_sample(np.random.default_rng(seed), num_items, size, alpha)
        expected = reference_zipf_sample(np.random.default_rng(seed), num_items, size, alpha)
        assert drawn.dtype == expected.dtype
        assert drawn.shape == expected.shape
        np.testing.assert_array_equal(drawn, expected)

    @pytest.mark.parametrize("num_items", [1, 2, 7, 2_000, 300_000])
    @pytest.mark.parametrize("alpha", [0.05, 1.05, 1.5, 3.0])
    def test_guide_ranks_equal_the_cdf_search_at_every_edge(self, num_items, alpha):
        """Uniforms on and beside every CDF value and bucket edge, and across the widest bucket."""
        cdf = zipf_cdf(num_items, alpha)
        guide = _zipf_guide(num_items, alpha)
        buckets = guide.size - 1
        edges = np.arange(buckets) / buckets
        if buckets > 2**16:  # every bucket edge next to a CDF value, and a sample of the rest
            near = np.floor(cdf * buckets) / buckets
            sample = np.random.default_rng(0).choice(edges, 2**16, replace=False)
            edges = np.concatenate([near, near + 1 / buckets, sample])
        widest = int(np.argmax(np.diff(guide)))
        across = (widest + np.linspace(0.0, 1.0, 4097)[:-1]) / buckets
        points = np.concatenate([cdf, edges, across, [0.0, 1 - 2**-53]])
        uniforms = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, 1)])
        uniforms = uniforms[(uniforms >= 0) & (uniforms < 1)]
        drawn = zipf_sample(_Uniforms(uniforms), num_items, uniforms.size, alpha)
        np.testing.assert_array_equal(drawn, reference_zipf_ranks(num_items, alpha, uniforms))

    def test_a_steep_tail_bucket_spans_most_ranks(self):
        """At alpha 3 one bucket of 4n spans 299,067 of 300,000 ranks: no walk can cross it."""
        assert np.diff(_zipf_guide(300_000, 3.0)).max() == 299_067
        assert np.diff(_zipf_guide(300_000, 1.5)).max() == 205
        assert np.diff(_zipf_guide(300_000, 1.05)).max() == 3

    def test_memoized_tables_are_read_only(self):
        pmf, cdf = zipf_probabilities(1_000, 0.9), zipf_cdf(1_000, 0.9)
        assert zipf_probabilities(1_000, 0.9) is pmf
        assert cdf[-1] == 1.0
        for table in (pmf, cdf):
            with pytest.raises(ValueError):
                table[0] = 0.5


class _Uniforms:
    """A generator whose ``random(size)`` returns chosen uniforms."""

    def __init__(self, uniforms: np.ndarray) -> None:
        self.uniforms = uniforms

    def random(self, size):
        return self.uniforms.reshape(size)


class TestBiasCalibration:
    """The one-pass calibration equals the 40x ground-truth bisection bit for bit."""

    @pytest.mark.parametrize(
        "config",
        [
            CriteoConfig(),
            CriteoConfig(seed=5),
            CriteoConfig(positive_rate=0.1),
            CriteoConfig(table_sizes_override=(50,) * 26),
        ],
        ids=["default", "seed", "positive-rate", "table-sizes"],
    )
    def test_criteo_bias_matches_reference(self, config, monkeypatch):
        fast = CriteoSynthetic(config)
        with monkeypatch.context() as patch:
            patch.setattr(CriteoSynthetic, "_calibrate_bias", reference_criteo_calibrate_bias)
            reference = CriteoSynthetic(config)
        assert fast._bias == reference._bias
        batch = fast.sample_ctr_batch(256, seed=3)
        np.testing.assert_array_equal(
            fast.true_ctr(batch.dense, batch.sparse),
            reference_true_ctr(fast, batch.dense, batch.sparse),
        )

    @pytest.mark.parametrize(
        "config", [MovieLensConfig.ml_1m(), MovieLensConfig.ml_20m()], ids=["ml_1m", "ml_20m"]
    )
    def test_movielens_bias_matches_reference(self, config, monkeypatch):
        fast = MovieLensSynthetic(config)
        with monkeypatch.context() as patch:
            patch.setattr(MovieLensSynthetic, "_calibrate_bias", reference_movielens_calibrate_bias)
            reference = MovieLensSynthetic(config)
        assert fast._bias == reference._bias
        users, items = np.arange(50), np.arange(50)[::-1]
        np.testing.assert_array_equal(
            fast.true_preference(users, items),
            reference_true_preference(fast, users, items),
        )

    def test_calibration_sums_latents_once(self, monkeypatch):
        calls = []
        original = CriteoSynthetic._sum_latents

        def counting(self, sparse):
            calls.append(sparse.shape[0])
            return original(self, sparse)

        monkeypatch.setattr(CriteoSynthetic, "_sum_latents", counting)
        CriteoSynthetic()
        assert calls == [4096]


class TestCTRBatch:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CTRBatch(np.zeros((3, 2)), np.zeros((2, 2), dtype=int), np.zeros(3))

    def test_take_subsets(self):
        batch = CTRBatch(
            np.arange(6).reshape(3, 2).astype(float),
            np.zeros((3, 1), dtype=int),
            np.array([0.0, 1.0, 0.0]),
        )
        sub = batch.take(np.array([2, 0]))
        assert len(sub) == 2
        np.testing.assert_allclose(sub.labels, [0.0, 0.0])

    def test_train_test_split_partitions(self):
        batch = CTRBatch(
            np.random.default_rng(0).standard_normal((100, 3)),
            np.zeros((100, 2), dtype=int),
            np.zeros(100),
        )
        train, test = train_test_split(batch, 0.2, np.random.default_rng(1))
        assert len(train) + len(test) == 100
        assert len(test) == 20

    def test_split_fraction_validation(self):
        batch = CTRBatch(np.zeros((10, 1)), np.zeros((10, 1), dtype=int), np.zeros(10))
        with pytest.raises(ValueError):
            train_test_split(batch, 1.5, np.random.default_rng(0))


class TestCriteoSynthetic:
    @pytest.fixture(scope="class")
    def dataset(self):
        return CriteoSynthetic(CriteoConfig(table_size=500))

    def test_batch_shapes(self, dataset):
        batch = dataset.sample_ctr_batch(128)
        assert batch.dense.shape == (128, 13)
        assert batch.sparse.shape == (128, 26)
        assert set(np.unique(batch.labels)).issubset({0.0, 1.0})

    def test_positive_rate_near_target(self, dataset):
        batch = dataset.sample_ctr_batch(6000, seed=11)
        rate = batch.labels.mean()
        assert abs(rate - dataset.config.positive_rate) < 0.08

    def test_ctr_depends_on_features(self, dataset):
        batch = dataset.sample_ctr_batch(512, seed=5)
        ctr = dataset.true_ctr(batch.dense, batch.sparse)
        assert np.all((ctr >= 0) & (ctr <= 1))
        assert ctr.std() > 0.02

    def test_deterministic_given_seed(self, dataset):
        a = dataset.sample_ctr_batch(64, seed=3)
        b = dataset.sample_ctr_batch(64, seed=3)
        np.testing.assert_allclose(a.dense, b.dense)
        np.testing.assert_array_equal(a.sparse, b.sparse)

    def test_ranking_queries_structure(self, dataset):
        queries = dataset.sample_ranking_queries(3, candidates_per_query=256)
        assert len(queries) == 3
        for q in queries:
            assert q.num_candidates == 256
            assert q.relevance.max() == 4.0
            assert q.relevance.min() == 0.0

    def test_relevance_is_sparse(self, dataset):
        (query,) = dataset.sample_ranking_queries(1, candidates_per_query=512)
        assert np.mean(query.relevance >= 3.0) < 0.12

    def test_build_dataset_metadata(self, dataset):
        ds = dataset.build_dataset(num_train=400, num_test=100)
        assert ds.num_tables == 26
        assert len(ds.train) + len(ds.test) == 500


class TestMovieLensSynthetic:
    @pytest.fixture(scope="class")
    def dataset(self):
        return MovieLensSynthetic(MovieLensConfig(num_users=300, num_items=200))

    def test_preference_bounds(self, dataset):
        users = np.array([0, 1, 2])
        items = np.array([0, 1, 2])
        prefs = dataset.true_preference(users, items)
        assert np.all((prefs >= 0) & (prefs <= 1))

    def test_ranking_queries_unique_items(self, dataset, monkeypatch):
        # A query keeps only relevance, so read the items its grades come from.
        scored = []
        original = MovieLensSynthetic.true_preference

        def recording(self, users, items):
            scored.append(items)
            return original(self, users, items)

        monkeypatch.setattr(MovieLensSynthetic, "true_preference", recording)
        (query,) = dataset.sample_ranking_queries(1, candidates_per_query=100)
        (items,) = scored
        assert len(np.unique(items)) == 100
        assert items.max() < 200
        assert query.num_candidates == 100

    def test_candidates_cannot_exceed_catalogue(self, dataset):
        with pytest.raises(ValueError):
            dataset.sample_ranking_queries(1, candidates_per_query=10_000)

    def test_presets_differ_in_scale(self):
        assert MovieLensConfig.ml_20m().num_items > MovieLensConfig.ml_1m().num_items

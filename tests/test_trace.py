"""Tests for the load-trace generators (``repro.serving.trace``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.trace import (
    TRACES,
    LoadTrace,
    diurnal_trace,
    ramp_trace,
    spike_trace,
)

#: Strategy for a valid trace: positive loads, positive step width.
qps_series = st.lists(
    st.floats(1.0, 1e4, allow_nan=False, allow_infinity=False), min_size=1, max_size=30
)
step_widths = st.floats(0.1, 100.0, allow_nan=False, allow_infinity=False)


def trace_of(qps, step_seconds=1.0):
    return LoadTrace("t", step_seconds=step_seconds, qps=np.asarray(qps, dtype=np.float64))


class TestLoadTrace:
    def test_basic_properties(self):
        trace = LoadTrace("t", step_seconds=30.0, qps=np.array([100.0, 200.0, 300.0]))
        assert trace.num_steps == 3
        assert trace.duration_seconds == 90.0
        assert trace.total_queries() == pytest.approx(30.0 * 600.0)
        assert trace.median_qps() == pytest.approx(200.0)
        assert trace.peak_qps() == pytest.approx(300.0)

    def test_rejects_bad_series(self):
        with pytest.raises(ValueError):
            LoadTrace("t", step_seconds=1.0, qps=np.array([]))
        with pytest.raises(ValueError):
            LoadTrace("t", step_seconds=1.0, qps=np.array([100.0, 0.0]))
        with pytest.raises(ValueError):
            LoadTrace("t", step_seconds=0.0, qps=np.array([100.0]))

    def test_qps_array_is_frozen(self):
        trace = LoadTrace("t", step_seconds=1.0, qps=np.array([100.0, 200.0]))
        with pytest.raises(ValueError):
            trace.qps[0] = 1.0


class TestScaledProperties:
    """``LoadTrace.scaled``: elementwise, shape-preserving, composable."""

    @given(qps=qps_series, step=step_widths, factor=st.floats(1e-3, 1e3, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_scales_every_step_and_preserves_shape(self, qps, step, factor):
        trace = trace_of(qps, step)
        scaled = trace.scaled(factor)
        assert scaled.name == trace.name
        assert scaled.step_seconds == trace.step_seconds
        np.testing.assert_allclose(scaled.qps, trace.qps * factor, rtol=1e-12)
        assert scaled.total_queries() == pytest.approx(trace.total_queries() * factor)

    @given(
        qps=qps_series,
        a=st.floats(0.1, 10.0, allow_nan=False),
        b=st.floats(0.1, 10.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_scaling_composes(self, qps, a, b):
        trace = trace_of(qps)
        np.testing.assert_allclose(
            trace.scaled(a).scaled(b).qps, trace.scaled(a * b).qps, rtol=1e-12
        )

    def test_identity_factor_copies(self):
        trace = trace_of([100.0, 200.0])
        scaled = trace.scaled(1.0)
        np.testing.assert_array_equal(scaled.qps, trace.qps)
        assert scaled.qps is not trace.qps

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_non_positive_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="factor"):
            trace_of([100.0]).scaled(factor)


class TestWindowRatesProperties:
    """``LoadTrace.window_rates``: resampling that conserves offered work."""

    @pytest.mark.parametrize("window", [0.0, -1.0])
    def test_zero_length_windows_rejected(self, window):
        with pytest.raises(ValueError, match="window_seconds"):
            trace_of([100.0, 200.0]).window_rates(window)

    @given(qps=qps_series, step=step_widths)
    @settings(max_examples=50, deadline=None)
    def test_window_equal_to_step_is_an_exact_copy(self, qps, step):
        """The anchor the frontend's equivalence guarantee relies on."""
        trace = trace_of(qps, step)
        rates = trace.window_rates(step)
        np.testing.assert_array_equal(rates, trace.qps)
        assert rates is not trace.qps  # a mutable copy, not the frozen array

    @given(
        qps=qps_series,
        step=step_widths,
        ratio=st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_work_is_conserved(self, qps, step, ratio):
        """Summing rate x true window width recovers the offered work."""
        trace = trace_of(qps, step)
        window = ratio * step
        rates = trace.window_rates(window)
        # The windows tile the whole duration with no phantom trailing
        # window: one fewer would leave real time uncovered, and the last
        # window must start strictly inside the trace (up to float noise in
        # the duration itself).
        assert rates.size * window >= trace.duration_seconds * (1.0 - 1e-12)
        assert (rates.size - 1) * window < trace.duration_seconds
        edges = np.minimum(
            np.arange(rates.size + 1) * window, trace.duration_seconds
        )
        recovered = float(np.sum(rates * np.diff(edges)))
        assert recovered == pytest.approx(trace.total_queries(), rel=1e-9)

    @given(
        qps=qps_series,
        step=step_widths,
        ratio=st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_rates_stay_within_the_load_envelope(self, qps, step, ratio):
        """Each window rate is a time-weighted average of overlapped steps."""
        trace = trace_of(qps, step)
        rates = trace.window_rates(ratio * step)
        eps = 1e-9 * float(np.max(trace.qps))
        assert np.all(rates >= np.min(trace.qps) - eps)
        assert np.all(rates <= np.max(trace.qps) + eps)

    def test_almost_divisible_window_has_no_phantom_trailing_window(self):
        # duration / window = 3.0000000000000004 under float rounding; the
        # naive ceil adds a fourth zero-width window whose rate reads as 0
        # (hypothesis found this via the envelope property).
        trace = trace_of([1.0], step_seconds=5.0)
        rates = trace.window_rates(5.0 / 3.0)
        assert rates.size == 3
        np.testing.assert_allclose(rates, [1.0, 1.0, 1.0])

    def test_sliver_trailing_window_stays_inside_the_envelope(self):
        # A window ratio just under a divisor leaves a sliver-width trailing
        # window; dividing its catastrophically-cancelled work difference by
        # the tiny width overshot the flat 3.0 load (hypothesis found a 4.0).
        trace = trace_of([3.0], step_seconds=25.0)
        window = 25.0 / 4.0 * (1.0 - 2.0**-50)
        rates = trace.window_rates(window)
        assert np.all(rates >= 3.0)
        assert np.all(rates <= 3.0)

    def test_divisible_windows_are_block_means(self):
        trace = trace_of([100.0, 300.0, 200.0, 400.0], step_seconds=2.0)
        np.testing.assert_allclose(trace.window_rates(4.0), [200.0, 300.0])

    def test_non_divisible_overlap_weights(self):
        """Partial overlaps weight each step by the overlapped duration."""
        trace = trace_of([100.0, 300.0], step_seconds=1.0)
        rates = trace.window_rates(0.8)
        # Windows: [0, .8) all in step 0; [.8, 1.6) = .2 of step 0 + .6 of
        # step 1; [1.6, 2.0] is a partial trailing window fully in step 1.
        expected = [100.0, (0.2 * 100.0 + 0.6 * 300.0) / 0.8, 300.0]
        np.testing.assert_allclose(rates, expected)


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_deterministic_under_fixed_seed(self, name):
        first = TRACES[name](seed=7)
        second = TRACES[name](seed=7)
        assert first.name == name
        np.testing.assert_array_equal(first.qps, second.qps)

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_different_seed_different_noise(self, name):
        assert not np.array_equal(TRACES[name](seed=0).qps, TRACES[name](seed=1).qps)

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_loads_stay_positive(self, name):
        assert np.all(TRACES[name](seed=3).qps > 0)

    def test_diurnal_shape(self):
        trace = diurnal_trace(num_steps=48, base_qps=100.0, peak_qps=900.0, noise=0.0)
        assert trace.qps[0] == pytest.approx(100.0)
        assert trace.peak_qps() == pytest.approx(900.0, rel=1e-3)
        assert np.argmax(trace.qps) == 24  # peak at the midpoint
        with pytest.raises(ValueError, match="peak_qps"):
            diurnal_trace(base_qps=500.0, peak_qps=100.0)

    def test_spike_shape(self):
        trace = spike_trace(
            num_steps=60,
            base_qps=100.0,
            spike_qps=1000.0,
            spike_start=20,
            spike_steps=10,
            decay_steps=5,
            noise=0.0,
        )
        assert np.all(trace.qps[:20] == 100.0)
        assert np.all(trace.qps[20:30] == 1000.0)
        # Exponential decay back toward base, never undershooting it.
        tail = trace.qps[30:]
        assert np.all(np.diff(tail) < 0)
        assert np.all(tail > 100.0)
        with pytest.raises(ValueError, match="spike_start"):
            spike_trace(num_steps=10, spike_start=10)

    def test_ramp_shape(self):
        rising = ramp_trace(num_steps=10, start_qps=100.0, end_qps=1000.0, noise=0.0)
        assert rising.qps[0] == pytest.approx(100.0)
        assert rising.qps[-1] == pytest.approx(1000.0)
        assert np.all(np.diff(rising.qps) > 0)
        falling = ramp_trace(num_steps=10, start_qps=1000.0, end_qps=100.0, noise=0.0)
        assert np.all(np.diff(falling.qps) < 0)

    def test_noise_is_multiplicative_around_shape(self):
        clean = ramp_trace(num_steps=200, start_qps=500.0, end_qps=500.0, noise=0.0)
        noisy = ramp_trace(num_steps=200, start_qps=500.0, end_qps=500.0, noise=0.05, seed=1)
        assert np.all(clean.qps == 500.0)
        assert noisy.qps.mean() == pytest.approx(500.0, rel=0.02)
        assert np.std(noisy.qps) > 0

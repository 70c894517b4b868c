"""Time-varying load traces for serving-time path selection.

The design-space sweeps answer *offline* questions: which (platform,
pipeline) path is best at a fixed offered load.  Serving systems face the
*online* version — load shifts through the day (diurnal cycles), jumps
without warning (flash crowds) and drifts as traffic ramps — and MP-Rec
(Hsia et al., 2023) shows that re-selecting the execution path as load moves
recovers quality the static choice leaves on the table.

A :class:`LoadTrace` discretizes offered load into fixed-width steps: step
``t`` offers ``qps[t]`` queries per second for ``step_seconds``.  Three
generator families cover the scenarios the serving literature sweeps:

* :func:`diurnal_trace` — a day-shaped sinusoid between a trough and a peak,
* :func:`spike_trace` — a flash crowd: flat base load, an abrupt jump to a
  spike plateau, and an exponential decay back to base,
* :func:`ramp_trace` — a linear drift from a start to an end load.

Every generator takes a ``seed`` and draws its multiplicative noise from
``np.random.default_rng(seed)``, so a (generator, arguments, seed) triple
always reproduces the same trace — the same contract the sweep layer keeps
for arrival noise.  :data:`TRACES` maps trace names to generators for the
CLI and the router experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LoadTrace",
    "TRACES",
    "diurnal_trace",
    "ramp_trace",
    "spike_trace",
]


@dataclass(frozen=True)
class LoadTrace:
    """A discretized offered-load series: one QPS value per fixed-width step.

    Parameters
    ----------
    name : str
        Label carried into router artifacts (e.g. ``"spike"``).
    step_seconds : float
        Width of one step; every step offers its load for this long.
    qps : np.ndarray
        Offered load per step, strictly positive, shape ``(num_steps,)``.
    """

    name: str
    step_seconds: float
    qps: np.ndarray

    def __post_init__(self) -> None:
        """Validate and freeze the per-step load array."""
        qps = np.asarray(self.qps, dtype=np.float64)
        if qps.ndim != 1 or qps.size == 0:
            raise ValueError("a trace needs a 1-D, non-empty qps series")
        if np.any(qps <= 0):
            raise ValueError("offered load must stay positive at every step")
        if self.step_seconds <= 0:
            raise ValueError("step_seconds must be positive")
        qps.setflags(write=False)
        object.__setattr__(self, "qps", qps)

    @property
    def num_steps(self) -> int:
        """Number of fixed-width steps in the trace."""
        return int(self.qps.size)

    @property
    def duration_seconds(self) -> float:
        """Total wall-clock span the trace covers."""
        return self.num_steps * self.step_seconds

    def queries_per_step(self) -> np.ndarray:
        """Expected number of queries offered during each step."""
        return self.qps * self.step_seconds

    def total_queries(self) -> float:
        """Expected number of queries offered over the whole trace."""
        return float(np.sum(self.queries_per_step()))

    def median_qps(self) -> float:
        """Median per-step load — the ``typical`` load a planner provisions for."""
        return float(np.median(self.qps))

    def peak_qps(self) -> float:
        """Largest per-step load in the trace."""
        return float(np.max(self.qps))

    def scaled(self, factor: float) -> "LoadTrace":
        """A copy of the trace with every step's load multiplied by ``factor``.

        Parameters
        ----------
        factor : float
            Strictly positive load multiplier.

        Returns
        -------
        LoadTrace
            A new trace (same name and step width) at the scaled load.
        """
        if not factor > 0:  # also rejects NaN
            raise ValueError(f"factor must be positive, got {factor!r}")
        return LoadTrace(self.name, self.step_seconds, self.qps * factor)

    def window_rates(self, window_seconds: float) -> np.ndarray:
        """Mean offered load over consecutive windows of ``window_seconds``.

        Resamples the step-wise load series onto a fixed window width: each
        window's rate is the time-weighted average of the step loads it
        overlaps (partial overlaps weighted by overlap length), so total
        offered work is conserved up to the trailing partial window.  When
        the window width equals the step width this returns exactly
        :attr:`qps` — the alignment the frontend's equivalence guarantee
        relies on.

        Parameters
        ----------
        window_seconds : float
            Window width; must be positive.

        Returns
        -------
        np.ndarray
            One mean rate per window, covering the whole trace duration
            (``ceil(duration / window_seconds)`` windows, minus the phantom
            trailing window float rounding can append when the ratio lands
            just past an integer).
        """
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if window_seconds == self.step_seconds:
            return self.qps.copy()
        num_windows = int(np.ceil(self.duration_seconds / window_seconds))
        # Float rounding can push the ratio just past an integer (e.g.
        # 5.0 / (5.0 / 3.0) = 3.0000000000000004), and the ceil then adds a
        # phantom zero-width trailing window whose rate would read as 0.
        if num_windows > 1 and (num_windows - 1) * window_seconds >= self.duration_seconds:
            num_windows -= 1
        # Integral of the piecewise-constant rate up to each step boundary.
        boundaries = np.arange(self.num_steps + 1) * self.step_seconds
        cumulative_work = np.concatenate(([0.0], np.cumsum(self.queries_per_step())))
        edges = np.minimum(
            np.arange(num_windows + 1) * window_seconds, self.duration_seconds
        )
        work_at_edges = np.interp(edges, boundaries, cumulative_work)
        widths = np.diff(edges)
        widths[widths == 0] = window_seconds  # guard an exactly-aligned tail
        # Each window rate is a convex combination of the overlapped step
        # loads, so it lies inside the trace envelope exactly; clamping
        # removes the cancellation noise a sliver-width trailing window
        # amplifies (tiny width dividing a catastrophically-cancelled work
        # difference).
        rates = np.diff(work_at_edges) / widths
        return np.clip(rates, float(np.min(self.qps)), float(np.max(self.qps)))


def _noisy(qps: np.ndarray, noise: float, seed) -> np.ndarray:
    """Apply multiplicative lognormal-ish noise, clipped away from zero."""
    if noise < 0:
        raise ValueError("noise must be non-negative")
    if noise == 0:
        return qps
    rng = np.random.default_rng(seed)
    factors = np.clip(1.0 + noise * rng.standard_normal(qps.size), 0.05, None)
    return qps * factors


def diurnal_trace(
    num_steps: int = 96,
    step_seconds: float = 60.0,
    base_qps: float = 200.0,
    peak_qps: float = 800.0,
    noise: float = 0.05,
    seed: int = 0,
) -> LoadTrace:
    """A day-shaped load curve: sinusoid from ``base_qps`` up to ``peak_qps``.

    The trough sits at step 0 (and again at the final step), the peak at the
    midpoint — one full diurnal cycle regardless of ``num_steps``.

    Parameters
    ----------
    num_steps : int
        Number of fixed-width steps (default 96: a day at 15-minute steps).
    step_seconds : float
        Width of one step in seconds.
    base_qps, peak_qps : float
        Trough and peak of the cycle; ``peak_qps`` must not be below
        ``base_qps``.
    noise : float
        Relative standard deviation of multiplicative per-step noise.
    seed : int
        Noise seed; the same arguments and seed reproduce the same trace.

    Returns
    -------
    LoadTrace
        The generated trace, named ``"diurnal"``.
    """
    if peak_qps < base_qps:
        raise ValueError("peak_qps must be at least base_qps")
    phase = np.linspace(0.0, 2.0 * np.pi, num_steps, endpoint=False)
    shape = 0.5 * (1.0 - np.cos(phase))  # 0 at the trough, 1 at the peak
    qps = base_qps + (peak_qps - base_qps) * shape
    return LoadTrace("diurnal", step_seconds, _noisy(qps, noise, seed))


def spike_trace(
    num_steps: int = 120,
    step_seconds: float = 60.0,
    base_qps: float = 200.0,
    spike_qps: float = 1200.0,
    spike_start: int | None = None,
    spike_steps: int | None = None,
    decay_steps: int | None = None,
    noise: float = 0.03,
    seed: int = 0,
) -> LoadTrace:
    """A flash crowd: flat base load, an abrupt spike plateau, exponential decay.

    Load sits at ``base_qps``, jumps to ``spike_qps`` at ``spike_start``
    within one step (the un-forecastable event an online router must react
    to), holds the plateau for ``spike_steps``, then decays exponentially
    back toward base over roughly ``decay_steps``.

    Parameters
    ----------
    num_steps : int
        Number of fixed-width steps.
    step_seconds : float
        Width of one step in seconds.
    base_qps, spike_qps : float
        Pre-spike load and plateau load; the spike must not be below base.
    spike_start : int, optional
        Step index of the jump (default: one third into the trace).
    spike_steps : int, optional
        Plateau length in steps (default: one sixth of the trace).
    decay_steps : int, optional
        Exponential-decay time constant in steps (default: ``spike_steps``).
    noise : float
        Relative standard deviation of multiplicative per-step noise.
    seed : int
        Noise seed; the same arguments and seed reproduce the same trace.

    Returns
    -------
    LoadTrace
        The generated trace, named ``"spike"``.
    """
    if spike_qps < base_qps:
        raise ValueError("spike_qps must be at least base_qps")
    spike_start = num_steps // 3 if spike_start is None else spike_start
    spike_steps = max(num_steps // 6, 1) if spike_steps is None else spike_steps
    decay_steps = spike_steps if decay_steps is None else decay_steps
    if not 0 <= spike_start < num_steps:
        raise ValueError("spike_start must fall inside the trace")
    if spike_steps <= 0 or decay_steps <= 0:
        raise ValueError("spike_steps and decay_steps must be positive")
    qps = np.full(num_steps, float(base_qps))
    plateau_end = min(spike_start + spike_steps, num_steps)
    qps[spike_start:plateau_end] = spike_qps
    tail = np.arange(num_steps - plateau_end)
    qps[plateau_end:] = base_qps + (spike_qps - base_qps) * np.exp(-(tail + 1) / decay_steps)
    return LoadTrace("spike", step_seconds, _noisy(qps, noise, seed))


def ramp_trace(
    num_steps: int = 60,
    step_seconds: float = 60.0,
    start_qps: float = 100.0,
    end_qps: float = 1000.0,
    noise: float = 0.03,
    seed: int = 0,
) -> LoadTrace:
    """A linear drift from ``start_qps`` to ``end_qps`` (either direction).

    Parameters
    ----------
    num_steps : int
        Number of fixed-width steps.
    step_seconds : float
        Width of one step in seconds.
    start_qps, end_qps : float
        Loads at the first and last step; the ramp may rise or fall.
    noise : float
        Relative standard deviation of multiplicative per-step noise.
    seed : int
        Noise seed; the same arguments and seed reproduce the same trace.

    Returns
    -------
    LoadTrace
        The generated trace, named ``"ramp"``.
    """
    qps = np.linspace(float(start_qps), float(end_qps), num_steps)
    return LoadTrace("ramp", step_seconds, _noisy(qps, noise, seed))


#: Trace generators by name, for the CLI and the router experiment.
TRACES = {
    "diurnal": diurnal_trace,
    "spike": spike_trace,
    "ramp": ramp_trace,
}

"""Predictive load estimators for the online multi-path router.

The router's decision quality is bounded by its load estimate: a purely
reactive estimator (the windowed mean the first router shipped with) chases
ramps and flash crowds from behind, so every regime change costs a few
steps of mis-routed queries.  MP-Rec-style serving (Hsia et al., 2023)
leaves that quality on the table exactly where it matters — around load
transitions.  This module turns the estimate into a pluggable policy axis:

* :class:`WindowedMean` — the original behavior, extracted: the mean of the
  last ``window`` observed steps (purely reactive, maximally smooth);
* :class:`EWMA` — exponentially weighted moving average: recency-weighted
  smoothing with one knob (``alpha``), reacting faster than a same-memory
  window while still damping noise;
* :class:`HoltTrend` — Holt's linear (level + slope) double exponential
  smoothing: ramps and spike decays are *extrapolated* one step ahead
  rather than chased, so the estimate leads sustained drift instead of
  lagging it;
* :class:`AutoSelector` — races the three families in lock-step and
  delegates each prediction to whichever currently has the lowest
  trailing one-step forecast error (scored causally, before observing).

Every estimator is seed-free and deterministic, keeps its state in plain
floats, and observes **strictly past** steps: ``predict()`` is the estimate
for the *next* step and may only depend on loads already passed to
``observe``.  The router owns the bootstrap (its first decision uses the
trace's provisioning load, before any observation exists).

Estimators are tiny mutable objects; :func:`make_estimator` builds one by
name from the shared ``window``/``ewma_alpha`` knobs for the CLI and the
scenario runner, and :meth:`LoadEstimator.reset` returns one to its initial
state so a single instance can replay many traces.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Protocol, runtime_checkable

__all__ = [
    "ESTIMATORS",
    "EWMA",
    "AutoSelector",
    "HoltTrend",
    "LoadEstimator",
    "WindowedMean",
    "make_estimator",
]

#: Floor every prediction is clamped to: the router's table lookups require
#: strictly positive loads, and a trend extrapolated through a cliff must
#: not cross zero.
MIN_PREDICTED_QPS = 1e-6


@runtime_checkable
class LoadEstimator(Protocol):
    """What the router requires of a load estimator.

    Implementations are stateful and strictly causal: ``predict()`` is the
    estimate for the next step and may only use loads already passed to
    ``observe``.  They must be seed-free — two estimators fed the same
    observation sequence produce the same predictions.
    """

    #: Stable label carried into artifacts and benchmark payloads.
    name: ClassVar[str]

    def reset(self) -> None:
        """Forget all observations (back to the just-constructed state)."""
        ...

    def observe(self, qps: float) -> None:
        """Record one served step's offered load."""
        ...

    def predict(self) -> float:
        """The load estimate for the next step (strictly positive).

        Raises
        ------
        RuntimeError
            If called before any observation.
        """
        ...

    @property
    def primed(self) -> bool:
        """Whether at least one load has been observed."""
        ...


def _clamped(value: float) -> float:
    """Clamp a prediction to the strictly positive range table lookups need."""
    return max(float(value), MIN_PREDICTED_QPS)


def _require_primed(estimator: LoadEstimator) -> None:
    if not estimator.primed:
        raise RuntimeError(
            f"{type(estimator).__name__}.predict() called before any observation; "
            "the router bootstraps step 0 from the trace's provisioning load"
        )


@dataclass
class WindowedMean:
    """The original reactive estimator: mean of the last ``window`` steps.

    Parameters
    ----------
    window : int
        Sliding-window length in steps; must be positive.
    """

    window: int = 3
    name: ClassVar[str] = "windowed"
    _values: deque = field(default_factory=deque, init=False, repr=False)

    def __post_init__(self) -> None:
        """Validate the window and size the observation buffer."""
        if self.window <= 0:
            raise ValueError("window must be positive")
        # A window longer than any trace keeps every step; deque lengths
        # stop at sys.maxsize.
        self._values = deque(maxlen=min(self.window, sys.maxsize))

    def reset(self) -> None:
        """Forget all observations."""
        self._values.clear()

    def observe(self, qps: float) -> None:
        """Push one observed load into the sliding window."""
        self._values.append(float(qps))

    def predict(self) -> float:
        """Mean of the retained window (the lagged estimate the router used)."""
        _require_primed(self)
        return _clamped(sum(self._values) / len(self._values))

    @property
    def primed(self) -> bool:
        """Whether at least one load has been observed."""
        return bool(self._values)


@dataclass
class EWMA:
    """Exponentially weighted moving average of the observed load.

    ``level <- alpha * x + (1 - alpha) * level`` after each observation;
    the first observation seeds the level directly.  Higher ``alpha``
    reacts faster, lower ``alpha`` smooths harder; ``alpha == 1`` degrades
    to last-value prediction.

    Parameters
    ----------
    alpha : float
        Smoothing factor in ``(0, 1]``.
    """

    alpha: float = 0.5
    name: ClassVar[str] = "ewma"
    _level: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        """Validate the smoothing factor."""
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    def reset(self) -> None:
        """Forget all observations."""
        self._level = None

    def observe(self, qps: float) -> None:
        """Fold one observed load into the exponential average."""
        x = float(qps)
        if self._level is None:
            self._level = x
        else:
            self._level = self.alpha * x + (1.0 - self.alpha) * self._level

    def predict(self) -> float:
        """The current exponential average."""
        _require_primed(self)
        return _clamped(self._level)

    @property
    def primed(self) -> bool:
        """Whether at least one load has been observed."""
        return self._level is not None


@dataclass
class HoltTrend:
    """Holt's linear method: level + slope, extrapolated one step ahead.

    After a two-observation warm-up (level from the first, slope from the
    first difference) each observation updates

    ``level <- alpha * x + (1 - alpha) * (level + trend)``
    ``trend <- beta * (level - level_prev) + (1 - beta) * trend``

    and ``predict()`` returns ``level + trend`` — the one-step-ahead
    forecast.  On a noiseless ramp the warm-up initialization makes the
    forecast *exact* from the third step on (the forecast error is zero, so
    the updates never perturb the fit); on a spike decay the negative slope
    is extrapolated instead of chased.  The gentle default ``beta`` keeps
    the slope from overreacting to the nonlinear shoulder of a flash-crowd
    decay (a steep ``beta`` extrapolates past the settling load and
    up-switches too early).

    Parameters
    ----------
    alpha : float
        Level smoothing factor in ``(0, 1]``.
    beta : float
        Trend smoothing factor in ``(0, 1]``.
    """

    alpha: float = 0.5
    beta: float = 0.1
    name: ClassVar[str] = "holt"
    _level: float | None = field(default=None, init=False, repr=False)
    _trend: float = field(default=0.0, init=False, repr=False)
    _observations: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        """Validate both smoothing factors."""
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")

    def reset(self) -> None:
        """Forget all observations."""
        self._level = None
        self._trend = 0.0
        self._observations = 0

    def observe(self, qps: float) -> None:
        """Fold one observed load into the level/slope state."""
        x = float(qps)
        self._observations += 1
        if self._level is None:
            self._level = x
        elif self._observations == 2:  # warm-up: slope from the first difference
            self._trend = x - self._level
            self._level = x
        else:
            forecast = self._level + self._trend
            level = self.alpha * x + (1.0 - self.alpha) * forecast
            self._trend = self.beta * (level - self._level) + (1.0 - self.beta) * self._trend
            self._level = level

    def predict(self) -> float:
        """The one-step-ahead forecast ``level + trend`` (clamped positive)."""
        _require_primed(self)
        return _clamped(self._level + self._trend)

    @property
    def primed(self) -> bool:
        """Whether at least one load has been observed."""
        return self._level is not None


@dataclass
class AutoSelector:
    """Pick the candidate estimator with the lowest trailing forecast error.

    No single estimator wins every trace family: the windowed mean is best
    on stationary noise, EWMA on flash crowds, Holt on sustained ramps.
    The selector runs all three in lock-step and, at each prediction,
    delegates to whichever candidate currently has the lowest exponentially
    weighted trailing absolute one-step forecast error.  Errors are scored
    *causally*: before an observation is folded in, each primed candidate's
    standing forecast is compared against the arriving load — the selector
    never grades a candidate on data it has already seen.

    Ties (including the start, before any errors exist) resolve to the
    earliest candidate in construction order, so the selector opens as a
    windowed mean and only departs once a competitor demonstrably forecasts
    better.

    Parameters
    ----------
    candidates : tuple[LoadEstimator, ...], optional
        The estimators raced against each other (default: fresh
        ``WindowedMean``, ``EWMA``, ``HoltTrend`` with class-default knobs).
    """

    #: smoothing factor of the trailing-error EWMA.
    error_alpha: ClassVar[float] = 0.3
    candidates: tuple = ()
    name: ClassVar[str] = "auto"
    _errors: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        """Default the candidate set."""
        if not self.candidates:
            self.candidates = (WindowedMean(), EWMA(), HoltTrend())
        self.candidates = tuple(self.candidates)
        self._errors = [None] * len(self.candidates)

    def reset(self) -> None:
        """Forget all observations (candidates and trailing errors alike)."""
        for candidate in self.candidates:
            candidate.reset()
        self._errors = [None] * len(self.candidates)

    def observe(self, qps: float) -> None:
        """Score every primed candidate against ``qps``, then let all observe it."""
        x = float(qps)
        for i, candidate in enumerate(self.candidates):
            if candidate.primed:
                error = abs(candidate.predict() - x)
                previous = self._errors[i]
                self._errors[i] = (
                    error
                    if previous is None
                    else self.error_alpha * error + (1.0 - self.error_alpha) * previous
                )
            candidate.observe(x)

    def _trailing_error(self, index: int) -> float:
        """Trailing error of one candidate, ``inf`` before any error exists."""
        error = self._errors[index]
        return float("inf") if error is None else error

    def _best_index(self) -> int:
        """Index of the primed candidate with the lowest trailing error."""
        best = None
        for i, candidate in enumerate(self.candidates):
            if not candidate.primed:
                continue
            if best is None or self._trailing_error(i) < self._trailing_error(best):
                best = i
        if best is None:
            raise RuntimeError("no candidate primed")
        return best

    def predict(self) -> float:
        """The currently best-scoring candidate's one-step-ahead forecast."""
        _require_primed(self)
        return _clamped(self.candidates[self._best_index()].predict())

    @property
    def primed(self) -> bool:
        """Whether at least one load has been observed."""
        return any(candidate.primed for candidate in self.candidates)


#: Estimator constructors by CLI/artifact name.
ESTIMATORS = {
    "windowed": WindowedMean,
    "ewma": EWMA,
    "holt": HoltTrend,
    "auto": AutoSelector,
}


def make_estimator(
    name: str,
    window: int = WindowedMean.window,
    ewma_alpha: float = EWMA.alpha,
) -> LoadEstimator:
    """Build the named estimator from the shared CLI/scenario knob set.

    ``recpipe route`` and the scenario runner expose the same two estimator
    knobs: ``window`` reaches the windowed mean and ``ewma_alpha`` the EWMA,
    both directly and inside the ``auto`` selector's candidate set; every
    other estimator uses its class defaults.

    Parameters
    ----------
    name : str
        One of :data:`ESTIMATORS` (``windowed``, ``ewma``, ``holt``,
        ``auto``).
    window : int
        Sliding-window length for ``windowed``.
    ewma_alpha : float
        Smoothing factor for ``ewma``.

    Returns
    -------
    LoadEstimator
        A fresh estimator in its initial state.
    """
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; expected one of {sorted(ESTIMATORS)}")
    if name == "windowed":
        return WindowedMean(window=window)
    if name == "ewma":
        return EWMA(alpha=ewma_alpha)
    if name == "auto":
        return AutoSelector(
            candidates=(WindowedMean(window=window), EWMA(alpha=ewma_alpha), HoltTrend())
        )
    return ESTIMATORS[name]()

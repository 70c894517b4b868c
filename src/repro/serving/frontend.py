"""Per-query streaming frontend: admission control, dynamic batching, routing.

The step router (:mod:`repro.serving.router`) decides once per dwell step —
the coarse version of MP-Rec's per-query dynamic scheduler that picks a
representation + hardware path *per query* under load.  This module closes
that gap without giving up the router's analysis machinery:

* :class:`QueryStream` — individual query arrivals realized from a
  :class:`~repro.serving.trace.LoadTrace` (Poisson by default, or a
  deterministic evenly-paced process for exact tests);
* :class:`StreamingFrontend` — the per-query serving loop.  Arrivals are
  grouped into fixed-width decision windows; each window's path comes from
  the *same* estimator + hysteresis + switch-cost state machine the step
  router runs (:meth:`~repro.serving.router.MultiPathRouter.decide_from_estimates`),
  which is what makes the frontend's equivalence guarantee structural
  rather than statistical: with the window width equal to the trace's
  dwell step, the frontend's per-window path choices reproduce
  :meth:`~repro.serving.router.MultiPathRouter.decide` bit-for-bit.

Within a window every query passes **admission control** with three
outcomes:

* *admit* — served this window.  The admission cap is
  ``floor(max_feasible_qps(path) * window_seconds)`` queries, so the
  admitted rate can never exceed the chosen path's feasible frontier;
* *defer* — queued (FIFO) for a later window when the cap is exhausted,
  up to ``defer_windows`` windows' worth of capacity.  Deferred queries
  are admitted ahead of newer arrivals;
* *shed* — rejected at the door when the queue is full too.  Shed queries
  count as SLA violations and deliver zero quality.

Admitted queries are grouped into **dynamically sized batches** under the
SLA: at estimated load ``λ`` a batch of ``b`` takes about ``b / λ`` seconds
to fill, so the largest batch whose fill time fits the predicted headroom
is ``b = floor((sla − p99(path, λ)) · λ)``, clamped to ``[1, max_batch]``
(and to 1 whenever the path has no predicted headroom).  Eventful windows
(shed, deferred or switched) and a stream summary go to the active
:mod:`repro.events` log.

A window wider than the trace acts as one window over it: the width is
clamped to the trace's duration, so the admission cap and the admitted rate
never assume load the trace did not offer.

Scheduling does per-window work per window.  Path candidates for all
windows come from one :meth:`~repro.serving.router.PathTable.best_path_batch`
call and batch sizes from array arithmetic.  Each window's arrival count is
the stream's count of arrivals before the window edges
(:meth:`QueryStream.count_before`, equal to one ``np.searchsorted`` over the
arrival-sorted stream), with every edge snapped to where
``np.floor_divide`` changes window, so non-integer widths bin exactly as
``floor_divide`` would.  Admission is a scalar recursion over windows on
integer counters.  The FIFO backlog is a single count, because deferred
queries always form a contiguous suffix of all deferrals so far.
:class:`FrontendSchedule` therefore stores window counters only; per-query
outcomes are read-only views it derives from them on first access.
:meth:`StreamingFrontend.serve` touches per-query data only for the
deferred-then-served queries, and only on demand: their waits join the
latency pool that :meth:`~repro.serving.router.PathTable.score` aggregates
for the step policies too, and the score asks for them only when it builds
that pool.  A stream whose shed mass alone proves the pooled p99 ``inf``
(roughly, one shedding more than 1% of its queries) computes no wait.

A :class:`QueryStream` is step-addressable.  :meth:`QueryStream.from_trace`
draws only the per-step counts; a Poisson stream also keeps the generator's
state after them.  A step's sorted arrival block is drawn when something
reads it: a window edge strictly inside the step, or a deferred query whose
wait :meth:`StreamingFrontend.serve` pools.  Each ``random()`` double
consumes one PCG64 output, so advancing a copy of the saved state past the
earlier steps' arrivals draws block ``k`` bit for bit as one draw of the
whole stream would.  Window edges on step boundaries resolve from the counts
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.events import active_log
from repro.serving.router import MultiPathRouter, PathTable, RoutingResult
from repro.serving.trace import LoadTrace

__all__ = [
    "QUERY_ADMITTED",
    "QUERY_DEFERRED",
    "QUERY_SHED",
    "ARRIVAL_PROCESSES",
    "FrontendResult",
    "FrontendSchedule",
    "QueryStream",
    "StreamingFrontend",
]

#: Admission states recorded per query in :attr:`FrontendSchedule.query_state`.
QUERY_SHED = 0
QUERY_ADMITTED = 1
QUERY_DEFERRED = 2

#: Arrival processes :meth:`QueryStream.from_trace` can realize.
ARRIVAL_PROCESSES = ("poisson", "paced")


class QueryStream:
    """Individual query arrivals, realized one trace step at a time.

    A stream is a sequence of blocks, one per step of its trace: block ``k``
    holds that step's arrivals, sorted, inside ``[edges[k], edges[k + 1])``.
    Readers go through :meth:`count_before` and :meth:`arrivals_at`, which
    realize only the blocks they need; a realized block is validated and
    kept, so every block is drawn at most once per stream.

    Parameters
    ----------
    trace_name : str
        Name of the generating trace, carried into artifacts.
    duration_seconds : float
        Span the stream covers (the trace's duration).
    arrival_seconds : np.ndarray
        An explicit stream: every arrival time, non-negative and
        non-decreasing.  It is one block over ``[0, inf)``, so
        :meth:`StreamingFrontend.schedule` still rejects arrivals past the
        trace's duration.  :meth:`from_trace` builds trace-drawn streams.
    """

    def __init__(self, trace_name: str, duration_seconds: float, arrival_seconds: np.ndarray):
        arrivals = np.asarray(arrival_seconds, dtype=np.float64)
        if arrivals.ndim != 1:
            raise ValueError("arrival_seconds must be one-dimensional")
        if arrivals.size and (np.any(arrivals[1:] < arrivals[:-1]) or arrivals[0] < 0):
            raise ValueError("arrivals must be non-negative and non-decreasing")
        edges = np.array([0.0, np.inf])
        self._setup(trace_name, duration_seconds, edges, np.array([arrivals.size]))
        arrivals.setflags(write=False)
        self._blocks[0] = arrivals

    def _setup(
        self,
        trace_name: str,
        duration_seconds: float,
        edges: np.ndarray,
        counts: np.ndarray,
        *,
        process: str | None = None,
        step_seconds: float | None = None,
        state: dict | None = None,
    ) -> None:
        """Lay out the blocks; a trace-drawn stream also says how :meth:`_draw` draws one."""
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        self.trace_name = trace_name
        self.duration_seconds = duration_seconds
        self._edges = edges
        self._counts = counts
        # Arrivals before each block edge: block k spans [_before[k], _before[k + 1]).
        self._before = np.concatenate(([0], np.cumsum(counts)))
        self._process = process
        self._step_seconds = step_seconds
        self._state = state
        self._blocks: dict[int, np.ndarray] = {}

    @property
    def num_queries(self) -> int:
        """Number of queries in the stream."""
        return int(self._before[-1])

    @property
    def arrival_seconds(self) -> np.ndarray:
        """Every arrival time, sorted: all blocks concatenated (read-only copy).

        Realizes the whole stream; the frontend reads only
        :meth:`count_before` and :meth:`arrivals_at`.
        """
        arrivals = np.concatenate([self._block(k) for k in range(self._counts.size)])
        arrivals.setflags(write=False)
        return arrivals

    def count_before(self, times: np.ndarray) -> np.ndarray:
        """Arrivals strictly before each time: ``searchsorted(arrival_seconds, times)``.

        A time on a block edge resolves from the per-step counts alone,
        because block ``k``'s arrivals lie in ``[edges[k], edges[k + 1])``.
        A time strictly inside block ``k`` realizes that block.
        """
        times = np.asarray(times, dtype=np.float64)
        steps = np.searchsorted(self._edges, times, side="right") - 1
        whole = np.clip(steps, 0, self._counts.size)
        counts = self._before[whole]
        inside = np.flatnonzero((steps < self._counts.size) & (times > self._edges[whole]))
        inside_steps = steps[inside]
        for k in np.unique(inside_steps).tolist():
            at = inside[inside_steps == k]
            counts[at] += self._block(k).searchsorted(times[at])
        return counts

    def arrivals_at(self, indices: np.ndarray) -> np.ndarray:
        """Arrival times of the given queries: ``arrival_seconds[indices]``.

        ``indices`` must be non-decreasing.  Only the blocks they fall in
        are realized; one ``searchsorted`` at the block edges bounds each
        block's share, which is gathered by slice.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (
            np.any(indices[1:] < indices[:-1]) or indices[0] < 0 or indices[-1] >= self.num_queries
        ):
            raise ValueError(f"arrival indices must be non-decreasing in [0, {self.num_queries})")
        arrivals = np.empty(indices.size)
        bounds = np.searchsorted(indices, self._before).tolist()
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                arrivals[lo:hi] = self._block(k)[indices[lo:hi] - self._before[k]]
        return arrivals

    def _block(self, k: int) -> np.ndarray:
        """Block ``k``: drawn on first read, checked sorted inside its step, then kept."""
        block = self._blocks.get(k)
        if block is None:
            block = self._draw(k)
            start, end = self._edges[k], self._edges[k + 1]
            if block.size and (
                np.any(block[1:] < block[:-1]) or block[0] < start or block[-1] >= end
            ):
                raise ValueError(f"step {k}'s arrivals are not sorted inside [{start}, {end})")
            block.setflags(write=False)
            self._blocks[k] = block
        return block

    def _draw(self, k: int) -> np.ndarray:
        """Block ``k`` exactly as one draw of the whole stream would hold it."""
        start, end = self._edges[k], self._edges[k + 1]
        count = int(self._counts[k])
        step = self._step_seconds
        if self._process == "paced":
            return start + (np.arange(count) + 0.5) * (step / count if count else 0.0)
        bit_generator = np.random.PCG64()
        bit_generator.state = self._state
        bit_generator.advance(int(self._before[k]))
        block = np.random.default_rng(bit_generator).random(count)
        block *= step
        block += start
        block.sort()
        # ``start + step * u`` can round up onto the step's end (u just
        # below 1): pull it back to the last double inside.
        block[block.searchsorted(end) :] = np.nextafter(end, -np.inf)
        return block

    @classmethod
    def from_trace(cls, trace: LoadTrace, seed: int = 0, process: str = "poisson") -> "QueryStream":
        """Realize per-query arrivals from a trace's step-wise offered load.

        Parameters
        ----------
        trace : LoadTrace
            The generating load trace.
        seed : int
            Arrival-noise seed (ignored by the ``paced`` process); the
            same (trace, seed, process) triple reproduces the same stream.
        process : str
            ``"poisson"`` — per-step Poisson counts with uniform arrival
            offsets, the stochastic process the load model assumes; or
            ``"paced"`` — deterministic error-diffused counts
            (``diff(floor(cumsum(expected)))``) with evenly spaced
            arrivals, for tests that need exact, seed-free streams.

        Returns
        -------
        QueryStream
            The stream, with only its per-step counts drawn: each step's
            sorted arrivals are drawn when first read.
        """
        expected = trace.queries_per_step()
        state = None
        if process == "poisson":
            rng = np.random.default_rng(seed)
            counts = rng.poisson(expected)
            # The arrival uniforms follow the counts in the generator's
            # sequence, one double per arrival, in step order.
            state = rng.bit_generator.state
        elif process == "paced":
            cumulative = np.floor(np.cumsum(expected) + 1e-9).astype(np.int64)
            counts = np.diff(np.concatenate(([0], cumulative)))
        else:
            raise ValueError(
                f"unknown arrival process {process!r}; expected one of {ARRIVAL_PROCESSES}"
            )
        stream = cls.__new__(cls)
        stream._setup(
            trace.name,
            trace.duration_seconds,
            np.arange(trace.num_steps + 1) * trace.step_seconds,
            counts,
            process=process,
            step_seconds=trace.step_seconds,
            state=state,
        )
        return stream


@dataclass(eq=False)
class FrontendSchedule:
    """Everything the frontend decided for one stream — no simulation yet.

    Produced by :meth:`StreamingFrontend.schedule`; consumed by
    :meth:`StreamingFrontend.serve` to score the schedule on the analytic
    engine.

    Only window counters are stored.  They determine every query's outcome:
    queries are arrival-sorted, each window admits the first of its fresh
    arrivals, defers the next block and sheds the rest, and the backlog
    serves deferrals in arrival order.  :attr:`query_state`,
    :attr:`query_path` and :attr:`query_serve_window` are read-only arrays
    derived from the counters on first access.

    Attributes
    ----------
    trace_name : str
        Name of the served trace.
    window_seconds : float
        Decision-window width.
    estimates : np.ndarray
        Causal load estimate entering each window.
    window_paths : np.ndarray
        Chosen path index per window.
    window_switches : np.ndarray
        Whether each window starts a new dwell segment.
    window_batch : np.ndarray
        Dynamic batch size chosen per window.
    window_arrivals : np.ndarray
        Queries arriving in each window.
    window_admitted : np.ndarray
        Queries served in each window (fresh arrivals + drained backlog).
    window_from_queue : np.ndarray
        The drained-backlog share of ``window_admitted``.
    window_deferred : np.ndarray
        Fresh arrivals pushed to the backlog in each window.
    window_shed : np.ndarray
        Fresh arrivals rejected in each window.
    window_shed_reason : np.ndarray
        Why each window shed (``"none"`` when it shed nothing,
        ``"no-capacity"`` when the chosen path's admission cap was zero,
        ``"queue-full"`` when the defer queue had no room).  Always
        populated — batching on or off — so ``route_steps.*`` artifacts
        stay schema-identical across modes.
    max_queue_depth : int
        Deepest the defer queue ever grew, in queries.
    """

    trace_name: str
    window_seconds: float
    estimates: np.ndarray
    window_paths: np.ndarray
    window_switches: np.ndarray
    window_batch: np.ndarray
    window_arrivals: np.ndarray
    window_admitted: np.ndarray
    window_from_queue: np.ndarray
    window_deferred: np.ndarray
    window_shed: np.ndarray
    window_shed_reason: np.ndarray
    max_queue_depth: int

    @property
    def num_windows(self) -> int:
        """Number of decision windows in the schedule."""
        return int(self.window_paths.size)

    @property
    def offered_queries(self) -> int:
        """Total queries the stream offered."""
        return int(self.window_arrivals.sum())

    @property
    def served_queries(self) -> int:
        """Queries served (promptly or after deferral)."""
        return int(self.window_admitted.sum())

    @property
    def deferred_served_queries(self) -> int:
        """Queries that waited in the defer queue and were later served."""
        return int(self.window_from_queue.sum())

    @property
    def final_backlog(self) -> int:
        """Deferred queries still queued when the stream ended (counted as shed)."""
        return int(self.window_deferred.sum()) - self.deferred_served_queries

    @property
    def shed_queries(self) -> int:
        """Queries rejected by admission control or stranded in the final backlog."""
        return int(self.window_shed.sum()) + self.final_backlog

    @property
    def shed_rate(self) -> float:
        """Fraction of offered queries shed."""
        return self.shed_queries / self.offered_queries if self.offered_queries else 0.0

    @property
    def defer_rate(self) -> float:
        """Fraction of offered queries served only after deferral."""
        return self.deferred_served_queries / self.offered_queries if self.offered_queries else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Served-query-weighted mean of the per-window batch sizes."""
        served = self.window_admitted.sum()
        if not served:
            return 0.0
        return float(np.sum(self.window_admitted * self.window_batch) / served)

    @property
    def num_switches(self) -> int:
        """Path switches committed across the schedule."""
        return int(np.sum(self.window_switches[1:]))

    def deferrals(self) -> np.ndarray:
        """Arrival indices of every deferred query, in the order they queued.

        Window ``w`` defers the block of arrivals right after its prompt
        admits, and blocks queue in window order, so queue order is arrival
        order.  The backlog is FIFO: the first :attr:`deferred_served_queries`
        entries were served, the rest were still queued when the stream ended.
        """
        fresh = self.window_admitted - self.window_from_queue
        first = np.cumsum(self.window_arrivals) - self.window_arrivals + fresh
        queued = np.cumsum(self.window_deferred)
        offsets = np.repeat(first - (queued - self.window_deferred), self.window_deferred)
        return offsets + np.arange(offsets.size)

    def deferred_serve_windows(self) -> np.ndarray:
        """The window serving each deferred-then-served query, in queue order."""
        return np.repeat(np.arange(self.num_windows), self.window_from_queue)

    def _segments(self, prompt, deferred, shed) -> np.ndarray:
        """Label each query by its block: prompt admits, deferrals, sheds of a window."""
        labels = np.stack(
            [np.broadcast_to(label, self.num_windows) for label in (prompt, deferred, shed)],
            axis=1,
        )
        fresh = self.window_admitted - self.window_from_queue
        lengths = np.stack([fresh, self.window_deferred, self.window_shed], axis=1)
        return np.repeat(labels.ravel(), lengths.ravel())

    @cached_property
    def query_state(self) -> np.ndarray:
        """Admission outcome per query (read-only, derived on first access).

        ``QUERY_SHED`` / ``QUERY_ADMITTED`` / ``QUERY_DEFERRED``; deferred
        queries still queued at stream end are reclassified as shed.
        """
        state = self._segments(
            np.int8(QUERY_ADMITTED), np.int8(QUERY_DEFERRED), np.int8(QUERY_SHED)
        )
        state[self.deferrals()[self.deferred_served_queries :]] = QUERY_SHED
        state.setflags(write=False)
        return state

    @cached_property
    def query_serve_window(self) -> np.ndarray:
        """Window that served each query (``-1``: shed; read-only)."""
        serve = self._segments(np.arange(self.num_windows), -1, -1)
        serve[self.deferrals()[: self.deferred_served_queries]] = self.deferred_serve_windows()
        serve.setflags(write=False)
        return serve

    @cached_property
    def query_path(self) -> np.ndarray:
        """Path index that served each query (``-1``: shed; read-only)."""
        serve = self.query_serve_window
        path = np.full(serve.size, -1, dtype=np.int32)
        served = serve >= 0
        path[served] = self.window_paths[serve[served]]
        path.setflags(write=False)
        return path


@dataclass(frozen=True, eq=False)
class FrontendResult:
    """A scored frontend schedule: routing metrics plus admission statistics.

    Attributes
    ----------
    routing : RoutingResult
        The router-comparable aggregate (policy ``"frontend"``); its
        ``path_steps``/``switch_steps`` are per *window*.  Shed queries
        count as SLA violations with zero delivered quality; deferred
        queries are served but their queueing delay busts the SLA, so they
        violate too.
    schedule : FrontendSchedule
        The full per-window / per-query decision record.
    """

    routing: RoutingResult
    schedule: FrontendSchedule


def _window_edges(num_windows: int, window: float) -> np.ndarray:
    """The earliest time ``np.floor_divide(t, window)`` puts in windows ``1..num_windows``.

    ``w * window`` can land an ulp either side of the point where
    ``floor_divide`` steps from ``w - 1`` to ``w``; each product is nudged
    onto that step, so ``searchsorted`` over sorted arrivals counts exactly
    the arrivals ``floor_divide`` would bin below each edge.
    """
    index = np.arange(1, num_windows + 1)
    edges = index * window
    while np.any(late := np.floor_divide(edges, window) < index):
        edges[late] = np.nextafter(edges[late], np.inf)
    while True:
        lower = np.nextafter(edges, -np.inf)
        early = np.floor_divide(lower, window) >= index
        if not early.any():
            return edges
        edges[early] = lower[early]


@dataclass
class StreamingFrontend:
    """The per-query serving loop: admission, dynamic batching, path routing.

    The frontend shares its decision core with the step router it wraps:
    load estimation goes through the router's estimator
    (:meth:`~repro.serving.router.MultiPathRouter.estimate_over` on the
    trace's per-window offered rates — the same observable the step router
    sees) and path selection through
    :meth:`~repro.serving.router.MultiPathRouter.decide_from_estimates`
    (hysteresis and switch cost included).  With ``window_seconds`` equal
    to the trace's step width the per-window path choices therefore
    reproduce the step router's bit-for-bit; smaller windows re-decide
    faster than the trace changes, larger ones smooth over it.  The caller
    supplies the :class:`QueryStream` (:meth:`QueryStream.from_trace`
    realizes one), so frontends sharing a trace can share its stream.

    Parameters
    ----------
    router : MultiPathRouter
        The decision core (table, estimator, hysteresis, switch cost).
    window_seconds : float, optional
        Decision-window width (default: the served trace's step width;
        clamped to the trace's duration).
    max_batch : int
        Upper clamp on the dynamic batch size.
    batching : bool
        ``False`` pins every batch to size 1.
    defer_windows : float
        Defer-queue capacity, in multiples of the current window's
        admission cap; ``0`` disables deferral (admit or shed only).
    """

    router: MultiPathRouter
    window_seconds: float | None = None
    max_batch: int = 64
    batching: bool = True
    defer_windows: float = 1.0

    def __post_init__(self) -> None:
        """Validate the frontend knobs."""
        # Written so NaN fails; an infinite window is one window over the trace.
        if self.window_seconds is not None and not self.window_seconds > 0:
            raise ValueError(f"window_seconds must be positive, got {self.window_seconds}")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if not 0 <= self.defer_windows < np.inf:
            raise ValueError(
                f"defer_windows must be non-negative and finite, got {self.defer_windows}"
            )

    @property
    def table(self) -> PathTable:
        """The compiled routing table decisions are read from."""
        return self.router.table

    def _window_width(self, trace: LoadTrace) -> float:
        """The effective decision-window width for one trace: at most its duration."""
        return min(float(self.window_seconds or trace.step_seconds), trace.duration_seconds)

    def decide_windows(self, trace: LoadTrace) -> tuple[np.ndarray, list[int], list[bool]]:
        """Per-window estimates, path choices and switch flags for a trace.

        This is the window-granular decision record the equivalence suite
        compares against :meth:`MultiPathRouter.decide`: estimates come
        from the router's estimator over the trace's per-window offered
        rates, paths from the router's own state machine.

        Parameters
        ----------
        trace : LoadTrace
            The served load trace.

        Returns
        -------
        tuple[np.ndarray, list[int], list[bool]]
            The causal estimate entering each window, the chosen path per
            window, and the per-window switch markers.
        """
        rates = trace.window_rates(self._window_width(trace))
        estimates = self.router.estimate_over(rates)
        paths, switches = self.router.decide_from_estimates(estimates)
        return estimates, paths, switches

    def _batch_sizes(self, estimates: np.ndarray, paths: np.ndarray) -> np.ndarray:
        """Dynamic batch size per window: fill time must fit the headroom.

        At estimated load ``λ`` a batch of ``b`` takes ``b / λ`` seconds to
        fill, so the largest SLA-safe batch is
        ``floor((sla − p99(path, λ)) · λ)``, clamped to ``[1, max_batch]``
        and to 1 wherever the path predicts no headroom (or batching is
        disabled).
        """
        batch = np.ones(estimates.size, dtype=np.int64)
        if not self.batching or self.max_batch == 1:
            return batch
        p99 = np.empty(estimates.size)
        for index in np.unique(paths):
            mask = paths == index
            p99[mask] = self.table.p99_profile(int(index), estimates[mask])
        headroom = self.table.sla_seconds - p99
        open_windows = np.isfinite(p99) & (headroom > 0)
        batch[open_windows] = np.clip(
            np.floor(headroom[open_windows] * estimates[open_windows]), 1, self.max_batch
        ).astype(np.int64)
        return batch

    def schedule(self, trace: LoadTrace, stream: QueryStream) -> FrontendSchedule:
        """Route a whole query stream: the serving-time hot path.

        No engine work happens here — only the compiled table, the
        estimator and integer bookkeeping.  Window arrival counts come from
        :meth:`QueryStream.count_before` at the window edges, which draws a
        step's arrivals only where an edge falls strictly inside it, and
        admission is a scalar recursion over *windows*, so with windows on
        step edges the cost does not grow with the number of queries.

        Parameters
        ----------
        trace : LoadTrace
            The offered-load trace (drives estimation and windowing).
        stream : QueryStream
            The realized arrivals.

        Returns
        -------
        FrontendSchedule
            Per-window decisions (per-query outcomes derive from them).
        """
        window = self._window_width(trace)
        log = active_log()
        estimates, paths, switches = self.decide_windows(trace)
        num_windows = estimates.size
        paths_array = np.asarray(paths, dtype=np.intp)
        batch = self._batch_sizes(estimates, paths_array)

        window_ends = stream.count_before(_window_edges(num_windows, window))
        if window_ends[-1] < stream.num_queries:
            raise ValueError("stream extends past the trace duration")
        arrivals = np.diff(window_ends, prepend=0)

        max_feasible = np.asarray(
            [self.table.max_feasible_qps(i) for i in range(len(self.table.paths))]
        )
        caps = np.floor(max_feasible[paths_array] * window).astype(np.int64)
        # The backlog never holds more queries than the stream has, so the
        # clamp changes no schedule and keeps a huge limit inside int64.
        limits = np.minimum(self.defer_windows * caps, stream.num_queries)
        queue_limits = np.floor(limits).astype(np.int64)

        admitted, from_queue, deferred, shed = [], [], [], []
        shed_reason = np.full(num_windows, "none", dtype="<U11")
        # Deferred queries always form a contiguous suffix of all deferrals
        # so far, so the FIFO backlog is fully described by its length.
        backlog = 0
        max_queue_depth = 0
        for w, (cap, limit, count) in enumerate(
            zip(caps.tolist(), queue_limits.tolist(), arrivals.tolist())
        ):
            # Drain the backlog ahead of this window's fresh arrivals, admit
            # fresh arrivals into the rest of the cap, queue what the backlog
            # has room for and shed the remainder.
            drained = min(backlog, cap)
            prompt = min(count, cap - drained)
            backlog -= drained
            defer = min(count - prompt, max(limit - backlog, 0))
            backlog += defer
            dropped = count - prompt - defer
            admitted.append(drained + prompt)
            from_queue.append(drained)
            deferred.append(defer)
            shed.append(dropped)
            if dropped:
                shed_reason[w] = "no-capacity" if cap == 0 else "queue-full"
            max_queue_depth = max(max_queue_depth, backlog)
            # Only eventful windows are logged (shed, deferred or switched):
            # quiet windows dominate healthy streams and would swamp the log.
            if log is not None and (dropped or defer or switches[w]):
                log.emit(
                    "admission_window",
                    window=w,
                    path_name=self.table.paths[int(paths_array[w])].name,
                    arrivals=count,
                    admitted=drained + prompt,
                    deferred=defer,
                    shed=dropped,
                    shed_reason=str(shed_reason[w]),
                    queue_depth=backlog,
                    switch=bool(switches[w]),
                )
        if log is not None:
            # Queries still queued when the stream ends were never served.
            log.emit(
                "stream_summary",
                trace=trace.name,
                num_windows=int(num_windows),
                offered=int(stream.num_queries),
                admitted=sum(admitted),
                deferred=sum(deferred),
                shed=sum(shed) + backlog,
                max_queue_depth=max_queue_depth,
            )

        return FrontendSchedule(
            trace_name=trace.name,
            window_seconds=window,
            estimates=estimates,
            window_paths=paths_array,
            window_switches=np.asarray(switches, dtype=bool),
            window_batch=batch,
            window_arrivals=arrivals,
            window_admitted=np.asarray(admitted, dtype=np.int64),
            window_from_queue=np.asarray(from_queue, dtype=np.int64),
            window_deferred=np.asarray(deferred, dtype=np.int64),
            window_shed=np.asarray(shed, dtype=np.int64),
            window_shed_reason=shed_reason,
            max_queue_depth=max_queue_depth,
        )

    def serve(self, trace: LoadTrace, stream: QueryStream) -> FrontendResult:
        """Schedule a stream and score the schedule on the analytic engine.

        Every window with admitted queries becomes a dwell cell of
        :meth:`~repro.serving.router.PathTable.score`: the chosen path
        serves a steady-state arrival window at the *admitted* rate
        (admission control means the engine never sees an infeasible load
        unless the table's frontier and the engine's utilization threshold
        disagree, in which case the cell counts as saturated, exactly as in
        :meth:`~repro.serving.router.PathTable.evaluate_route`).  The
        window's fresh admits are its prompt queries; switch windows charge
        the router's ``switch_penalty_seconds`` to them.  Deferred-then-served
        queries deliver their path's quality but violate the SLA, and their
        queueing delay joins the latency pool; shed queries count as SLA
        violations with ``inf`` latency mass and zero quality.  The waits are
        computed only if the score builds its latency pool, so a stream
        whose shed mass alone makes the p99 ``inf`` draws no arrival block
        for them.

        Parameters
        ----------
        trace : LoadTrace
            The offered-load trace.
        stream : QueryStream
            The realized arrivals.

        Returns
        -------
        FrontendResult
            Routing metrics plus the underlying schedule.
        """
        if stream.num_queries == 0:
            raise ValueError("cannot serve an empty query stream")
        plan = self.schedule(trace, stream)
        served_windows = np.flatnonzero(plan.window_admitted > 0)
        admitted_qps = plan.window_admitted[served_windows] / plan.window_seconds
        penalty = self.router.switch_penalty_seconds
        cells = [
            (
                int(plan.window_paths[w]),
                float(qps),
                None,
                int(plan.window_admitted[w]),
                int(plan.window_admitted[w] - plan.window_from_queue[w]),
                penalty if plan.window_switches[w] else 0.0,
            )
            for w, qps in zip(served_windows, admitted_qps)
        ]

        def waits() -> np.ndarray:
            # Deferred queries: their queueing delay is their latency, pooled
            # in arrival order.  Computing the waits in place keeps one array
            # of them alive while the pool is scored.
            delays = plan.deferred_serve_windows() * plan.window_seconds
            delays -= stream.arrivals_at(plan.deferrals()[: plan.deferred_served_queries])
            return np.maximum(delays, 0.0, out=delays)

        routing = self.table.score(
            "frontend",
            trace.name,
            plan.window_paths,
            plan.window_switches,
            cells,
            plan.offered_queries,
            waits=waits,
            shed=plan.shed_queries,
        )
        return FrontendResult(routing=routing, schedule=plan)

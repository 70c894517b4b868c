"""Reference seconds: timings corrected for the host's speed at the time.

The benchmark shares a small host with other tenants, whose load slows every
instruction of this process by up to about 1.7x, in spells that last from
under a second to minutes; the process CPU time grows with it, so it is not
stolen time that could be subtracted.  To cancel such spells, a fixed slice
of reference work (:func:`work`) is timed while a step runs: a
:class:`Probe` interrupts the step every ``INTERVAL`` seconds, in the same
thread, runs one slice and records its time, and a few slices run just
before the step.  The step's own time (host seconds minus the slices run
inside it) scaled by ``NOMINAL_S`` / mean slice seconds is its time in
*reference seconds*: its time at the host speed at which a slice takes
``NOMINAL_S``.  The slices are fixed benchmark code that imports nothing
from ``repro``, so a change to the program moves the step and not the
reference.

A slice follows the program's own mix: interpreted Python over tuples,
strings, dicts and lists, and numpy calls on small arrays.  Work on large
arrays slows less under contention than this mix does, so the correction
overshoots a little on the array-heavy ``serve`` workload; adding a pass
over a 4 MB array to the slice helped ``serve`` but made ``fleet``, which
this mix tracks closely, spread several times more.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Host seconds one slice takes on an idle 2-vCPU Xeon guest: the scale of
#: a reference second.
NOMINAL_S = 0.003
#: Seconds of the step between two probe slices.
INTERVAL = 0.1
#: Slices timed just before each step.
LEAD = 10
#: Records of the interpreted part of a slice.
RECORDS = 2_000
#: numpy calls of a slice, each on an array of ``ARRAY`` elements.
TRIPS = 50
ARRAY = 200

_VALUES = np.random.default_rng(20211).random((TRIPS, ARRAY))


def work() -> float:
    """Run one slice of reference work; return its checksum (always the same)."""
    records = [(i % 101, i * 0.5, str(i % 37)) for i in range(RECORDS)]
    groups: dict[str, list[float]] = {}
    for weight, value, key in records:
        groups.setdefault(key, []).append(value + weight)
    total = 0.0
    for values in groups.values():
        values.sort()
        total += values[len(values) // 2]
    records.sort(key=lambda record: (record[2], -record[1]))
    for values in _VALUES:
        scan = np.cumsum(np.sort(values))
        total += float(scan[np.searchsorted(scan, scan[-1] * 0.99)])
    return total + records[0][1]


def timed_slices(count: int) -> list[float]:
    """Run ``count`` slices back to back; return the host seconds of each."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        work()
        samples.append(time.perf_counter() - start)
    return samples


def in_reference_seconds(seconds: float, samples: list[float]) -> float:
    """Scale host ``seconds`` by the host speed the slice ``samples`` show."""
    return seconds * NOMINAL_S / statistics.fmean(samples)


class Probe:
    """Time a slice every ``INTERVAL`` seconds of the ``with`` block, in its thread.

    ``samples`` holds the host seconds of each slice, ``spent`` their sum:
    time inside the block that belongs to the probe, not to the step.  A
    slice waits for a running C call (a numpy kernel) to return.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    @property
    def spent(self) -> float:
        """Host seconds the slices took."""
        return sum(self.samples)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

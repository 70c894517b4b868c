"""Structured run event logs: a seed-free, append-only JSONL trace of a run.

Long sweeps and fleet simulations are black boxes while they execute; this
module makes them observable without touching their results.  An
:class:`EventLog` collects typed records — route decisions, admission
windows, shard gathers, sweep-column completions — as plain dicts, each
stamped with a monotone sequence number (``seq``).  The stamp is a counter,
not a wall clock, so logs are reproducible across machines and never feed
back into seeded computation ("seed-free": logging on or off cannot change
a single simulated number).

Instrumented call sites are guarded by a single module-global hook:

>>> from repro.events import EventLog, capture
>>> with capture() as log:
...     router.decide(trace)  # doctest: +SKIP
>>> [record["kind"] for record in log]  # doctest: +SKIP
['route_decision', ...]

With no capture active, :func:`active_log` returns ``None`` and every
instrumented site reduces to one ``is None`` check — the default-off path
adds zero work to the serving hot loops and stays bit-for-bit identical,
which the router benchmarks gate.

The module sits at the package root and imports only the standard library,
so the serving, core and cluster layers and the CLI all import it at module
top without an import cycle.

Constructed with a ``path``, the log additionally streams each record to
disk as one JSON line per event (append-only, flushed per record), so a
long-running ``recpipe run --events run.jsonl`` is inspectable mid-flight
with ``tail -f``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

#: The router committed to a serving path (emitted at step 0 and at every
#: committed switch, not per step — the hot loop stays cheap).
ROUTE_DECISION = "route_decision"

#: A streaming-frontend admission window did something eventful (shed,
#: deferred, or switched paths).
ADMISSION_WINDOW = "admission_window"

#: End-of-stream totals from one frontend schedule.
STREAM_SUMMARY = "stream_summary"

#: A fleet composition priced its per-node embedding gathers.
SHARD_GATHER = "shard_gather"

#: One (platform, pipeline) sweep column finished evaluating.
SWEEP_COLUMN = "sweep_column"

#: Every record kind an instrumented call site may emit.
EVENT_KINDS = (ROUTE_DECISION, ADMISSION_WINDOW, STREAM_SUMMARY, SHARD_GATHER, SWEEP_COLUMN)


def _jsonable(value: Any) -> Any:
    """Coerce ``value`` to something ``json.dumps`` accepts losslessly.

    Numpy scalars carry ``item()``; non-finite floats have no RFC 8259
    representation and become ``None``, matching the artifact writers.

    Parameters
    ----------
    value : Any
        A payload value passed to :meth:`EventLog.emit`.

    Returns
    -------
    Any
        A JSON-serializable equivalent.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


class EventLog:
    """An append-only collection of typed run events.

    Parameters
    ----------
    path : str or Path, optional
        When given, every emitted record is additionally written to this
        file as one JSON line, flushed per record (parent directories are
        created).  Without it the log is in-memory only.

    Attributes
    ----------
    records : list of dict
        The emitted records, in emission order.  Each carries ``seq`` (a
        strictly increasing integer stamp) and ``kind`` plus the
        emitter's payload.
    path : Path or None
        The JSONL stream target, when streaming.
    """

    __slots__ = ("records", "path", "_handle", "_seq")

    def __init__(self, path: str | Path | None = None) -> None:
        self.records: list[dict[str, Any]] = []
        self.path: Path | None = Path(path) if path is not None else None
        self._handle: IO[str] | None = None
        self._seq = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")

    def emit(self, kind: str, **payload: Any) -> None:
        """Append one record of ``kind`` with the given payload.

        Parameters
        ----------
        kind : str
            One of :data:`EVENT_KINDS` (unchecked here: call sites own
            their vocabulary, tests pin it).
        **payload : Any
            Record fields; values are sanitized to JSON-safe types
            (numpy scalars unwrapped, non-finite floats to ``None``).
        """
        record = {"seq": self._seq, "kind": kind}
        for key, value in payload.items():
            record[key] = _jsonable(value)
        self._seq += 1
        self.records.append(record)
        if self._handle is not None:
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()

    def close(self) -> None:
        """Close the JSONL stream, if one is open (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def write_jsonl(self, path: str | Path) -> Path:
        """Write every record to ``path`` as JSON lines.

        Parameters
        ----------
        path : str or Path
            Target file (parent directories are created).

        Returns
        -------
        Path
            The written path.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        return target

    @staticmethod
    def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
        """Parse a JSONL event file back into records.

        Parameters
        ----------
        path : str or Path
            A file previously written by :meth:`write_jsonl` or by a
            streaming log.

        Returns
        -------
        list of dict
            The parsed records, in file order.
        """
        records = []
        with Path(path).open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records

    def counts(self) -> dict[str, int]:
        """Number of records per kind, sorted by kind.

        Returns
        -------
        dict of str to int
            ``{kind: count}`` over the emitted records.
        """
        totals: dict[str, int] = {}
        for record in self.records:
            totals[record["kind"]] = totals.get(record["kind"], 0) + 1
        return dict(sorted(totals.items()))

    def __len__(self) -> int:
        """Number of emitted records."""
        return len(self.records)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        """Iterate over the emitted records in order."""
        return iter(self.records)


_ACTIVE: EventLog | None = None


def active_log() -> EventLog | None:
    """The currently installed :class:`EventLog`, or ``None`` when off.

    Instrumented call sites fetch this once per call (not per loop
    iteration) and skip all event work when it is ``None``.

    Returns
    -------
    EventLog or None
        The log installed by :func:`capture`, if any.
    """
    return _ACTIVE


@contextmanager
def capture(log: EventLog | None = None) -> Iterator[EventLog]:
    """Install an event log for the duration of a ``with`` block.

    Parameters
    ----------
    log : EventLog, optional
        The log to install (default: a fresh in-memory one).

    Yields
    ------
    EventLog
        The installed log; read its :attr:`EventLog.records` after the
        block.  The previous hook (usually ``None``) is restored on exit
        and a streaming log is closed.
    """
    global _ACTIVE
    if log is None:
        log = EventLog()
    previous = _ACTIVE
    _ACTIVE = log
    try:
        yield log
    finally:
        _ACTIVE = previous
        log.close()

"""Structured artifact output: per-experiment JSON + CSV and a run manifest.

Every ``recpipe run`` (and ``sweep``/``route``/``capacity``) invocation with
``--output-dir`` writes machine-readable artifacts so runs are diffable across
PRs and consumable by the benchmark suite:

* ``<id>.json``  -- the full :class:`~repro.experiments.common.ExperimentResult`
  (rows + notes) together with the experiment's spec metadata and seed,
* ``<id>.csv``   -- the rows alone, one column per table key,
* ``manifest.json`` -- the run configuration, seed, and per-experiment
  wall-clock and artifact paths.

Artifact contents are deterministic for a fixed seed except for the
``wall_clock_seconds`` fields, which record measured time; diff tooling (and
the test suite) compares manifests after dropping those fields.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from itertools import chain, compress, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult

MANIFEST_NAME = "manifest.json"

#: Manifest schema history: version 1 carried command/seed/config/experiments;
#: version 2 adds ``schema_version`` itself, the ``resolved`` knob record
#: (engine, estimator, service model, cluster mix actually used) and the
#: optional ``events`` entry (the run's JSONL event log).  Readers treat a
#: manifest without the field as version 1.
MANIFEST_SCHEMA_VERSION = 2


class _Encoded(str):
    """JSON text the writer copies verbatim: a row encoded once for every file listing it."""

    __slots__ = ()


#: Containers the JSON writer recurses into, and encoded text it copies;
#: every other value is a scalar to the C encoder (objects other than these
#: reach ``_json_default``).
_NESTED = (dict, list, tuple, np.ndarray, _Encoded)
#: The values ``_sanitize`` checks for non-finite floats.
_FLOATS = (float, np.floating)


def _json_default(value):
    """Coerce numpy scalars/arrays so every row serializes cleanly."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    return str(value)


def _sanitize(value):
    """Replace non-finite floats with None so the output is strict RFC 8259
    JSON (json.dump would otherwise emit the bare ``Infinity``/``NaN``
    literals, which jq/JavaScript and other non-Python consumers reject).
    NumPy floating scalars (``np.float32`` is no ``float``) get the same check."""
    if isinstance(value, _FLOATS) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


@functools.cache
def _encoder(depth: int) -> Callable[[object], str]:
    """The C encoder for the members of a container ``depth`` levels deep.

    CPython's C encoder serves only ``indent=None``, so the indent lives in
    the item separator; the newline after an opening and before a closing
    bracket is the caller's.
    """
    return json.JSONEncoder(
        separators=(",\n" + "  " * (depth + 1), ": "), default=_json_default, allow_nan=False
    ).encode


def _finite_scalars(container: dict | list | tuple) -> dict | list | tuple | None:
    """``container`` with non-finite floats as ``None`` (a copy where one
    is), or ``None`` when a member is itself a container."""
    members = list(container.values()) if isinstance(container, dict) else container
    if any(map(issubclass, set(map(type, members)), repeat(_NESTED))):
        return None
    if all(map(math.isfinite, compress(members, map(isinstance, members, repeat(_FLOATS))))):
        return container
    finite = [
        None if isinstance(member, _FLOATS) and not math.isfinite(member) else member
        for member in members
    ]
    return dict(zip(container, finite)) if isinstance(container, dict) else finite


def _json_key(key, encode: Callable[[object], str]) -> str:
    """A member key as ``json`` writes it: an int, float, bool or None key in
    its JSON spelling (a non-finite float raises ``ValueError``), then quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = encode(key)
    return encode(key)


def _json_chunks(value, depth: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(_sanitize(value), indent=2,
    default=_json_default, allow_nan=False)``, member by member.

    A container of scalars is one C-encoder call; any other container
    writes its members between the same separators, so a payload streams
    row by row.  An ndarray is written as its ``tolist()``, as
    ``_json_default`` has ``json`` write it.  :class:`_Encoded` text is
    written as it is.
    """
    if type(value) is _Encoded:
        yield value
        return
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        opener, closer = "{", "}"
    elif isinstance(value, (list, tuple)):
        opener, closer = "[", "]"
    else:
        yield _encoder(depth)(_sanitize(value))
        return
    if not value:
        yield opener + closer
        return
    encode = _encoder(depth)
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth + closer
    scalars = _finite_scalars(value)
    if scalars is not None:
        yield f"{opener}{inner}{encode(scalars)[1:-1]}{outer}"
        return
    yield opener + inner
    separator = "," + inner
    if isinstance(value, dict):
        for index, (key, member) in enumerate(value.items()):
            yield f"{separator if index else ''}{_json_key(key, encode)}: "
            yield from _json_chunks(member, depth + 1)
    else:
        for index, member in enumerate(value):
            if index:
                yield separator
            yield from _json_chunks(member, depth + 1)
    yield outer


def _dump_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(_json_chunks(payload))
        handle.write("\n")


def _load_json(path: Path) -> dict:
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def result_payload(
    meta: Mapping,
    result: ExperimentResult,
    seed: int | None = None,
    wall_clock_seconds: float | None = None,
) -> dict:
    """The JSON document written for one experiment run."""
    payload = dict(meta)
    payload.update(
        seed=seed,
        wall_clock_seconds=wall_clock_seconds,
        name=result.name,
        rows=result.rows,
        notes=result.notes,
    )
    return payload


def payload_to_result(payload: Mapping) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a ``<id>.json`` document."""
    return ExperimentResult(
        name=payload["name"],
        rows=[dict(row) for row in payload["rows"]],
        notes=list(payload["notes"]),
    )


def write_result_json(path: Path, payload: dict) -> None:
    _dump_json(path, payload)


def load_result_json(path: Path) -> dict:
    return _load_json(path)


def write_result_csv(
    path: Path, result: ExperimentResult, encoded: tuple[list, Sequence[str]] | None = None
) -> None:
    """Rows as CSV; the header is the union of row keys in first-seen order.

    ``encoded``, when given, is that header and the rows' lines under it.
    """
    fieldnames, lines = encoded if encoded is not None else (_csv_header(result.rows), None)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fieldnames)
        if lines is None:
            writer.writerows(_csv_cells(row, fieldnames) for row in result.rows)
        else:
            handle.writelines(lines)


def _csv_header(rows: Sequence[Mapping]) -> list:
    """The union of the rows' keys in first-seen order."""
    return list(dict.fromkeys(chain.from_iterable(rows)))


def _csv_cells(row: Mapping, fieldnames: Sequence) -> list:
    """A row's cells under ``fieldnames``: ``""`` where it has no value."""
    return [
        value if type(value) in _CSV_BUILTINS else _csv_cell(value)
        for value in map(row.get, fieldnames, repeat(""))
    ]


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    """The CSV artifact back as a list of string-valued dicts."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        return [dict(row) for row in csv.DictReader(handle)]


#: Cell classes ``csv.writer`` writes as ``_csv_cell`` does (``float`` by
#: ``repr``, the rest by ``str``).  Matched by exact class: ``np.float64``
#: subclasses ``float``, and ``None`` would be written empty.
_CSV_BUILTINS = frozenset({str, int, float, bool})


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.integer, np.floating)):
        return repr(value.item())
    return str(value)


def merge_json_section(path: Path, section: str, payload: Mapping) -> Path:
    """Merge one named section into a JSON document (read-modify-write).

    The benchmark suite appends sections to the ``BENCH_*.json`` trajectory
    files from independent tests; merging instead of overwriting keeps the
    writers from clobbering each other.  A missing or unparsable file starts
    empty, and a legacy flat payload carrying a top-level ``benchmark`` name
    key is nested under that name before the new section lands, so old
    trajectory files migrate in place on the first merge.
    """
    path = Path(path)
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        existing = {}
    if "benchmark" in existing:  # legacy flat payload: nest it under its name
        existing = {existing.pop("benchmark"): existing}
    existing[section] = _sanitize(dict(payload))
    path.write_text(
        json.dumps(existing, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )
    return path


class _EncodedRows:
    """The JSON text and CSV line of each row of one table, encoded once.

    A table listing only these row objects, under the same CSV header, is
    written from this text (``recpipe sweep``'s per-platform breakdowns
    list the rows of ``sweep``).  A row's JSON text is its text as a member
    of a payload's ``rows``, two levels deep.
    """

    def __init__(self, rows: Sequence[Mapping]) -> None:
        self.rows = rows
        self.header = _csv_header(rows)
        self.index = {id(row): i for i, row in enumerate(rows)}
        self.json = [_Encoded("".join(_json_chunks(row, 2))) for row in rows]
        self.csv: list[str] = []  # csv.writer writes each row with one write call
        cells = (_csv_cells(row, self.header) for row in rows)
        csv.writer(SimpleNamespace(write=self.csv.append)).writerows(cells)

    def texts(self, rows: Sequence[Mapping]) -> tuple[list[str], tuple[list, list[str]]] | None:
        """The rows' JSON texts and their CSV header and lines, or ``None``
        unless every row is encoded here and the rows' header is this one."""
        at = [self.index.get(id(row)) for row in rows]
        if None in at or (rows is not self.rows and _csv_header(rows) != self.header):
            return None
        return [self.json[i] for i in at], (self.header, [self.csv[i] for i in at])


def write_experiment_artifacts(
    output_dir: Path,
    meta: Mapping,
    result: ExperimentResult,
    seed: int | None = None,
    wall_clock_seconds: float | None = None,
    encoded: _EncodedRows | None = None,
) -> dict:
    """Write ``<id>.json`` + ``<id>.csv`` and return the manifest entry.

    ``encoded`` supplies the rows' text when it holds all of them.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    exp_id = meta["id"]
    json_path = output_dir / f"{exp_id}.json"
    csv_path = output_dir / f"{exp_id}.csv"
    payload = result_payload(meta, result, seed, wall_clock_seconds)
    texts = encoded.texts(result.rows) if encoded is not None else None
    if texts is not None:
        payload["rows"] = texts[0]
    write_result_json(json_path, payload)
    write_result_csv(csv_path, result, texts[1] if texts is not None else None)
    return {
        "id": exp_id,
        "title": meta.get("title", ""),
        "paper_ref": meta.get("paper_ref", ""),
        "name": result.name,
        "num_rows": len(result.rows),
        "wall_clock_seconds": wall_clock_seconds,
        "json": json_path.name,
        "csv": csv_path.name,
    }


def write_sweep_artifacts(
    output_dir: Path,
    meta: Mapping,
    result: ExperimentResult,
    companions: Mapping[str, tuple[str, ExperimentResult]],
    seed: int | None = None,
    wall_clock_seconds: float | None = None,
) -> list[dict]:
    """Write a command's result as ``<id>`` and each companion as ``<id>_<suffix>``.

    ``companions`` maps a suffix to (what the table shows, the table); the
    companion's title is ``<title> — <what it shows>`` (``recpipe sweep``:
    per-platform breakdowns and ``frontier``; ``route``: ``steps``;
    ``capacity``: ``frontier``).  When a companion lists only rows of
    ``result``, each of those rows is encoded once and every file listing
    it reuses the text.  Returns the manifest entries in order.
    """
    main_ids = {id(row) for row in result.rows}
    shared = any(t.rows and main_ids.issuperset(map(id, t.rows)) for _, t in companions.values())
    encoded = _EncodedRows(result.rows) if shared else None
    entries = [
        write_experiment_artifacts(
            output_dir, meta, result, seed, wall_clock_seconds, encoded=encoded
        )
    ]
    for suffix, (shows, table) in companions.items():
        companion_meta = {
            **meta,
            "id": f"{meta['id']}_{suffix}",
            "title": f"{meta['title']} — {shows}",
        }
        entries.append(
            write_experiment_artifacts(output_dir, companion_meta, table, seed, encoded=encoded)
        )
    return entries


def write_manifest(
    output_dir: Path,
    command: str,
    config: Mapping,
    entries: Sequence[Mapping],
    seed: int | None = None,
    resolved: Mapping | None = None,
    events: Mapping | None = None,
) -> Path:
    """Write ``manifest.json`` describing the whole run.

    ``config`` records the *requested* knobs (CLI flags, scenario axes);
    ``resolved`` records what the run actually used once defaults and
    fallbacks applied — engine, estimator, service model, cluster mix —
    so two manifests are comparable even when one leaned on defaults.
    ``events`` names the run's JSONL event log, when one was captured.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / MANIFEST_NAME
    payload = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "config": dict(config),
        "resolved": dict(resolved) if resolved else {},
        "experiments": [dict(entry) for entry in entries],
    }
    if events:
        payload["events"] = dict(events)
    _dump_json(path, payload)
    return path


def _manifest_problem(manifest) -> str | None:
    """The first schema v1/v2 violation of a parsed manifest (None: valid)."""
    if not isinstance(manifest, dict):
        return f"a manifest must be a JSON object, got {type(manifest).__name__}"
    if not isinstance(manifest.get("command"), str):
        return "'command' must be a string"
    if not isinstance(manifest.get("config"), dict):
        return "'config' must be an object"
    experiments = manifest.get("experiments")
    if not isinstance(experiments, list):
        return "'experiments' must be a list"
    for index, entry in enumerate(experiments):
        if not isinstance(entry, dict):
            return f"'experiments[{index}]' must be an object"
        for key in ("id", "json", "csv"):
            if not isinstance(entry.get(key), str):
                return f"'experiments[{index}].{key}' must be a string"
    seed = manifest.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        return "'seed' must be an integer or null"
    if not isinstance(manifest.get("resolved", {}), dict):
        return "'resolved' must be an object"
    version = manifest.get("schema_version", 1)
    if isinstance(version, bool) or version not in (1, MANIFEST_SCHEMA_VERSION):
        return f"'schema_version' must be 1 or {MANIFEST_SCHEMA_VERSION}, got {version!r}"
    return None


def load_manifest(output_dir: Path) -> dict:
    """Read ``manifest.json`` and check it against schema v1/v2.

    Raises ``FileNotFoundError`` when the file is missing and ``ValueError``
    naming the file (and the field) when it is not JSON or breaks the schema.
    """
    path = Path(output_dir) / MANIFEST_NAME
    try:
        manifest = _load_json(path)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: invalid JSON: {error}") from None
    problem = _manifest_problem(manifest)
    if problem:
        raise ValueError(f"{path}: {problem}")
    return manifest


def manifest_schema_version(manifest: Mapping) -> int:
    """The schema version a loaded manifest was written under (1 if absent)."""
    return int(manifest.get("schema_version", 1))


def manifest_resolved(manifest: Mapping) -> dict:
    """The resolved-knob record, tolerating version-1 manifests (empty)."""
    return dict(manifest.get("resolved") or {})


def strip_timing(manifest: Mapping) -> dict:
    """A manifest with measured wall-clock removed (the deterministic part)."""
    stripped = dict(manifest)
    stripped["experiments"] = [
        {k: v for k, v in entry.items() if k != "wall_clock_seconds"}
        for entry in manifest.get("experiments", [])
    ]
    return stripped

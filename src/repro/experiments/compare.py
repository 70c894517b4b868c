"""Diff two ``--output-dir`` runs into a markdown report (``recpipe compare``).

Two runs of the same command are rarely byte-identical: a knob changed, an
estimator was swapped, a scenario axis moved.  This module reads the two
``manifest.json`` files plus the per-experiment JSON and CSV artifacts and
reports *what* differed:

* changed config axes (the requested knobs),
* changed resolved knobs (engine, estimator, service model, cluster mix),
* per-experiment metric deltas (mean over rows, run B minus run A, with
  direction arrows),
* per-experiment changed rows and notes: every column of every row and
  every note is compared exactly, so a flipped flag, a renamed pipeline, a
  dropped row or a changed note shows even when no mean moves,
* changed CSV files: where an experiment's rows and notes are equal, its
  two ``<id>.csv`` files are compared byte for byte, so a CSV writer that
  drifts from the JSON shows (with the first differing line of each),
* experiments present in only one run, and artifact files a manifest lists
  but its directory lacks.

Wall-clock fields are ignored throughout — they differ on every run and
carry no information — and so is ``jobs``: outputs must not depend on how
many processes produced them, so a serial run and a ``--jobs`` run of the
same command compare equal.  When nothing else differs — JSON and CSV
alike — the report says exactly ``No differences.`` so scripts (and the CI
smoke) can assert on it.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from typing import Mapping

from repro.experiments import artifacts

#: Exact sentence emitted when the two runs differ only in timing.
NO_DIFFERENCES = "No differences."

#: Keys whose values are measured time or process count, not configuration
#: or results.
_TIMING_KEYS = {"wall_clock_seconds", "jobs"}

#: Stands in for a column a row does not have.
_ABSENT = object()


def _fmt(value) -> str:
    """Stable scalar rendering for report cells."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return "-"
    return str(value)


def _fmt_delta(delta: float) -> str:
    """Signed delta with a direction arrow (B relative to A)."""
    arrow = "↑" if delta > 0 else "↓"
    return f"{delta:+.6g} {arrow}"


def _mapping_diff(a: Mapping, b: Mapping) -> list[tuple[str, object, object]]:
    """(key, value_a, value_b) for every key whose values differ."""
    keys = list(dict.fromkeys([*a, *b]))
    missing = object()
    diffs = []
    for key in keys:
        if key in _TIMING_KEYS:
            continue
        va, vb = a.get(key, missing), b.get(key, missing)
        if va != vb:
            diffs.append((key, None if va is missing else va, None if vb is missing else vb))
    return diffs


def _metric_means(rows: list[Mapping]) -> dict[str, float]:
    """Mean of every numeric column over the rows that carry it."""
    sums: dict[str, list[float]] = {}
    for row in rows:
        for key, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            sums.setdefault(key, []).append(float(value))
    return {key: sum(values) / len(values) for key, values in sums.items()}


def _experiment_payload(output_dir: Path, entry: Mapping) -> dict | None:
    """The ``<id>.json`` document of one manifest entry, or None when the file is missing."""
    path = output_dir / entry["json"]
    return artifacts.load_result_json(path) if path.is_file() else None


def _missing_files(label: str, output_dir: Path, entries: Mapping[str, Mapping]) -> list[str]:
    """Bullets naming every ``json``/``csv`` file a run's manifest lists but lacks."""
    return [
        f"- `{exp_id}`: `{entry[key]}` missing from run {label}"
        for exp_id, entry in entries.items()
        for key in ("json", "csv")
        if not (output_dir / entry[key]).is_file()
    ]


def _cell(row: Mapping, key: str) -> str:
    """An exact rendering of one row value (JSON spelling, strings quoted)."""
    return f"`{json.dumps(row[key])}`" if key in row else "(absent)"


def _unmatched(notes: list[str], other: list[str]) -> list[str]:
    """The notes of ``notes`` that ``other`` lacks, counting repeats, in order."""
    remaining = Counter(other)
    unmatched = []
    for note in notes:
        if remaining[note]:
            remaining[note] -= 1
        else:
            unmatched.append(note)
    return unmatched


def _row_changes(payload_a: Mapping, payload_b: Mapping) -> list[str]:
    """Bullets naming every exact row and note difference of one experiment."""
    rows_a, rows_b = payload_a.get("rows", []), payload_b.get("rows", [])
    lines = []
    if len(rows_a) != len(rows_b):
        lines.append(f"- row count: run A {len(rows_a)}, run B {len(rows_b)}")
    total = max(len(rows_a), len(rows_b))
    differing = [i for i in range(total) if rows_a[i : i + 1] != rows_b[i : i + 1]]
    if differing:
        first = differing[0]
        where = f"- {len(differing)} of {total} rows differ; first at row {first}"
        if first >= min(len(rows_a), len(rows_b)):
            lines.append(f"{where}: only in run {'A' if first < len(rows_a) else 'B'}")
        else:
            a, b = rows_a[first], rows_b[first]
            column = next(k for k in {**a, **b} if a.get(k, _ABSENT) != b.get(k, _ABSENT))
            where += f", column `{column}`: run A {_cell(a, column)}, run B {_cell(b, column)}"
            lines.append(where)
    notes_a, notes_b = list(payload_a.get("notes", [])), list(payload_b.get("notes", []))
    removed, added = _unmatched(notes_a, notes_b), _unmatched(notes_b, notes_a)
    lines += [f"- note only in run A: {note}" for note in removed]
    lines += [f"- note only in run B: {note}" for note in added]
    if notes_a != notes_b and not removed and not added:
        lines.append("- the same notes in another order")
    return lines


def _csv_change(exp_id: str, path_a: Path, path_b: Path) -> list[str]:
    """A bullet naming the first differing line of two runs' CSV, or none when they are equal.

    Lines keep their terminators and render in JSON spelling, so a changed
    line ending or a missing last newline shows too.  A file missing from
    either run is reported under "Missing artifact files" instead.
    """
    if not (path_a.is_file() and path_b.is_file()):
        return []
    data_a, data_b = path_a.read_bytes(), path_b.read_bytes()
    if data_a == data_b:
        return []
    lines_a, lines_b = data_a.splitlines(keepends=True), data_b.splitlines(keepends=True)
    first = next(i for i, (a, b) in enumerate(zip_longest(lines_a, lines_b)) if a != b)

    def line(lines: list[bytes]) -> str:
        if first >= len(lines):
            return "(end of file)"
        return f"`{json.dumps(lines[first].decode('utf-8', 'replace'))}`"

    return [
        f"- `{exp_id}`: `{path_a.name}` first differs at line {first + 1}: "
        f"run A {line(lines_a)}, run B {line(lines_b)}"
    ]


def _section(title: str, lines: list[str]) -> list[str]:
    return [f"## {title}", "", *lines, ""]


def _diff_table(diffs: list[tuple[str, object, object]]) -> list[str]:
    lines = ["| key | run A | run B |", "| --- | --- | --- |"]
    for key, va, vb in diffs:
        lines.append(f"| `{key}` | {_fmt(va)} | {_fmt(vb)} |")
    return lines


def compare_runs(dir_a: Path, dir_b: Path) -> str:
    """Markdown report of the differences between two ``--output-dir`` runs.

    Compares the manifests' config and resolved knobs, then every
    experiment both runs hold: metric means, rows and notes exactly, and,
    where rows and notes are equal, the two CSV files byte for byte.  The
    report ends with exactly ``No differences.`` when none of these differ.
    Raises ``FileNotFoundError`` when either directory has no manifest.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    manifest_a = artifacts.load_manifest(dir_a)
    manifest_b = artifacts.load_manifest(dir_b)

    report: list[str] = ["# recpipe compare", ""]
    report += [
        "| run | directory | command | seed | schema | experiments |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for label, directory, manifest in (("A", dir_a, manifest_a), ("B", dir_b, manifest_b)):
        report.append(
            f"| {label} | `{directory}` | `{manifest.get('command', '?')}` "
            f"| {_fmt(manifest.get('seed'))} "
            f"| v{artifacts.manifest_schema_version(manifest)} "
            f"| {len(manifest.get('experiments', []))} |"
        )
    report.append("")

    found_difference = False

    config_diffs = _mapping_diff(manifest_a.get("config", {}), manifest_b.get("config", {}))
    if config_diffs:
        found_difference = True
        report += _section("Changed config axes", _diff_table(config_diffs))

    resolved_diffs = _mapping_diff(
        artifacts.manifest_resolved(manifest_a), artifacts.manifest_resolved(manifest_b)
    )
    if resolved_diffs:
        found_difference = True
        report += _section("Changed resolved knobs", _diff_table(resolved_diffs))

    entries_a = {e["id"]: e for e in manifest_a.get("experiments", [])}
    entries_b = {e["id"]: e for e in manifest_b.get("experiments", [])}
    shared = [exp_id for exp_id in entries_a if exp_id in entries_b]
    only_a = [exp_id for exp_id in entries_a if exp_id not in entries_b]
    only_b = [exp_id for exp_id in entries_b if exp_id not in entries_a]

    metric_lines: list[str] = []
    row_lines: list[str] = []
    csv_lines: list[str] = []
    for exp_id in shared:
        payload_a = _experiment_payload(dir_a, entries_a[exp_id])
        payload_b = _experiment_payload(dir_b, entries_b[exp_id])
        if payload_a is None or payload_b is None:
            continue
        changes = _row_changes(payload_a, payload_b)
        if changes:
            row_lines += [f"### `{exp_id}`", "", *changes, ""]
        else:
            csv_lines += _csv_change(
                exp_id, dir_a / entries_a[exp_id]["csv"], dir_b / entries_b[exp_id]["csv"]
            )
        means_a = _metric_means(payload_a.get("rows", []))
        means_b = _metric_means(payload_b.get("rows", []))
        deltas = [
            (key, means_a[key], means_b[key])
            for key in dict.fromkeys([*means_a, *means_b])
            if key in means_a and key in means_b and means_a[key] != means_b[key]
        ]
        dropped = [
            key
            for key in dict.fromkeys([*means_a, *means_b])
            if (key in means_a) != (key in means_b)
        ]
        if not deltas and not dropped:
            continue
        metric_lines += [f"### `{exp_id}`", ""]
        if deltas:
            metric_lines += [
                "| metric (mean over rows) | run A | run B | delta |",
                "| --- | --- | --- | --- |",
            ]
            for key, va, vb in deltas:
                metric_lines.append(
                    f"| `{key}` | {_fmt(va)} | {_fmt(vb)} | {_fmt_delta(vb - va)} |"
                )
            metric_lines.append("")
        for key in dropped:
            where = "A" if key in means_a else "B"
            metric_lines.append(f"- metric `{key}` appears only in run {where}")
        if dropped:
            metric_lines.append("")
    if metric_lines:
        found_difference = True
        report += ["## Metric deltas", "", *metric_lines]
    if row_lines:
        found_difference = True
        report += ["## Changed rows and notes", "", *row_lines]
    if csv_lines:
        found_difference = True
        report += _section("Changed CSV files", csv_lines)

    artifact_lines: list[str] = []
    for exp_id in only_b:
        artifact_lines.append(f"- `{exp_id}` only in run B")
    for exp_id in only_a:
        artifact_lines.append(f"- `{exp_id}` missing from run B")
    if artifact_lines:
        found_difference = True
        report += _section("Experiments present in only one run", artifact_lines)

    missing_lines = _missing_files("A", dir_a, entries_a) + _missing_files("B", dir_b, entries_b)
    if missing_lines:
        found_difference = True
        report += _section("Missing artifact files", missing_lines)

    if not found_difference:
        report += [NO_DIFFERENCES, ""]
    return "\n".join(report).rstrip() + "\n"

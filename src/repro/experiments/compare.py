"""Diff two ``--output-dir`` runs into a markdown report (``recpipe compare``).

Two runs of the same command are rarely byte-identical: a knob changed, an
estimator was swapped, a scenario axis moved.  This module reads the two
``manifest.json`` files plus the per-experiment JSON artifacts and reports
*what* differed:

* changed config axes (the requested knobs),
* changed resolved knobs (engine, estimator, service model, cluster mix),
* per-experiment metric deltas (mean over rows, run B minus run A, with
  direction arrows),
* experiments/artifacts present in only one run.

Wall-clock fields are ignored throughout — they differ on every run and
carry no information — and so is ``jobs``: outputs must not depend on how
many processes produced them, so a serial run and a ``--jobs`` run of the
same command compare equal.  When nothing else differs the report says
exactly ``No differences.`` so scripts (and the CI smoke) can assert on it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.experiments import artifacts

#: Exact sentence emitted when the two runs differ only in timing.
NO_DIFFERENCES = "No differences."

#: Keys whose values are measured time or process count, not configuration
#: or results.
_TIMING_KEYS = {"wall_clock_seconds", "jobs"}


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


def _experiment_metrics(output_dir: Path, entry: Mapping) -> dict[str, float] | None:
    """The metric means of one manifest entry, or None when unreadable."""
    json_name = entry.get("json")
    if not json_name:
        return None
    path = output_dir / json_name
    if not path.is_file():
        return None
    payload = artifacts.load_result_json(path)
    return _metric_means(payload.get("rows", []))


def _section(title: str, lines: list[str]) -> list[str]:
    return [f"## {title}", "", *lines, ""]


def _diff_table(diffs: list[tuple[str, object, object]]) -> list[str]:
    lines = ["| key | run A | run B |", "| --- | --- | --- |"]
    for key, va, vb in diffs:
        lines.append(f"| `{key}` | {_fmt(va)} | {_fmt(vb)} |")
    return lines


def compare_runs(dir_a: Path, dir_b: Path) -> str:
    """Markdown report of the differences between two ``--output-dir`` runs.

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
    for exp_id in shared:
        means_a = _experiment_metrics(dir_a, entries_a[exp_id])
        means_b = _experiment_metrics(dir_b, entries_b[exp_id])
        if means_a is None or means_b is None:
            continue
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
            where = "A" if key in (means_a or {}) else "B"
            metric_lines.append(f"- metric `{key}` appears only in run {where}")
        if dropped:
            metric_lines.append("")
    if metric_lines:
        found_difference = True
        report += ["## Metric deltas", "", *metric_lines]

    artifact_lines: list[str] = []
    for exp_id in only_b:
        artifact_lines.append(f"- `{exp_id}` only in run B")
    for exp_id in only_a:
        artifact_lines.append(f"- `{exp_id}` missing from run B")
    if artifact_lines:
        found_difference = True
        report += _section("Experiments present in only one run", artifact_lines)

    if not found_difference:
        report += [NO_DIFFERENCES, ""]
    return "\n".join(report).rstrip() + "\n"

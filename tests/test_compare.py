"""Tests for manifest schema v2 and the ``recpipe compare`` report."""

import json
import re
from pathlib import Path

import pytest

from repro.experiments import artifacts
from repro.experiments.common import ExperimentResult
from repro.experiments.compare import NO_DIFFERENCES, compare_runs

GOLDEN = Path(__file__).parent / "golden"


def write_run(out_dir: Path, estimator: str = "windowed", p99: float = 9.0) -> None:
    """A small deterministic run directory (manifest + one experiment)."""
    result = ExperimentResult(name="cell")
    result.add(policy="static", estimator="-", p99_ms=8.5, quality_ndcg=98.7)
    result.add(policy="online", estimator=estimator, p99_ms=p99, quality_ndcg=98.5)
    meta = {
        "id": "cell",
        "title": "Cell",
        "paper_ref": "ref",
        "tags": ["scenario"],
        "module": "repro.scenarios.runner",
    }
    entry = artifacts.write_experiment_artifacts(Path(out_dir), meta, result, seed=0)
    artifacts.write_manifest(
        Path(out_dir),
        "run",
        {"only": ["cell"], "estimator": estimator},
        [entry],
        seed=0,
        resolved={"engine": "analytic", "estimator": estimator},
    )


class TestManifestSchema:
    def test_write_manifest_records_schema_v2_and_resolved(self, tmp_path):
        write_run(tmp_path)
        manifest = artifacts.load_manifest(tmp_path)
        assert artifacts.manifest_schema_version(manifest) == artifacts.MANIFEST_SCHEMA_VERSION
        assert artifacts.manifest_resolved(manifest) == {
            "engine": "analytic",
            "estimator": "windowed",
        }
        assert "events" not in manifest  # only recorded when captured

    def test_events_entry_round_trips(self, tmp_path):
        events = {"path": "events.jsonl", "num_events": 3, "counts": {"route_decision": 3}}
        artifacts.write_manifest(tmp_path, "run", {}, [], seed=1, events=events)
        assert artifacts.load_manifest(tmp_path)["events"] == events

    def test_v1_manifest_reads_back_compatibly(self, tmp_path):
        # A pre-schema manifest: no schema_version, no resolved record.
        payload = {"command": "run", "seed": 0, "config": {}, "experiments": []}
        (tmp_path / artifacts.MANIFEST_NAME).write_text(json.dumps(payload), encoding="utf-8")
        manifest = artifacts.load_manifest(tmp_path)
        assert artifacts.manifest_schema_version(manifest) == 1
        assert artifacts.manifest_resolved(manifest) == {}


class TestCompareRuns:
    def test_identical_runs_match_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_run(Path("a"))
        write_run(Path("b"))
        report = compare_runs(Path("a"), Path("b"))
        assert NO_DIFFERENCES in report
        assert report == (GOLDEN / "compare_identical.md").read_text(encoding="utf-8")

    def test_changed_estimator_matches_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_run(Path("a"))
        write_run(Path("b"), estimator="holt", p99=11.5)
        report = compare_runs(Path("a"), Path("b"))
        # The changed axis shows in config and resolved knobs; the moved
        # metric shows as a mean delta with a direction arrow.
        assert "## Changed config axes" in report
        assert "## Changed resolved knobs" in report
        assert "| `estimator` | windowed | holt |" in report
        assert "## Metric deltas" in report
        assert "`p99_ms`" in report and "↑" in report
        assert NO_DIFFERENCES not in report
        assert report == (GOLDEN / "compare_changed.md").read_text(encoding="utf-8")

    def test_new_and_missing_experiments_reported(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(a)
        write_run(b)
        manifest = artifacts.load_manifest(b)
        manifest["experiments"][0]["id"] = "other"
        (b / artifacts.MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        report = compare_runs(a, b)
        assert "- `other` only in run B" in report
        assert "- `cell` missing from run B" in report

    def test_v1_manifests_compare_without_crashing(self, tmp_path):
        for name in ("a", "b"):
            run = tmp_path / name
            run.mkdir()
            payload = {"command": "run", "seed": 0, "config": {}, "experiments": []}
            (run / artifacts.MANIFEST_NAME).write_text(json.dumps(payload), encoding="utf-8")
        report = compare_runs(tmp_path / "a", tmp_path / "b")
        assert "v1" in report
        assert NO_DIFFERENCES in report

    def test_wall_clock_differences_are_ignored(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(a)
        write_run(b)
        manifest = artifacts.load_manifest(b)
        manifest["experiments"][0]["wall_clock_seconds"] = 123.4
        (b / artifacts.MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        assert NO_DIFFERENCES in compare_runs(a, b)

    def test_process_count_is_not_a_difference(self, tmp_path):
        # Outputs must not depend on --jobs, so a serial and a parallel run
        # of the same command compare equal.
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(a)
        write_run(b)
        manifest = artifacts.load_manifest(b)
        manifest["config"]["jobs"] = 2
        (b / artifacts.MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        assert compare_runs(a, b).endswith(NO_DIFFERENCES + "\n")

    @pytest.mark.parametrize(
        "run, name", [("a", "cell.json"), ("b", "cell.json"), ("b", "cell.csv")]
    )
    def test_missing_artifact_file_is_a_difference(self, tmp_path, run, name):
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(a)
        write_run(b)
        (tmp_path / run / name).unlink()
        report = compare_runs(a, b)
        assert NO_DIFFERENCES not in report
        assert f"- `cell`: `{name}` missing from run {run.upper()}" in report


def edit_rows(out_dir: Path, change) -> None:
    """Apply ``change`` to a written run's ``cell.json`` payload in place."""
    path = out_dir / "cell.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    change(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def set_row(index: int, **values):
    return lambda payload: payload["rows"][index].update(values)


class TestChangedRowsAndNotes:
    """Differences no column mean shows still make the report."""

    @pytest.mark.parametrize(
        "change_a, change_b, expected",
        [
            (
                set_row(0, on_frontier=True),
                set_row(0, on_frontier=False),
                "- 1 of 2 rows differ; first at row 0, column `on_frontier`: "
                "run A `true`, run B `false`",
            ),
            (
                None,
                set_row(0, policy="oracle"),
                '- 1 of 2 rows differ; first at row 0, column `policy`: '
                'run A `"static"`, run B `"oracle"`',
            ),
            (
                None,
                lambda payload: payload["rows"].pop(),
                "- row count: run A 2, run B 1\n"
                "- 1 of 2 rows differ; first at row 1: only in run A",
            ),
            (
                lambda payload: payload.update(notes=["winner 2xcpu", "peak 100"]),
                lambda payload: payload.update(notes=["winner 3xcpu", "peak 100"]),
                "- note only in run A: winner 2xcpu\n- note only in run B: winner 3xcpu",
            ),
            (
                lambda payload: payload.update(notes=["a", "b"]),
                lambda payload: payload.update(notes=["b", "a"]),
                "- the same notes in another order",
            ),
        ],
    )
    def test_exact_differences_are_reported(self, tmp_path, change_a, change_b, expected):
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(a)
        write_run(b)
        for run, change in ((a, change_a), (b, change_b)):
            if change is not None:
                edit_rows(run, change)
        report = compare_runs(a, b)
        assert NO_DIFFERENCES not in report
        assert "## Changed rows and notes\n\n### `cell`\n\n" + expected in report

    def test_equal_rows_and_notes_add_no_section(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for run in (a, b):
            write_run(run)
            edit_rows(run, lambda payload: payload.update(notes=["same"]))
        report = compare_runs(a, b)
        assert "Changed rows and notes" not in report
        assert report.endswith(NO_DIFFERENCES + "\n")


class TestChangedCsv:
    """Equal rows and notes with unequal CSV files: the CSV writer drifted from the JSON."""

    @pytest.mark.parametrize(
        "change, expected",
        [
            (
                lambda data: data.replace(b"8.5", b"8.6", 1),
                '- `cell`: `cell.csv` first differs at line 2: '
                'run A `"static,-,8.5,98.7\\r\\n"`, run B `"static,-,8.6,98.7\\r\\n"`',
            ),
            (
                lambda data: data.replace(b"\r\n", b"\n"),
                '- `cell`: `cell.csv` first differs at line 1: '
                'run A `"policy,estimator,p99_ms,quality_ndcg\\r\\n"`, '
                'run B `"policy,estimator,p99_ms,quality_ndcg\\n"`',
            ),
            (
                lambda data: data + b"stray\r\n",
                '- `cell`: `cell.csv` first differs at line 4: '
                'run A (end of file), run B `"stray\\r\\n"`',
            ),
        ],
        ids=["edited-cell", "line-endings", "extra-line"],
    )
    def test_first_differing_line_is_reported(self, tmp_path, change, expected):
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(a)
        write_run(b)
        csv_b = b / "cell.csv"
        csv_b.write_bytes(change(csv_b.read_bytes()))
        report = compare_runs(a, b)
        assert NO_DIFFERENCES not in report
        assert "## Changed CSV files\n\n" + expected + "\n" in report

    def test_rows_that_differ_are_reported_once(self, tmp_path):
        # The CSV follows the rows; the rows section already names the change.
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(a)
        write_run(b, p99=11.5)
        report = compare_runs(a, b)
        assert "## Changed rows and notes" in report
        assert "Changed CSV files" not in report


class TestCompareCli:
    def test_compare_writes_output_file(self, tmp_path, capsys):
        from repro.cli import main

        write_run(tmp_path / "a")
        write_run(tmp_path / "b", estimator="holt", p99=11.5)
        out = tmp_path / "report" / "diff.md"
        argv = ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--output", str(out)]
        assert main(argv) == 0
        assert "Changed config axes" in out.read_text(encoding="utf-8")

    def test_compare_missing_manifest_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
        assert "error" in capsys.readouterr().err

    def _manifest(self, directory: Path, payload) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (directory / artifacts.MANIFEST_NAME).write_text(text, encoding="utf-8")
        return directory

    def test_report_on_empty_manifest_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        run = self._manifest(tmp_path / "a", {})
        assert main(["report", "--output-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert str(run / artifacts.MANIFEST_NAME) in err and "'command'" in err

    def test_compare_non_object_manifest_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        write_run(tmp_path / "b")
        run = self._manifest(tmp_path / "a", [1, 2])
        assert main(["compare", str(run), str(tmp_path / "b")]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_compare_of_empty_manifests_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        a, b = (self._manifest(tmp_path / name, {}) for name in "ab")
        assert main(["compare", str(a), str(b)]) == 2
        assert "No differences." not in capsys.readouterr().out

    def test_compare_of_int_ids_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        payload = {
            "command": "run",
            "config": {},
            "experiments": [{"id": 1, "json": "x.json", "csv": "x.csv"}],
        }
        a, b = (self._manifest(tmp_path / name, payload) for name in "ab")
        assert main(["compare", str(a), str(b)]) == 2
        assert "'experiments[0].id' must be a string" in capsys.readouterr().err

    def test_non_json_manifest_names_the_file(self, tmp_path, capsys):
        from repro.cli import main

        run = self._manifest(tmp_path / "a", "not json")
        assert main(["report", "--output-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert str(run / artifacts.MANIFEST_NAME) in err and "invalid JSON" in err


@pytest.mark.parametrize(
    "change, field",
    [
        ({"command": 3}, "'command'"),
        ({"config": []}, "'config'"),
        ({"experiments": {}}, "'experiments'"),
        ({"experiments": [3]}, "'experiments[0]'"),
        ({"experiments": [{"id": "x", "json": "x.json"}]}, "'experiments[0].csv'"),
        ({"seed": "zero"}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"resolved": []}, "'resolved'"),
        ({"schema_version": 3}, "'schema_version'"),
        ({"schema_version": True}, "'schema_version'"),
    ],
)
def test_load_manifest_names_the_bad_field(tmp_path, change, field):
    payload = {"command": "run", "seed": None, "config": {}, "experiments": [], **change}
    (tmp_path / artifacts.MANIFEST_NAME).write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(field)) as error:
        artifacts.load_manifest(tmp_path)
    assert artifacts.MANIFEST_NAME in str(error.value)

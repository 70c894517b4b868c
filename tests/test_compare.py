"""Tests for manifest schema v2 and the ``recpipe compare`` report."""

import json
from pathlib import Path

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

"""The docs CI checks, runnable as part of tier-1 (``tools/check_docs.py``)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsSet:
    EXPECTED_PAGES = ("index.md", "serving.md", "sweeps.md", "experiments.md", "cli.md")

    def test_docs_pages_exist(self):
        for page in self.EXPECTED_PAGES:
            assert (REPO_ROOT / "docs" / page).exists(), f"docs/{page} missing"

    def test_monolithic_architecture_page_is_gone(self):
        assert not (REPO_ROOT / "docs" / "architecture.md").exists()

    def test_pages_cross_link(self, check_docs):
        # Every docs page links to at least one sibling page.
        for page in self.EXPECTED_PAGES:
            text = (REPO_ROOT / "docs" / page).read_text()
            siblings = [p for p in self.EXPECTED_PAGES if p != page]
            assert any(f"({sibling}" in text for sibling in siblings), (
                f"docs/{page} links no sibling page"
            )

    def test_router_and_experiment_are_cross_linked(self):
        serving = (REPO_ROOT / "docs" / "serving.md").read_text()
        experiments = (REPO_ROOT / "docs" / "experiments.md").read_text()
        assert "router" in serving and "experiments.md" in serving
        assert "router" in experiments


class TestLinkCheck:
    def test_all_relative_links_resolve(self, check_docs):
        assert check_docs.check_links() == []

    def test_link_checker_catches_breakage(self, check_docs, tmp_path, monkeypatch):
        readme = tmp_path / "README.md"
        readme.write_text("see [missing](docs/nope.md)\n")
        (tmp_path / "docs").mkdir()
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        errors = check_docs.check_links()
        assert len(errors) == 1 and "nope.md" in errors[0]


class TestExperimentsTable:
    def test_committed_table_matches_registry(self, check_docs):
        assert check_docs.check_experiments_table() == []

    def test_generated_table_matches_cli_output(self, check_docs, capsys):
        from repro import cli

        assert cli.main(["list", "--format", "markdown"]) == 0
        assert capsys.readouterr().out.strip() == check_docs.generated_table()

    def test_stale_table_is_detected(self, check_docs, monkeypatch):
        monkeypatch.setattr(check_docs, "committed_table", lambda: "| stale |")
        errors = check_docs.check_experiments_table()
        assert len(errors) == 1 and "stale" in errors[0]

    def test_main_reports_success(self, check_docs, capsys):
        assert check_docs.main() == 0
        assert "docs ok" in capsys.readouterr().out


class TestKnobTables:
    def test_committed_tables_match_the_knob_table(self, check_docs):
        assert check_docs.check_knob_tables() == []

    def test_every_knob_command_has_a_checked_block(self, check_docs):
        from repro.scenarios.knobs import COMMANDS

        # `run` takes only --jobs/--seed and keeps its hand-written table.
        names = {name for _, name in check_docs.KNOB_TABLES}
        assert names == set(COMMANDS) - {"run"} | {"keys"}

    def test_stale_table_prints_the_expected_one(self, check_docs, monkeypatch):
        monkeypatch.setattr(check_docs, "committed_block", lambda page, name: "| stale |")
        errors = check_docs.check_knob_tables()
        assert len(errors) == len(check_docs.KNOB_TABLES)
        route = next(error for error in errors if "knob-table:route" in error)
        assert "stale" in route and check_docs.generated_knob_table("route") in route

    def test_missing_markers_are_reported(self, check_docs, monkeypatch):
        monkeypatch.setattr(check_docs, "committed_block", lambda page, name: None)
        errors = check_docs.check_knob_tables()
        assert any("missing knob-table:keys markers" in error for error in errors)


def test_checker_runs_as_a_script():
    import subprocess

    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr

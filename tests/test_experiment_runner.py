"""Tests for the experiment result helpers."""

from repro.experiments.common import ExperimentResult


class TestExperimentResultHelpers:
    def test_column_and_filtered(self):
        result = ExperimentResult(name="x")
        result.add(a=1, b="u")
        result.add(a=2, b="v")
        assert result.column("a") == [1, 2]
        assert result.filtered(b="v")[0]["a"] == 2

    def test_format_table_empty(self):
        assert "(no rows)" in ExperimentResult(name="empty").format_table()

    def test_format_table_handles_inf(self):
        result = ExperimentResult(name="x")
        result.add(value=float("inf"))
        assert "inf" in result.format_table()

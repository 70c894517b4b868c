"""Tests for the capacity-planning experiment and its CLI subcommand.

A tiny single-platform sweep (two cpu mixes, short trace, small engine
budget) exercises the whole planner — sharding, gather, cluster
composition, SLA scan, frontier — in well under a second; the CLI suite
checks the ``recpipe capacity`` artifact contract and determinism.
"""

import numpy as np
import pytest

from repro import cli
from repro.cluster import fleet
from repro.experiments import artifacts
from repro.experiments.capacity_planning import CapacityConfig
from repro.experiments.capacity_planning import run_capacity as plan_capacity
from repro.scenarios.runner import build_trace


def capacity_trace(config: CapacityConfig):
    """The diurnal trace a capacity cell serves, shaped by ``config``."""
    shape = {
        "steps": config.steps,
        "step_seconds": config.step_seconds,
        "noise": config.noise,
        "base_qps": config.resolved_base_qps,
        "peak_qps": config.resolved_peak_qps,
    }
    return build_trace(shape, "diurnal", config.seed)


def run_capacity(config: CapacityConfig):
    """The planner over the trace its capacity cell would serve."""
    return plan_capacity(config, capacity_trace(config))


TINY = CapacityConfig(
    platforms=("cpu",),
    max_nodes=2,
    users=200_000,
    steps=12,
    step_seconds=60.0,
    num_queries=150,
)


@pytest.fixture(scope="module")
def tiny_run():
    """One shared tiny sweep: (per-mix result, frontier result)."""
    return run_capacity(TINY)


class TestRunCapacity:
    def test_every_mix_has_a_row(self, tiny_run):
        result, _ = tiny_run
        assert {row["mix"] for row in result.rows} == {"1xcpu", "2xcpu"}
        for row in result.rows:
            assert row["strategy"] == "tablewise"
            assert row["memory_ok"]
            assert row["cost_usd"] > 0

    def test_frontier_nonempty_flagged_and_cost_sorted(self, tiny_run):
        result, frontier = tiny_run
        assert frontier.rows
        costs = [row["cost_usd"] for row in frontier.rows]
        assert costs == sorted(costs)
        flagged = {row["mix"] for row in result.rows if row["on_frontier"]}
        assert {row["mix"] for row in frontier.rows} == flagged

    def test_serves_peak_matches_the_trace(self, tiny_run):
        result, _ = tiny_run
        peak = float(np.max(capacity_trace(TINY).qps))
        for row in result.rows:
            assert row["serves_peak"] == (row["sla_qps"] >= peak)

    def test_replication_scales_capacity_and_pays_the_gather_tax(self, tiny_run):
        result, _ = tiny_run
        by_mix = {row["mix"]: row for row in result.rows}
        single, double = by_mix["1xcpu"], by_mix["2xcpu"]
        assert double["capacity_qps"] == pytest.approx(2 * single["capacity_qps"], rel=1e-6)
        assert double["sla_qps"] >= single["sla_qps"]
        assert double["cost_usd"] == pytest.approx(2 * single["cost_usd"])
        # Sharding cannot make a node faster: the fixed half-capacity probe
        # differs from the single node only by the (non-negative) gather.
        assert single["gather_max_us"] == 0.0
        assert double["gather_max_us"] > 0.0
        assert double["probe_p99_ms"] >= single["probe_p99_ms"] - 1e-9

    def test_notes_describe_trace_and_winner(self, tiny_run):
        result, frontier = tiny_run
        notes = "\n".join(result.notes)
        assert "offered peak" in notes
        assert "cheapest single node" in notes
        assert frontier.notes == result.notes

    def test_infeasible_budget_reported_not_raised(self):
        config = CapacityConfig(
            platforms=("cpu",),
            max_nodes=1,
            users=50_000,
            steps=8,
            step_seconds=60.0,
            num_queries=150,
            budget_gb=0.5,
        )
        result, frontier = run_capacity(config)
        (row,) = result.rows
        assert not row["memory_ok"]
        assert row["sla_qps"] == 0.0
        assert not row["serves_peak"]
        assert not frontier.rows
        assert any("no mix serves" in note for note in result.notes)

    def test_rowwise_strategy_is_recorded(self):
        config = CapacityConfig(
            platforms=("cpu",),
            max_nodes=2,
            users=50_000,
            steps=8,
            step_seconds=60.0,
            num_queries=150,
            strategy="rowwise",
        )
        result, _ = run_capacity(config)
        assert all(row["strategy"] == "rowwise" for row in result.rows)
        double = next(row for row in result.rows if row["num_nodes"] == 2)
        assert double["gather_max_us"] > 0.0

    @pytest.fixture()
    def shard_calls(self, monkeypatch):
        """Record every budget vector the planner hands to the sharder."""
        calls = []
        original = fleet.shard_table_wise

        def counting(tables, budgets):
            calls.append(tuple(budgets))
            return original(tables, budgets)

        monkeypatch.setattr(fleet, "shard_table_wise", counting)
        return calls

    def test_one_placement_per_budget_vector(self, shard_calls):
        config = CapacityConfig(
            platforms=("cpu", "rpaccel"),
            max_nodes=3,
            users=50_000,
            steps=8,
            step_seconds=60.0,
            num_queries=150,
        )
        result, _ = run_capacity(config)
        assert len(result.rows) == 9
        assert [len(budgets) for budgets in shard_calls] == [1, 2, 3]

    def test_infeasible_placement_shared_across_mixes(self, shard_calls):
        config = CapacityConfig(
            platforms=("cpu", "rpaccel"),
            max_nodes=1,
            users=50_000,
            steps=8,
            step_seconds=60.0,
            num_queries=150,
            budget_gb=0.5,
        )
        result, _ = run_capacity(config)
        assert len(shard_calls) == 1
        assert {row["mix"] for row in result.rows} == {"1xcpu", "1xrpaccel"}
        assert not any(row["memory_ok"] for row in result.rows)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            CapacityConfig(strategy="diagonal")
        with pytest.raises(ValueError, match="platform"):
            CapacityConfig(platforms=())
        with pytest.raises(ValueError, match="max_nodes"):
            CapacityConfig(max_nodes=0)


class TestCapacityCLI:
    ARGS = [
        "capacity",
        "--platforms",
        "cpu",
        "--max-nodes",
        "2",
        "--users",
        "200000",
        "--steps",
        "12",
        "--step-seconds",
        "60",
        "--num-queries",
        "150",
    ]

    def test_writes_artifacts_and_report_reads_them(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(self.ARGS + ["--output-dir", str(out_dir), "--quiet"]) == 0
        for name in (
            "capacity.json",
            "capacity.csv",
            "capacity_frontier.json",
            "capacity_frontier.csv",
            "manifest.json",
        ):
            assert (out_dir / name).exists()
        manifest = artifacts.load_manifest(out_dir)
        assert manifest["command"] == "capacity"
        assert [e["id"] for e in manifest["experiments"]] == ["capacity", "capacity_frontier"]
        assert manifest["config"]["platforms"] == ["cpu"]
        payload = artifacts.load_result_json(out_dir / "capacity.json")
        assert {row["mix"] for row in payload["rows"]} == {"1xcpu", "2xcpu"}
        frontier = artifacts.load_result_json(out_dir / "capacity_frontier.json")
        assert frontier["rows"]
        capsys.readouterr()
        assert cli.main(["report", "--output-dir", str(out_dir)]) == 0
        assert "capacity" in capsys.readouterr().out

    def test_deterministic_under_fixed_seed(self, tmp_path):
        payloads = []
        for run in range(2):
            out_dir = tmp_path / f"run{run}"
            args = self.ARGS + ["--seed", "3", "--output-dir", str(out_dir), "--quiet"]
            assert cli.main(args) == 0
            payload = artifacts.load_result_json(out_dir / "capacity.json")
            payload.pop("wall_clock_seconds")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_rejects_unknown_platform(self, capsys):
        assert cli.main(["capacity", "--platforms", "tpu", "--quiet"]) == 2
        assert "tpu" in capsys.readouterr().err

    def test_rejects_unknown_strategy(self, capsys):
        assert cli.main(["capacity", "--strategy", "diagonal", "--quiet"]) == 2
        assert "diagonal" in capsys.readouterr().err

    def test_registry_runs_capacity(self, tmp_path):
        # The `capacity` registry id is runnable through `recpipe run` too;
        # the default config is full-scale but still fast (analytic engine).
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--only", "capacity", "--output-dir", str(out_dir), "--quiet"])
        assert code == 0
        payload = artifacts.load_result_json(out_dir / "capacity.json")
        multis = [r for r in payload["rows"] if r["num_nodes"] > 1 and r["serves_peak"]]
        assert multis, "the default sweep must find a serving multi-node mix"

"""Tests for the ``recpipe`` CLI and its structured artifacts."""

import json

import pytest

from repro import cli
from repro.experiments import artifacts
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import default_registry
from repro.scenarios.runner import default_pool, workload


def _strip_wall_clock(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "wall_clock_seconds"}


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in default_registry().ids():
            assert exp_id in out
        assert "Figure 1(c)" in out

    def test_list_filtered_by_tag(self, capsys):
        assert cli.main(["list", "--tag", "area-power"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "fig01" not in out


class TestRunErrors:
    def test_unknown_id_is_an_error(self, capsys):
        assert cli.main(["run", "--only", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err

    def test_unknown_tag_is_an_error(self, capsys):
        assert cli.main(["run", "--tag", "not-a-tag"]) == 2
        err = capsys.readouterr().err
        assert "not-a-tag" in err

    def test_report_on_missing_dir_is_an_error(self, tmp_path, capsys):
        assert cli.main(["report", "--output-dir", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_only_selection_and_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--only", "fig01,fig11", "--output-dir", str(out_dir), "--quiet"])
        assert code == 0
        for name in ("fig01.json", "fig01.csv", "fig11.json", "fig11.csv"):
            assert (out_dir / name).exists()
        manifest = artifacts.load_manifest(out_dir)
        assert [e["id"] for e in manifest["experiments"]] == ["fig01", "fig11"]
        assert manifest["command"] == "run"
        assert manifest["config"]["only"] == ["fig01", "fig11"]

    def test_parallel_jobs_match_serial_results(self):
        registry = default_registry()
        serial = cli.run_experiments(registry, only=["fig01", "fig11"], jobs=1)
        parallel = cli.run_experiments(registry, only=["fig01", "fig11"], jobs=2)
        assert [exp_id for exp_id, _, _ in parallel] == ["fig01", "fig11"]
        for (_, left, _), (_, right, _) in zip(serial, parallel):
            assert left.rows == right.rows
            assert left.notes == right.notes

    def test_json_artifact_round_trips(self, tmp_path):
        out_dir = tmp_path / "out"
        assert (cli.main(["run", "--only", "fig01", "--output-dir", str(out_dir), "--quiet"]) == 0)
        payload = artifacts.load_result_json(out_dir / "fig01.json")
        rebuilt = artifacts.payload_to_result(payload)
        original = default_registry().get("fig01").execute()
        assert rebuilt.name == original.name
        assert rebuilt.notes == original.notes
        assert len(rebuilt.rows) == len(original.rows)
        for got, expected in zip(rebuilt.rows, original.rows):
            assert set(got) == set(expected)
            for key in expected:
                if isinstance(expected[key], float):
                    assert got[key] == pytest.approx(expected[key])
                else:
                    assert got[key] == expected[key]

    def test_csv_artifact_round_trips(self, tmp_path):
        result = ExperimentResult(name="x")
        result.add(a=1, b=0.5, c="text")
        result.add(a=2, b=float("inf"), c="more")
        path = tmp_path / "x.csv"
        artifacts.write_result_csv(path, result)
        rows = artifacts.read_csv_rows(path)
        assert rows == [
            {"a": "1", "b": "0.5", "c": "text"},
            {"a": "2", "b": "inf", "c": "more"},
        ]

    def test_manifest_deterministic_under_fixed_seed(self, tmp_path, capsys):
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for out_dir in dirs:
            code = cli.main(
                [
                    "run",
                    "--only",
                    "fig01,fig11",
                    "--seed",
                    "7",
                    "--output-dir",
                    str(out_dir),
                    "--quiet",
                ]
            )
            assert code == 0
        manifests = [artifacts.load_manifest(d) for d in dirs]
        assert manifests[0]["seed"] == 7
        assert artifacts.strip_timing(manifests[0]) == artifacts.strip_timing(manifests[1])
        for name in ("fig01.json", "fig11.json"):
            payloads = [artifacts.load_result_json(d / name) for d in dirs]
            assert _strip_wall_clock(payloads[0]) == _strip_wall_clock(payloads[1])
        assert (dirs[0] / "fig01.csv").read_text() == (dirs[1] / "fig01.csv").read_text()

    def test_report_renders_previous_run(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cli.main(["run", "--only", "fig11", "--output-dir", str(out_dir), "--quiet"])
        capsys.readouterr()
        assert cli.main(["report", "--output-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "[fig11]" in out
        assert "TOTAL rpaccel" in out


class TestSweep:
    SWEEP_ARGS = [
        "sweep",
        "--platform",
        "rpaccel",
        "--qps",
        "100",
        "--sla-ms",
        "25",
        "--quality-target",
        "90",
        "--first-stage-items",
        "512",
        "--later-stage-items",
        "128",
        "--max-stages",
        "2",
        "--num-queries",
        "300",
        "--pool",
        "512",
    ]

    def test_sweep_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = cli.main(self.SWEEP_ARGS + ["--output-dir", str(out_dir), "--quiet"])
        assert code == 0
        manifest = artifacts.load_manifest(out_dir)
        assert manifest["command"] == "sweep"
        assert manifest["config"]["platforms"] == ["rpaccel"]
        assert manifest["config"]["baseline_platform"] == "rpaccel"
        payload = artifacts.load_result_json(out_dir / "sweep.json")
        assert payload["rows"]
        row = payload["rows"][0]
        for key in (
            "pipeline",
            "qps",
            "quality_ndcg",
            "p99_ms",
            "on_frontier",
            "on_combined_frontier",
            "speedup_vs_baseline",
        ):
            assert key in row
        csv_rows = artifacts.read_csv_rows(out_dir / "sweep.csv")
        assert len(csv_rows) == len(payload["rows"])
        # Per-platform breakdown + combined frontier artifacts exist too.
        assert (out_dir / "sweep_rpaccel.json").exists()
        assert (out_dir / "sweep_frontier.json").exists()

    def test_sweep_multiplatform_combined_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "multi"
        code = cli.main(
            [
                "sweep",
                "--platform",
                "cpu,rpaccel",
                "--qps",
                "100,250",
                "--first-stage-items",
                "512",
                "--later-stage-items",
                "128",
                "--max-stages",
                "2",
                "--num-queries",
                "300",
                "--pool",
                "512",
                "--jobs",
                "2",
                "--output-dir",
                str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        manifest = artifacts.load_manifest(out_dir)
        assert manifest["config"]["platforms"] == ["cpu", "rpaccel"]
        assert manifest["config"]["baseline_platform"] == "cpu"
        assert manifest["config"]["jobs"] == 2
        ids = [entry["id"] for entry in manifest["experiments"]]
        assert ids == ["sweep", "sweep_cpu", "sweep_rpaccel", "sweep_frontier"]
        combined = artifacts.load_result_json(out_dir / "sweep.json")
        platforms = {row["platform"] for row in combined["rows"]}
        assert platforms == {"cpu", "rpaccel"}
        frontier = artifacts.load_result_json(out_dir / "sweep_frontier.json")
        assert frontier["rows"]
        for key in ("qps", "platform", "pipeline", "speedup_vs_baseline"):
            assert key in frontier["rows"][0]
        breakdown = artifacts.load_result_json(out_dir / "sweep_cpu.json")
        assert {row["platform"] for row in breakdown["rows"]} == {"cpu"}

    def test_sweep_platform_all_expands(self):
        from repro.core.sweep import PLATFORMS
        from repro.scenarios.knobs import KNOBS, coerce

        assert coerce(KNOBS["platforms"], "all", cli=True) == PLATFORMS
        assert coerce(KNOBS["platforms"], "cpu, gpu", cli=True) == ("cpu", "gpu")

    def test_sweep_rejects_unknown_platform(self, capsys):
        assert cli.main(["sweep", "--platform", "cpu,fpga"]) == 2
        assert "unknown platforms" in capsys.readouterr().err

    def test_sweep_rejects_bad_qps(self, capsys):
        assert cli.main(["sweep", "--qps", "abc"]) == 2
        assert "--qps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--qps", "100,nan"),
            ("--qps", "inf"),
            ("--sla-ms", "nan"),
            ("--sla-ms", "inf"),
            ("--quality-target", "nan"),
        ],
    )
    def test_sweep_rejects_non_finite_values(self, flags, capsys):
        # NaN fails every comparison, so a bare `<= 0` check let it through
        # into the manifest and every row of its column as `null`.
        assert cli.main(["sweep", *flags]) == 2
        assert "finite" in capsys.readouterr().err

    def test_sweep_rejects_fractional_item_grid(self, capsys):
        assert cli.main(["sweep", "--first-stage-items", "2048.9,4096"]) == 2
        assert "--first-stage-items" in capsys.readouterr().err

    def test_sweep_serve_k_is_a_flag(self, tmp_path, capsys):
        code = cli.main(self.SWEEP_ARGS + ["--serve-k", "32", "--output-dir", str(tmp_path)])
        assert code == 0
        assert artifacts.load_manifest(tmp_path)["config"]["serve_k"] == 32

    def test_sweep_uses_dataset_embedding_tables(self):
        _, _, criteo_tables = workload("criteo", 256)
        _, _, ml_tables = workload("movielens-1m", 256)
        assert criteo_tables == 26
        assert ml_tables == 2

    def test_sweep_default_pool_fits_movielens_catalogue(self):
        # MovieLens-1M's catalogue is smaller than Criteo's 4096 default.
        args = cli.build_parser().parse_args(["sweep", "--dataset", "movielens-1m"])
        pool = default_pool(args.dataset, args.pool)
        assert pool == 1024
        evaluator, _, _ = workload("movielens-1m", pool)
        assert evaluator.queries
        assert default_pool("criteo", cli.build_parser().parse_args(["sweep"]).pool) == 4096

    def test_saturated_rows_serialize_as_strict_json(self, tmp_path):
        result = ExperimentResult(name="sat")
        result.add(pipeline="x", p99_ms=float("inf"), qps=1e9)
        path = tmp_path / "sat.json"
        artifacts.write_result_json(path, artifacts.result_payload({"id": "sat"}, result))
        text = path.read_text()
        assert "Infinity" not in text
        assert json.loads(text)["rows"][0]["p99_ms"] is None

    def test_sweep_rejects_empty_design_space(self, capsys):
        code = cli.main(["sweep", "--first-stage-items", "8", "--later-stage-items", "8"])
        assert code == 2
        assert "no pipeline" in capsys.readouterr().err


class TestMainModule:
    def test_python_m_repro_entry_point(self):
        import repro.__main__  # noqa: F401  (imports without executing main)

    def test_console_script_target(self):
        # pyproject.toml points the `recpipe` script at repro.cli:main.
        assert callable(cli.main)


class TestArtifactHelpers:
    def test_numpy_values_serialize(self, tmp_path):
        import numpy as np

        result = ExperimentResult(name="np")
        result.add(i=np.int64(3), f=np.float64(0.25), a=np.arange(2))
        payload = artifacts.result_payload({"id": "np"}, result)
        path = tmp_path / "np.json"
        artifacts.write_result_json(path, payload)
        loaded = json.loads(path.read_text())
        assert loaded["rows"][0] == {"i": 3, "f": 0.25, "a": [0, 1]}

    def test_strip_timing_drops_only_wall_clock(self):
        manifest = {
            "command": "run",
            "seed": 1,
            "config": {},
            "experiments": [{"id": "fig01", "wall_clock_seconds": 1.5, "json": "x"}],
        }
        stripped = artifacts.strip_timing(manifest)
        assert stripped["experiments"] == [{"id": "fig01", "json": "x"}]
        assert manifest["experiments"][0]["wall_clock_seconds"] == 1.5


class TestMergeJsonSection:
    """The shared BENCH_*.json writer: sections merge, never clobber."""

    def test_sections_accumulate_without_clobbering(self, tmp_path):
        path = tmp_path / "BENCH.json"
        artifacts.merge_json_section(path, "a", {"x": 1})
        artifacts.merge_json_section(path, "b", {"y": 2})
        artifacts.merge_json_section(path, "a", {"x": 3})
        assert json.loads(path.read_text()) == {"a": {"x": 3}, "b": {"y": 2}}
        assert path.read_text().endswith("\n")

    def test_legacy_flat_payload_migrates_in_place(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"benchmark": "old_section", "value": 3}))
        artifacts.merge_json_section(path, "new_section", {"x": 1})
        assert json.loads(path.read_text()) == {
            "old_section": {"value": 3},
            "new_section": {"x": 1},
        }

    def test_unparsable_file_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("{not json")
        artifacts.merge_json_section(path, "a", {"x": 1})
        assert json.loads(path.read_text()) == {"a": {"x": 1}}

    def test_non_finite_floats_sanitized(self, tmp_path):
        path = tmp_path / "BENCH.json"
        artifacts.merge_json_section(path, "a", {"bad": float("inf"), "ok": 1.5})
        assert json.loads(path.read_text()) == {"a": {"bad": None, "ok": 1.5}}

    def test_numpy_scalars_in_artifact_rows(self, tmp_path):
        import numpy as np

        # np.bool_ used to be written as the string "True", and a non-finite
        # np.float32 (no float subclass) made json.dump raise.
        result = ExperimentResult(name="np")
        result.add(
            flag=np.bool_(True),
            bad=np.float32("inf"),
            nan=np.float32("nan"),
            ok=np.float32(0.5),
            arr=np.array([1.0, np.inf]),
        )
        artifacts.write_experiment_artifacts(tmp_path, {"id": "np"}, result)
        row = json.loads((tmp_path / "np.json").read_text())["rows"][0]
        assert row == {"flag": True, "bad": None, "nan": None, "ok": 0.5, "arr": [1.0, None]}


class TestListMarkdown:
    def test_markdown_table_lists_every_experiment(self, capsys):
        assert cli.main(["list", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0] == "| id | title | paper ref | tags | module |"
        assert lines[1] == "| --- | --- | --- | --- | --- |"
        assert len(lines) == 2 + len(default_registry())
        for spec in default_registry():
            assert f"| `{spec.id}` |" in out
            assert spec.module in out

    def test_markdown_matches_format_helper(self, capsys):
        assert cli.main(["list", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        specs = default_registry().select()
        assert out.strip() == cli.format_markdown_listing(specs)


class TestRoute:
    ROUTE_ARGS = [
        "route",
        "--trace",
        "spike",
        "--steps",
        "40",
        "--num-queries",
        "200",
        "--qps-grid",
        "100,1000,2500,4000,5500,6000",
        "--pool",
        "256",
    ]

    def test_route_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "route"
        code = cli.main(self.ROUTE_ARGS + ["--output-dir", str(out_dir), "--quiet"])
        assert code == 0
        manifest = artifacts.load_manifest(out_dir)
        assert manifest["command"] == "route"
        assert manifest["config"]["window"] == 3
        assert [e["id"] for e in manifest["experiments"]] == ["route", "route_steps"]
        payload = artifacts.load_result_json(out_dir / "route.json")
        assert {row["policy"] for row in payload["rows"]} == {"static", "oracle", "online"}
        for key in ("trace", "quality_ndcg", "p99_ms", "sla_violation_rate", "num_switches"):
            assert key in payload["rows"][0]
        steps = artifacts.load_result_json(out_dir / "route_steps.json")
        assert len(steps["rows"]) == 40
        assert {row["trace"] for row in steps["rows"]} == {"spike"}
        for key in ("step", "qps", "estimated_qps", "path", "switch"):
            assert key in steps["rows"][0]

    def test_route_deterministic_under_fixed_seed(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            assert (
                cli.main(
                    self.ROUTE_ARGS + ["--seed", "3", "--output-dir", str(out_dir), "--quiet"]
                )
                == 0
            )
        payloads = [artifacts.load_result_json(d / "route.json") for d in dirs]
        assert _strip_wall_clock(payloads[0]) == _strip_wall_clock(payloads[1])
        step_logs = [(d / "route_steps.csv").read_text() for d in dirs]
        assert step_logs[0] == step_logs[1]

    def test_a_window_longer_than_any_trace_writes_the_rows_of_window_1000(self, tmp_path):
        # Both windows span the 40-step trace; the 31-digit one is longer
        # than any deque can be.
        rows = []
        for window in ("1000", "1" + "0" * 30):
            out_dir = tmp_path / window
            args = self.ROUTE_ARGS + ["--window", window, "--output-dir", str(out_dir), "--quiet"]
            assert cli.main(args) == 0
            for name in ("route.json", "route_steps.json"):
                rows.append(artifacts.load_result_json(out_dir / name)["rows"])
        assert rows[:2] == rows[2:]

    def test_unknown_trace_is_an_error(self, capsys):
        assert cli.main(["route", "--trace", "tsunami"]) == 2
        assert "tsunami" in capsys.readouterr().err

    def test_policy_defaults_come_from_the_router_dataclass(self):
        # The dataclasses are the single source of truth: the CLI defaults
        # and the scenario defaults every registry entry starts from must
        # agree with them.
        from repro.scenarios import BASE_DEFAULTS
        from repro.serving.estimators import EWMA, WindowedMean
        from repro.serving.frontend import ARRIVAL_PROCESSES, StreamingFrontend
        from repro.serving.router import MultiPathRouter

        args = cli.build_parser().parse_args(["route"])
        assert args.window == WindowedMean.window
        assert args.hysteresis == MultiPathRouter.hysteresis_steps
        assert args.switch_cost_ms == MultiPathRouter.switch_cost_seconds * 1e3
        assert BASE_DEFAULTS["window"] == WindowedMean.window
        assert BASE_DEFAULTS["hysteresis"] == MultiPathRouter.hysteresis_steps
        assert BASE_DEFAULTS["switch_penalty_ms"] == MultiPathRouter.switch_penalty_seconds * 1e3
        assert BASE_DEFAULTS["switch_cost_ms"] == MultiPathRouter.switch_cost_seconds * 1e3
        assert BASE_DEFAULTS["ewma_alpha"] == args.ewma_alpha == EWMA.alpha
        for knob in ("window_seconds", "max_batch", "batching", "defer_windows"):
            assert BASE_DEFAULTS[knob] == getattr(StreamingFrontend, knob)
        assert BASE_DEFAULTS["arrival_process"] == ARRIVAL_PROCESSES[0]

    def test_non_positive_planning_qps_is_a_clear_error(self, capsys):
        for value in ("0", "-250"):
            assert cli.main(self.ROUTE_ARGS + ["--planning-qps", value]) == 2
            err = capsys.readouterr().err
            assert "--planning-qps must be positive" in err

    def test_estimator_flag_round_trips_into_artifacts(self, tmp_path):
        out_dir = tmp_path / "route"
        code = cli.main(
            self.ROUTE_ARGS
            + [
                "--estimator",
                "ewma",
                "--ewma-alpha",
                "0.6",
                "--switch-cost-ms",
                "5",
                "--output-dir",
                str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        manifest = artifacts.load_manifest(out_dir)
        assert manifest["config"]["estimator"] == "ewma"
        assert manifest["config"]["ewma_alpha"] == 0.6
        assert manifest["config"]["switch_cost_ms"] == 5.0
        rows = artifacts.load_result_json(out_dir / "route.json")["rows"]
        by_policy = {row["policy"]: row for row in rows}
        assert by_policy["online"]["estimator"] == "ewma"
        assert by_policy["static"]["estimator"] == "-"
        for row in rows:
            assert "effective_quality" in row

    def test_bad_ewma_alpha_is_an_error(self, capsys):
        assert cli.main(self.ROUTE_ARGS + ["--estimator", "ewma", "--ewma-alpha", "1.5"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_service_model_is_an_error(self, capsys):
        # Validated by hand (not argparse choices) so the message can name
        # the registry; must fail in milliseconds, before the table compile.
        assert cli.main(self.ROUTE_ARGS + ["--service-model", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown --service-model 'bogus'" in err
        assert "cached" in err and "deterministic" in err

    def test_non_positive_window_seconds_is_an_error(self, capsys):
        for value in ("0", "-2.5"):
            assert cli.main(self.ROUTE_ARGS + ["--window-seconds", value]) == 2
            assert "--window-seconds must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--window-seconds", "--ewma-alpha"])
    def test_non_finite_route_knobs_are_errors(self, flag, capsys):
        # Rejected whatever the estimator, before the table compile.
        for value in ("nan", "inf"):
            assert cli.main(self.ROUTE_ARGS + [flag, value]) == 2
            assert f"{flag} must" in capsys.readouterr().err

    def test_no_batching_conflicts_with_explicit_max_batch(self, capsys):
        args = self.ROUTE_ARGS + ["--no-batching", "--max-batch", "8"]
        assert cli.main(args) == 2
        assert "conflicts with --max-batch" in capsys.readouterr().err

    def test_non_positive_max_batch_is_an_error(self, capsys):
        assert cli.main(self.ROUTE_ARGS + ["--max-batch", "0"]) == 2
        assert "--max-batch must be >= 1" in capsys.readouterr().err

    def test_service_model_round_trips_into_the_manifest(self, tmp_path):
        out_dir = tmp_path / "route"
        args = self.ROUTE_ARGS + [
            "--service-model",
            "cached",
            "--output-dir",
            str(out_dir),
            "--quiet",
        ]
        assert cli.main(args) == 0
        config = artifacts.load_manifest(out_dir)["config"]
        assert config["service_model"] == "cached"
        assert config["max_batch"] == 64  # the resolved value, not the sentinel

    def test_online_beats_static_on_spike_violations(self, tmp_path):
        out_dir = tmp_path / "route"
        assert cli.main(self.ROUTE_ARGS + ["--output-dir", str(out_dir), "--quiet"]) == 0
        rows = artifacts.load_result_json(out_dir / "route.json")["rows"]
        by_policy = {row["policy"]: row for row in rows}
        static, oracle, online = (by_policy[p] for p in ("static", "oracle", "online"))
        assert online["sla_violation_rate"] < static["sla_violation_rate"]
        assert oracle["sla_violation_rate"] <= online["sla_violation_rate"]


class TestRoutePerQuery:
    """`recpipe route --mode per-query`: the streaming frontend surface."""

    ROUTE_ARGS = TestRoute.ROUTE_ARGS + ["--mode", "per-query"]

    def test_per_query_route_writes_artifacts(self, tmp_path):
        out_dir = tmp_path / "route"
        assert cli.main(self.ROUTE_ARGS + ["--output-dir", str(out_dir), "--quiet"]) == 0
        manifest = artifacts.load_manifest(out_dir)
        assert manifest["command"] == "route"
        assert manifest["config"]["mode"] == "per-query"
        assert manifest["config"]["arrival_process"] == "poisson"
        assert manifest["config"]["batching"] is True
        payload = artifacts.load_result_json(out_dir / "route.json")
        assert {row["policy"] for row in payload["rows"]} == {"static", "oracle", "frontend"}
        for key in ("shed_rate", "defer_rate", "mean_batch_size", "max_queue_depth"):
            assert key in payload["rows"][0]
        steps = artifacts.load_result_json(out_dir / "route_steps.json")
        assert len(steps["rows"]) == 40  # one row per decision window
        for key in (
            "window",
            "estimated_qps",
            "path",
            "switch",
            "arrivals",
            "admitted",
            "deferred",
            "shed",
            "shed_reason",
            "batch_size",
        ):
            assert key in steps["rows"][0]
        for row in steps["rows"]:
            assert row["admitted"] + row["deferred"] + row["shed"] >= row["arrivals"]
            # The shed-reason column is present on every row, not only when
            # something was shed, so the log schema is load-independent.
            assert row["shed_reason"] in {"none", "no-capacity", "queue-full"}
            assert (row["shed"] > 0) == (row["shed_reason"] != "none")

    def test_per_query_frontend_respects_the_bounds(self, tmp_path):
        out_dir = tmp_path / "route"
        assert cli.main(self.ROUTE_ARGS + ["--output-dir", str(out_dir), "--quiet"]) == 0
        rows = artifacts.load_result_json(out_dir / "route.json")["rows"]
        by_policy = {row["policy"]: row for row in rows}
        static, oracle, frontend = (by_policy[p] for p in ("static", "oracle", "frontend"))
        assert oracle["sla_violation_rate"] <= frontend["sla_violation_rate"]
        assert frontend["sla_violation_rate"] <= static["sla_violation_rate"]
        assert static["shed_rate"] == 0.0  # the bounds never shed

    def test_per_query_route_deterministic_under_fixed_seed(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            args = self.ROUTE_ARGS + ["--seed", "3", "--output-dir", str(out_dir), "--quiet"]
            assert cli.main(args) == 0
        payloads = [artifacts.load_result_json(d / "route.json") for d in dirs]
        assert _strip_wall_clock(payloads[0]) == _strip_wall_clock(payloads[1])
        step_logs = [(d / "route_steps.csv").read_text() for d in dirs]
        assert step_logs[0] == step_logs[1]

    def test_no_batching_pins_batch_size_to_one(self, tmp_path):
        out_dir = tmp_path / "route"
        args = self.ROUTE_ARGS + ["--no-batching", "--output-dir", str(out_dir), "--quiet"]
        assert cli.main(args) == 0
        assert artifacts.load_manifest(out_dir)["config"]["batching"] is False
        steps = artifacts.load_result_json(out_dir / "route_steps.json")
        assert {row["batch_size"] for row in steps["rows"]} == {1}

    def test_arrival_process_round_trips_into_the_manifest(self, tmp_path):
        out_dir = tmp_path / "route"
        args = self.ROUTE_ARGS + [
            "--arrival-process",
            "paced",
            "--output-dir",
            str(out_dir),
            "--quiet",
        ]
        assert cli.main(args) == 0
        assert artifacts.load_manifest(out_dir)["config"]["arrival_process"] == "paced"

    def test_frontend_knob_defaults_come_from_the_dataclass(self):
        from repro.serving.frontend import ARRIVAL_PROCESSES, StreamingFrontend

        args = cli.build_parser().parse_args(["route"])
        assert args.mode == "per-step"
        # --max-batch defaults to a None sentinel so cmd_cell can tell
        # "explicitly set" (conflicts with --no-batching) from "unset"
        # (resolves to the dataclass default).
        assert args.max_batch is None
        assert StreamingFrontend.max_batch == 64
        assert args.defer_windows == StreamingFrontend.defer_windows
        assert args.arrival_process == ARRIVAL_PROCESSES[0]
        assert args.window_seconds is None

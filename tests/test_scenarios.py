"""Tests for the declarative scenario suite (``repro.scenarios``)."""

import json
import pickle

import numpy as np
import pytest

from repro.cluster.fleet import compose_fleet, fleet_nodes, fleet_tables
from repro.core.sweep import SweepConfig, run_sweep
from repro.experiments import artifacts
from repro.experiments.capacity_planning import CapacityConfig, run_capacity
from repro.experiments.common import criteo_quality_evaluator
from repro.experiments.registry import (
    ExperimentRegistry,
    ExperimentSpec,
    default_registry,
    packaged_scenario,
    register_scenario,
    scenario_specs,
)
from repro.models.zoo import criteo_model_specs
from repro.scenarios import (
    AXES,
    BASE_DEFAULTS,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    run_cell,
    scenario_from_mapping,
)
from repro.scenarios.config import MAX_DECISION_WINDOWS
from repro.scenarios.knobs import parse_mix
from repro.scenarios.runner import _compiled_table, build_trace, compiled_table
from repro.serving.trace import TRACES, diurnal_trace, ramp_trace
from tests import claims

CHEAP_BASE = {
    "platforms": "cpu",
    "num_queries": 200,
    "pool": 256,
    "steps": 12,
    "qps_grid": (100, 1000, 2500, 4000),
}


def cheap_mapping(axes=None, name="t"):
    return {
        "scenario": {"name": name},
        "base": dict(CHEAP_BASE),
        "axes": axes or {"estimator": ["windowed", "holt"]},
    }


class TestScenarioConfig:
    def test_expand_is_cartesian_in_axis_order(self):
        config = scenario_from_mapping(
            cheap_mapping(axes={"estimator": ["windowed", "holt"], "trace": ["spike", "ramp"]})
        )
        cells = config.expand()
        # AXES order puts trace before estimator regardless of input order.
        assert [cell.id for cell in cells] == [
            "t-spike-windowed",
            "t-spike-holt",
            "t-ramp-windowed",
            "t-ramp-holt",
        ]
        assert all(tuple(cell.axes) == ("trace", "estimator") for cell in cells)

    def test_params_merge_defaults_base_then_axes(self):
        config = scenario_from_mapping(cheap_mapping())
        cell = config.expand()[0]
        assert cell.params["pool"] == 256  # base overrides the default
        assert cell.params["sla_ms"] == BASE_DEFAULTS["sla_ms"]  # default kept
        assert cell.params["estimator"] == "windowed"  # axis assignment wins

    def test_cell_ids_slug_awkward_values(self):
        config = scenario_from_mapping(
            cheap_mapping(axes={"platforms": ["cpu+gpu-cpu"], "estimator": ["holt"]})
        )
        assert config.expand()[0].id == "t-holt-cpu-gpu-cpu"

    def test_cell_label_names_the_assignment(self):
        config = scenario_from_mapping(cheap_mapping())
        assert config.expand()[0].label == "estimator=windowed"

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d["scenario"].update(name="Bad Name"), "name"),
            (lambda d: d["base"].update(bogus_knob=1), "bogus_knob"),
            (lambda d: d["base"].update(dataset="netflix"), "dataset"),
            (lambda d: d.update(axes={"color": ["red"]}), "color"),
            (lambda d: d.update(axes={"estimator": []}), "no values"),
            (lambda d: d.update(axes={"estimator": ["holt", "holt"]}), "repeats a value"),
            (lambda d: d.update(axes={"estimator": ["psychic"]}), "psychic"),
            (lambda d: d.update(extra_section={}), "extra_section"),
            (lambda d: d["scenario"].pop("name"), "name"),
        ],
    )
    def test_validation_errors(self, mutate, match):
        data = cheap_mapping()
        mutate(data)
        with pytest.raises(ScenarioError, match=match):
            scenario_from_mapping(data)

    def test_too_many_decision_windows_rejected(self):
        data = cheap_mapping()
        data["base"].update(mode="per-query", window_seconds=1e-9)
        with pytest.raises(ScenarioError, match="window_seconds"):
            scenario_from_mapping(data)

    def test_window_limit_reads_each_traces_own_shape(self):
        # The base trace (12 x 60 s) fits at 1e-3 s windows; a listed
        # trace stretched to 10x its length does not.
        data = cheap_mapping(axes={"estimator": ["windowed"]})
        data["base"].update(mode="per-query", window_seconds=1e-3)
        scenario_from_mapping(data)
        data["base"]["trace"] = ["spike", {"name": "ramp", "step_seconds": 600.0}]
        with pytest.raises(ScenarioError, match=r"window_seconds 0\.001 cuts a 7200 s trace"):
            scenario_from_mapping(data)

    def test_window_limit_is_inclusive_and_per_query_only(self):
        data = cheap_mapping()
        duration = CHEAP_BASE["steps"] * BASE_DEFAULTS["step_seconds"]
        data["base"].update(mode="per-query", window_seconds=duration / MAX_DECISION_WINDOWS)
        scenario_from_mapping(data)
        # Per-step cells make one decision per step and never read the width.
        data["base"].update(mode="per-step", window_seconds=1e-9)
        scenario_from_mapping(data)

    def test_scenario_error_is_a_value_error(self):
        # main() maps ValueError to exit 2; scenario errors must ride along.
        assert issubclass(ScenarioError, ValueError)

    def test_scalar_axis_value_normalized_to_one_cell(self):
        config = scenario_from_mapping(cheap_mapping(axes={"estimator": "holt"}))
        assert [cell.id for cell in config.expand()] == ["t-holt"]

    def test_no_axes_expands_to_one_cell_named_after_the_scenario(self):
        data = cheap_mapping()
        data.pop("axes")
        (cell,) = scenario_from_mapping(data).expand()
        assert cell.id == "t"
        assert cell.axes == {} and cell.label == ""
        assert cell.params["pool"] == 256
        [spec] = scenario_specs(scenario_from_mapping(data))
        assert spec.id == "t" and spec.title == "Scenario t"

    def test_trace_list_with_per_item_overrides(self):
        data = cheap_mapping()
        data.pop("axes")
        data["base"]["trace"] = [
            {"name": "spike", "peak_qps": 3000.0},
            {"name": "ramp", "steps": 8},
        ]
        (cell,) = scenario_from_mapping(data).expand()
        spike, ramp = (build_trace(cell.params, item, seed=0) for item in cell.params["trace"])
        assert spike.num_steps == CHEAP_BASE["steps"] and ramp.num_steps == 8
        assert spike.qps.max() < 3000.0 * 1.2  # the override, not the 5500 default
        assert ramp.qps[-1] > 4000.0  # the shared peak still applies to ramp
        rows = run_cell(cell).rows
        assert [row["trace"] for row in rows] == ["spike"] * 3 + ["ramp"] * 3

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_every_registered_trace_builds_under_its_own_name(self, name):
        assert build_trace(BASE_DEFAULTS, name, seed=0).name == name

    def test_trace_without_a_load_mapping_is_rejected(self, monkeypatch):
        # A generator registered in TRACES passes the knob table, but
        # build_trace must not serve it as some other trace.
        monkeypatch.setitem(TRACES, "step", ramp_trace)
        with pytest.raises(ValueError, match="'step'"):
            build_trace(BASE_DEFAULTS, "step", seed=0)

    def test_estimator_list_runs_every_estimator_in_one_cell(self):
        data = cheap_mapping()
        data.pop("axes")
        data["base"]["estimator"] = ["windowed", "holt"]
        (cell,) = scenario_from_mapping(data).expand()
        result = run_cell(cell)
        assert [row["policy"] for row in result.rows] == ["static", "oracle", "online", "online"]
        assert [row["estimator"] for row in result.rows][2:] == ["windowed", "holt"]
        assert "scenario" not in result.rows[0]  # a one-cell scenario has no axes to record
        assert any("spike [holt]" in note for note in result.notes)

    @pytest.mark.parametrize(
        "base, match",
        [
            ({"service_schedule": {"start": 4, "shift_items": 10, "rewarm_steps": 0}}, "cached"),
            (
                {
                    "service_model": "cached",
                    "mode": "per-query",
                    "service_schedule": {"start": 4, "shift_items": 10, "rewarm_steps": 0},
                },
                "per-step",
            ),
            (
                {
                    "service_model": "cached",
                    "nodes": "2xcpu",
                    "service_schedule": {"start": 4, "shift_items": 10, "rewarm_steps": 0},
                },
                "nodes",
            ),
            ({"service_model": "cached", "service_schedule": {"start": 4}}, "keys"),
            ({"trace": [{"name": "spike", "spike_start": 3}]}, "spike_start"),
            ({"mode": "per-batch"}, "per-batch"),
        ],
    )
    def test_rejected_base_exits_2(self, tmp_path, capsys, base, match):
        from repro.cli import main

        data = cheap_mapping()
        data["base"].update(base)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--scenario", str(path), "--quiet"]) == 2
        assert match in capsys.readouterr().err


class TestMixParsing:
    def test_counted_and_joined_terms(self):
        assert parse_mix("2xcpu") == ("cpu", "cpu")
        assert parse_mix("cpu+gpu-cpu") == ("cpu", "gpu-cpu")
        assert parse_mix("2xcpu+rpaccel") == ("cpu", "cpu", "rpaccel")

    def test_unknown_platform_rejected(self):
        with pytest.raises(ScenarioError, match="tpu"):
            parse_mix("2xtpu")

    def test_nodes_axis_accepts_single_node_sentinel(self):
        config = scenario_from_mapping(cheap_mapping(axes={"nodes": ["1", "2xcpu"]}))
        assert [cell.id for cell in config.expand()] == ["t-1", "t-2xcpu"]


class TestLoadScenario:
    def test_json_file_round_trips(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cheap_mapping()), encoding="utf-8")
        config = load_scenario(path)
        assert config.name == "t"
        assert len(config.expand()) == 2

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ScenarioError, match="suffix"):
            load_scenario(path)

    def test_invalid_json_reports_the_source(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="s.json"):
            load_scenario(path)

    def test_toml_file_loads_on_modern_python(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "s.toml"
        path.write_text(
            "\n".join(
                [
                    "[scenario]",
                    'name = "t"',
                    "[base]",
                    'platforms = "cpu"',
                    "[axes]",
                    'estimator = ["windowed", "holt"]',
                ]
            ),
            encoding="utf-8",
        )
        config = load_scenario(path)
        assert [cell.id for cell in config.expand()] == ["t-windowed", "t-holt"]


class TestScenarioSpecs:
    def test_specs_carry_tags_title_and_metadata(self):
        config = scenario_from_mapping(cheap_mapping())
        config = ScenarioConfig(
            name=config.name,
            title="Cheap grid",
            tags=("smoke",),
            base=config.base,
            axes=config.axes,
        )
        specs = scenario_specs(config)
        assert [spec.id for spec in specs] == ["t-windowed", "t-holt"]
        for spec in specs:
            assert isinstance(spec, ExperimentSpec)
            assert spec.tags == ("scenario", "scenario:t", "smoke")
            assert spec.title.startswith("Cheap grid [")
            assert spec.metadata["scenario"] == "t"
            assert spec.module == "repro.scenarios.runner"

    def test_register_scenario_rejects_id_collisions(self):
        registry = ExperimentRegistry()
        config = scenario_from_mapping(cheap_mapping())
        register_scenario(registry, config)
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(registry, config)

    def test_run_cell_produces_policy_rows(self):
        config = scenario_from_mapping(cheap_mapping(axes={"estimator": ["windowed"]}))
        result = run_cell(config.expand()[0])
        assert {row["policy"] for row in result.rows} == {"static", "oracle", "online"}
        assert all(row["scenario"] == "t" for row in result.rows)
        assert all(row["estimator"] in ("windowed", "-") for row in result.rows)
        assert result.notes

    def test_run_cell_is_seed_deterministic(self):
        config = scenario_from_mapping(cheap_mapping(axes={"estimator": ["windowed"]}))
        cell = config.expand()[0]
        assert run_cell(cell, seed=3).rows == run_cell(cell, seed=3).rows

    def test_cluster_cell_runs_on_a_node_mix(self):
        config = scenario_from_mapping(cheap_mapping(axes={"nodes": ["2xcpu"]}))
        result = run_cell(config.expand()[0])
        assert len(result.rows) == 3


class TestBuiltinScenario:
    def test_builtin_expands_into_the_default_registry(self):
        config = packaged_scenario("builtin")
        assert config.name == "routergrid"
        registry = default_registry()
        for cell in config.expand():
            assert cell.id in registry

    def test_builtin_axes(self):
        config = packaged_scenario("builtin")
        assert set(config.axes) == {"trace", "estimator"}
        assert len(config.expand()) == 4


class TestCacheScenarios:
    """The packaged flashcrowd and coldcache entries, asserted from rows."""

    @pytest.mark.parametrize("exp_id", ["flashcrowd", "coldcache"])
    def test_online_beats_static_on_violations(self, exp_id):
        claims.check(exp_id, claims.online_beats_static_on_violations)

    def test_coldcache_payload_is_independent_of_run_order_and_jobs(self, tmp_path):
        from repro.cli import main

        def coldcache_payload(name, only, jobs="1", fresh=True):
            if fresh:
                _compiled_table.cache_clear()
            out = tmp_path / name
            args = ["run", "--only", only, "--jobs", jobs, "--output-dir", str(out), "--quiet"]
            assert main(args) == 0
            payload = artifacts.load_result_json(out / "coldcache.json")
            return {key: payload[key] for key in ("rows", "notes")}

        alone = coldcache_payload("alone", "coldcache")
        assert any(note.startswith("hit rate [shift=0, warm=0.00]") for note in alone["notes"])
        assert coldcache_payload("after-flashcrowd", "flashcrowd,coldcache") == alone
        assert coldcache_payload("jobs", "flashcrowd,coldcache", jobs="2") == alone
        assert coldcache_payload("warm-memo", "coldcache", fresh=False) == alone


#: `recpipe sweep` knobs of a small two-platform sweep, and the same as a
#: sweep scenario's base.
SWEEP_FLAGS = (
    "--platform cpu,rpaccel --qps 100,1000 --first-stage-items 512 "
    "--later-stage-items 128 --max-stages 2 --num-queries 300 --pool 512"
).split()
SWEEP_BASE = {
    "platforms": "cpu+rpaccel",
    "qps": [100.0, 1000.0],
    "first_stage_items": [512],
    "later_stage_items": [128],
    "max_stages": 2,
    "num_queries": 300,
    "pool": 512,
}
#: `recpipe capacity` knobs of a tiny plan, and the same as a capacity base.
CAPACITY_FLAGS = (
    "--platforms cpu --max-nodes 2 --users 200000 --steps 12 --step-seconds 60 "
    "--num-queries 150"
).split()
CAPACITY_BASE = {
    "platforms": ["cpu"],
    "max_nodes": 2,
    "users": 200_000,
    "steps": 12,
    "step_seconds": 60.0,
    "num_queries": 150,
}


def kind_cell(kind: str, base: dict):
    header = {"name": kind, "kind": kind}
    (cell,) = scenario_from_mapping({"scenario": header, "base": base}).expand()
    return cell


class TestScenarioKinds:
    @pytest.mark.parametrize(
        "header, data, match",
        [
            ({"kind": "fleet"}, {}, "kind 'fleet'"),
            ({"kind": "sweep"}, {"base": {"trace": "spike"}}, "['trace'] for kind 'sweep'"),
            ({}, {"base": {"max_nodes": 4}}, "['max_nodes'] for kind 'serving'"),
            ({"kind": "capacity"}, {"axes": {"estimator": ["holt"]}}, "axes"),
        ],
    )
    def test_rejected_kind_exits_2(self, tmp_path, capsys, header, data, match):
        from repro.cli import main

        path = tmp_path / "k.json"
        path.write_text(json.dumps({"scenario": {"name": "k", **header}, **data}))
        assert main(["run", "--scenario", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    def test_kinds_take_their_commands_defaults(self):
        assert kind_cell("sweep", {}).params["qps"] == SweepConfig.qps
        assert kind_cell("sweep", {}).params["pool"] is None  # resolved per dataset
        assert kind_cell("capacity", {}).params["max_nodes"] == CapacityConfig.max_nodes
        assert kind_cell("capacity", {}).kind == "capacity"

    def test_sweep_cell_is_one_direct_sweep(self):
        companions = {}
        result = run_cell(kind_cell("sweep", SWEEP_BASE), companions=companions)
        config = SweepConfig(
            platforms=("cpu", "rpaccel"),
            qps=(100.0, 1000.0),
            first_stage_items=(512,),
            later_stage_items=(128,),
            max_stages=2,
            num_queries=300,
        )
        outcome = run_sweep(criteo_quality_evaluator(512), criteo_model_specs(), config)
        rows = outcome.rows()
        assert result.rows == rows
        assert result.notes[len(config.qps) :] == outcome.summary_lines()
        assert list(companions) == ["cpu", "rpaccel", "frontier"]
        for platform in config.platforms:
            assert companions[platform].rows == outcome.platform_rows(platform, rows)
        assert companions["frontier"].rows == outcome.frontier_rows()

    def test_capacity_cell_is_one_planner_run(self):
        companions = {}
        result = run_cell(kind_cell("capacity", CAPACITY_BASE), companions=companions)
        config = CapacityConfig(
            platforms=("cpu",),
            max_nodes=2,
            users=200_000,
            steps=12,
            step_seconds=60.0,
            num_queries=150,
        )
        trace = diurnal_trace(
            num_steps=config.steps,
            step_seconds=config.step_seconds,
            base_qps=config.resolved_base_qps,
            peak_qps=config.resolved_peak_qps,
            noise=config.noise,
            seed=config.seed,
        )
        expected, frontier = run_capacity(config, trace)
        assert (result.rows, result.notes) == (expected.rows, expected.notes)
        assert list(companions) == ["frontier"]
        assert companions["frontier"].rows == frontier.rows

    def test_nodes_axis_composes_the_fleet_the_planner_composes(self):
        params = {**BASE_DEFAULTS, **CHEAP_BASE, "nodes": "2xcpu"}
        served = compiled_table(params, seed=0)
        # The planner's call: the same mix, grid and strategy over the node's
        # own single-node table.
        node_table = compiled_table({**params, "nodes": "1"}, seed=0)
        planned = compose_fleet(
            fleet_nodes(("cpu", "cpu"), int(params["budget_gb"] * 2**30)),
            {"cpu": node_table},
            tuple(2.0 * q for q in params["qps_grid"]),
            fleet_tables(params["num_tables"], params["embedding_scale"]),
            "tablewise",
            placements={},
        )
        np.testing.assert_array_equal(served.node_gather, planned.node_gather)
        np.testing.assert_array_equal(served.node_weights, planned.node_weights)
        loads = np.linspace(50.0, 8000.0, 40)
        for index in range(len(served.paths)):
            np.testing.assert_array_equal(
                served.p99_profile(index, loads), planned.p99_profile(index, loads)
            )

    @pytest.mark.parametrize(
        "command, flags, kind, base, artifact",
        [
            ("sweep", SWEEP_FLAGS, "sweep", SWEEP_BASE, "sweep.json"),
            ("capacity", CAPACITY_FLAGS, "capacity", CAPACITY_BASE, "capacity.json"),
        ],
    )
    def test_scenario_file_reaches_the_command_rows(
        self, tmp_path, command, flags, kind, base, artifact
    ):
        from repro.cli import main

        path = tmp_path / "k.json"
        path.write_text(json.dumps({"scenario": {"name": "k", "kind": kind}, "base": base}))
        assert main([command, *flags, "--output-dir", str(tmp_path / "cmd"), "--quiet"]) == 0
        run = ["run", "--scenario", str(path), "--only", "k", "--quiet"]
        assert main([*run, "--output-dir", str(tmp_path / "file")]) == 0
        from_command = artifacts.load_result_json(tmp_path / "cmd" / artifact)
        from_file = artifacts.load_result_json(tmp_path / "file" / "k.json")
        assert from_file["rows"] == from_command["rows"]
        assert from_file["notes"] == from_command["notes"]


class TestScenarioCli:
    def test_scenarios_pickle_round_trip(self):
        for config in (load_scenario("scenarios/smoke.json"), packaged_scenario("frontend")):
            assert pickle.loads(pickle.dumps(config)) == config

    def test_run_scenario_serial_and_jobs_compare_equal(self, tmp_path, capsys):
        from repro.cli import main

        for name, jobs in (("serial", "1"), ("jobs", "2")):
            args = ["run", "--scenario", "scenarios/smoke.json", "--tag", "smoke"]
            args += ["--jobs", jobs, "--output-dir", str(tmp_path / name), "--quiet"]
            assert main(args) == 0
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "serial"), str(tmp_path / "jobs")]) == 0
        assert capsys.readouterr().out.endswith("No differences.\n")

    def test_list_scenario_shows_cells(self, capsys):
        from repro.cli import main

        assert main(["list", "--scenario", "scenarios/smoke.json", "--tag", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke-spike-windowed" in out
        assert "smoke-spike-holt" in out

    def test_missing_scenario_file_exits_2(self, capsys):
        from repro.cli import main

        assert main(["list", "--scenario", "no/such/file.json"]) == 2
        assert "error" in capsys.readouterr().err

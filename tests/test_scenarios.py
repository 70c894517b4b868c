"""Tests for the declarative scenario suite (``repro.scenarios``)."""

import json

import pytest

from repro.experiments import artifacts
from repro.experiments.registry import ExperimentRegistry, ExperimentSpec, default_registry
from repro.scenarios import (
    AXES,
    BASE_DEFAULTS,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    packaged_scenario,
    register_scenario,
    run_cell,
    scenario_from_mapping,
    scenario_specs,
)
from repro.scenarios.config import parse_mix
from repro.scenarios.runner import _compiled_table, build_trace

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


def _policy_rows(exp_id: str) -> dict:
    rows = default_registry().get(exp_id).execute(seed=0).rows
    return {row["policy"]: row for row in rows}


class TestCacheScenarios:
    """The packaged flashcrowd and coldcache entries, asserted from rows."""

    @pytest.mark.parametrize("exp_id", ["flashcrowd", "coldcache"])
    def test_online_beats_static_on_violations(self, exp_id):
        rows = _policy_rows(exp_id)
        assert rows["online"]["sla_violation_rate"] < rows["static"]["sla_violation_rate"]

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


class TestScenarioCli:
    def test_run_scenario_with_jobs_rejected(self, capsys):
        from repro.cli import main

        status = main(
            ["run", "--scenario", "scenarios/smoke.json", "--jobs", "2", "--quiet"]
        )
        assert status == 2
        assert "--jobs" in capsys.readouterr().err

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

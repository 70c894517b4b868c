"""Tests for the declarative experiment registry."""

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import (
    ExperimentRegistry,
    ExperimentSpec,
    UnknownExperimentError,
    UnknownTagError,
    default_registry,
)

ALL_IDS = [
    "fig01",
    "tab01",
    "fig03",
    "fig05",
    "fig07",
    "fig08",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "sweepmp",
    # The packaged serving scenarios: one cell each, id = scenario name.
    "router",
    "frontend",
    "flashcrowd",
    "coldcache",
    "capacity",
    # The builtin "routergrid" scenario expands into one entry per cell.
    "routergrid-spike-windowed",
    "routergrid-spike-holt",
    "routergrid-diurnal-windowed",
    "routergrid-diurnal-holt",
]


def _dummy_run() -> ExperimentResult:
    result = ExperimentResult(name="dummy")
    result.add(value=1)
    return result


def _spec(exp_id, tags=(), depends_on=(), run=_dummy_run):
    return ExperimentSpec(
        id=exp_id,
        title=f"title {exp_id}",
        paper_ref=f"Figure {exp_id}",
        tags=tuple(tags),
        depends_on=tuple(depends_on),
        run=run,
        module=f"tests.{exp_id}",
    )


class TestDefaultRegistry:
    def test_covers_every_paper_artifact(self):
        registry = default_registry()
        assert registry.ids() == ALL_IDS
        assert len(registry) == 21

    def test_every_spec_has_metadata(self):
        for spec in default_registry():
            assert spec.title
            assert spec.paper_ref
            assert spec.tags
            assert callable(spec.run)
            assert spec.module.startswith(("repro.experiments.", "repro.scenarios."))

    def test_builtin_scenario_cells_are_tagged_and_annotated(self):
        registry = default_registry()
        cells = registry.select(tags=["scenario:routergrid"])
        assert len(cells) == 4
        for spec in cells:
            assert "scenario" in spec.tags
            assert spec.metadata["scenario"] == "routergrid"
            assert set(spec.metadata["axes"]) == {"trace", "estimator"}
            assert spec.accepts_seed

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownExperimentError):
            default_registry().get("fig99")
        # UnknownExperimentError stays a KeyError for old call sites.
        with pytest.raises(KeyError):
            default_registry().get("fig99")

    def test_select_unknown_id_raises(self):
        with pytest.raises(UnknownExperimentError, match="fig99"):
            default_registry().select(only=["fig01", "fig99"])

    def test_select_unknown_tag_raises(self):
        with pytest.raises(UnknownTagError, match="no-such-tag"):
            default_registry().select(tags=["no-such-tag"])

    def test_select_by_tag(self):
        accel = default_registry().select(tags=["accel"])
        assert {spec.id for spec in accel} == {
            "fig05",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
        }

    def test_select_intersects_only_and_tags(self):
        specs = default_registry().select(only=["fig01", "fig11"], tags=["accel"])
        assert [spec.id for spec in specs] == ["fig11"]

    def test_select_preserves_registry_order(self):
        specs = default_registry().select(only=["fig11", "fig01"])
        assert [spec.id for spec in specs] == ["fig01", "fig11"]

    def test_seed_acceptance_is_derived_from_signature(self):
        registry = default_registry()
        assert registry.get("tab01").accepts_seed
        assert not registry.get("fig11").accepts_seed

    def test_to_dict_is_json_metadata(self):
        spec = default_registry().get("fig01")
        meta = spec.to_dict()
        assert meta["id"] == "fig01"
        assert meta["paper_ref"] == "Figure 1(c)"
        assert isinstance(meta["tags"], list)
        assert "run" not in meta


class TestRegistryMechanics:
    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        registry.register(_spec("a"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_spec("a"))

    def test_self_dependency_rejected(self):
        with pytest.raises(ValueError, match="cannot depend on itself"):
            _spec("a", depends_on=("a",))

    def test_dependencies_pulled_in_and_ordered_first(self):
        registry = ExperimentRegistry()
        registry.register(_spec("base"))
        registry.register(_spec("mid", depends_on=("base",)))
        registry.register(_spec("top", depends_on=("mid",)))
        selected = registry.select(only=["top"])
        assert [spec.id for spec in selected] == ["base", "mid", "top"]

    def test_dependency_cycle_detected(self):
        registry = ExperimentRegistry()
        registry.register(_spec("a", depends_on=("b",)))
        registry.register(_spec("b", depends_on=("a",)))
        with pytest.raises(ValueError, match="cycle"):
            registry.select(only=["a"])

    def test_execute_forwards_seed_only_when_accepted(self):
        calls = {}

        def run_with_seed(seed: int = 0) -> ExperimentResult:
            calls["seed"] = seed
            return _dummy_run()

        def run_without_seed() -> ExperimentResult:
            calls["plain"] = True
            return _dummy_run()

        with_seed = _spec("s", run=run_with_seed)
        without_seed = _spec("p", run=run_without_seed)
        with_seed.execute(seed=42)
        without_seed.execute(seed=42)
        assert calls == {"seed": 42, "plain": True}

    def test_tags_sorted_union(self):
        registry = ExperimentRegistry()
        registry.register(_spec("a", tags=("z", "m")))
        registry.register(_spec("b", tags=("m", "a")))
        assert registry.tags() == ["a", "m", "z"]

"""Integration tests: the registry entries reproduce the paper's shape.

Every claim about an entry's rows lives once, in ``tests/claims.py``.
``test_claim_holds`` runs each (entry, claim) pair on the rows the registry
entry writes; the per-figure tests below call the claims that hold their
asserts.  ``TestOneConfiguration`` checks that each figure runs one way.
"""

import importlib
import inspect

import pytest

from repro.data.criteo import CriteoSynthetic
from repro.experiments import common, fig07_cpu, fig08_heterogeneous
from repro.experiments import fig10_design_space, fig12_rpaccel_scale, fig13_future
from repro.experiments.common import (
    CRITEO_POOL,
    ExperimentResult,
    criteo_quality_evaluator,
    merge_panels,
)
from repro.experiments.registry import default_registry
from tests import claims


@pytest.mark.parametrize(
    "entry_id, claim",
    [
        pytest.param(entry_id, claim, id=f"{entry_id}-{claim.__name__}")
        for entry_id, entry_claims in claims.CLAIMS.items()
        for claim in entry_claims
    ],
)
def test_claim_holds(entry_id, claim):
    claims.check(entry_id, claim)


def test_every_entry_but_the_routergrid_cells_has_a_claim():
    entries = {
        spec.id for spec in default_registry() if spec.metadata.get("scenario") != "routergrid"
    }
    assert set(claims.CLAIMS) == entries


class TestFig01Motivation:
    def test_reductions_match_paper_shape(self):
        claims.check("fig01", claims.multistage_cuts_compute_and_embedding_demand)

    def test_two_stage_iso_quality(self):
        claims.check("fig01", claims.two_stage_keeps_one_stage_quality)


class TestFig03Quality:
    def test_quality_increases_with_items(self):
        claims.check("fig03", claims.quality_grows_with_items_ranked)

    def test_quality_increases_with_model_size_at_fixed_items(self):
        claims.check("fig03", claims.quality_grows_with_model_size)

    def test_items_axis_dominates_model_axis(self):
        claims.check("fig03", claims.items_axis_dominates_model_axis)


class TestFig05Ablation:
    def test_each_step_helps_latency_or_throughput(self):
        claims.check(
            "fig05",
            claims.rpaccel_cuts_latency_and_raises_throughput,
            claims.full_rpaccel_is_the_best_step,
        )


class TestFig07SchedulingClaims:
    def test_two_stage_reduces_cpu_latency_about_4x(self):
        claims.check("fig07", claims.two_stage_cuts_cpu_p99_about_4x)

    def test_rmsmall_frontend_beats_rmmed_frontend(self):
        claims.check("fig07", claims.rmsmall_frontend_beats_rmmed_frontend)


class TestFig10DesignSpace:
    def test_utilization_panel(self):
        claims.check(
            "fig10",
            claims.small_models_waste_large_arrays,
            claims.reconfigurable_array_raises_utilization,
        )

    def test_topk_panel(self):
        claims.check(
            "fig10", claims.topk_filter_is_exact_and_fast, claims.ctr_threshold_cuts_topk_sram
        )

    def test_cache_panel_larger_cache_lower_amat(self):
        claims.check("fig10", claims.larger_static_cache_lowers_amat)


class TestFig11AreaPower:
    def test_overheads(self):
        claims.check("fig11", claims.rpaccel_area_and_power_overheads)


class TestFig12AtScale:
    def test_rpaccel_multistage_dominates_baseline(self):
        claims.check("fig12", claims.rpaccel_cuts_latency_3x_and_raises_throughput_6x)

    def test_baseline_saturates_before_rpaccel(self):
        claims.check("fig12", claims.baseline_saturates_before_rpaccel)

    def test_asymmetric_provisioning_tradeoff(self):
        claims.check("fig12", claims.fewer_backend_subarrays_cut_low_load_latency)


class TestFig13Future:
    def test_locality_trends(self):
        claims.check("fig13", claims.larger_tables_spill_to_ssd)

    def test_multistage_scales_more_gracefully(self):
        claims.check("fig13", claims.multistage_scales_more_gracefully)


def reference_merge(name: str, parts) -> ExperimentResult:
    """The panel merge each multi-panel figure used to write inline."""
    merged = ExperimentResult(name=name)
    for part in parts:
        for row in part.rows:
            merged.add(panel=part.name, **row)
        merged.notes.extend(part.notes)
    return merged


class TestOneConfiguration:
    """Each figure runs one way: the registry's no-argument configuration."""

    @pytest.mark.parametrize(
        "module, panels",
        [
            (fig07_cpu, ("run_single_stage", "run_multistage", "run_iso_quality")),
            (fig08_heterogeneous, ("run_iso_quality", "run_sla_quality")),
            (fig10_design_space, ("run_utilization", "run_topk", "run_cache_partition")),
            (fig12_rpaccel_scale, ("run_scale", "run_asymmetric")),
            (fig13_future, ("run_locality", "run_scaling")),
        ],
        ids=["fig07", "fig08", "fig10", "fig12", "fig13"],
    )
    def test_merge_panels_matches_the_inline_merge(self, module, panels):
        figure = module.run()
        parts = [getattr(module, name)() for name in panels]
        reference = reference_merge(figure.name, parts)
        for merged in (merge_panels(figure.name, *parts), figure):
            assert merged.rows == reference.rows
            assert [list(row) for row in merged.rows] == [list(row) for row in reference.rows]
            assert merged.notes == reference.notes

    def test_harness_functions_take_no_parameters(self):
        checked = []
        for spec in default_registry():
            if not spec.module.startswith("repro.experiments."):
                continue
            module = importlib.import_module(spec.module)
            for name, function in vars(module).items():
                if not (name == "run" or name.startswith("run_")):
                    continue
                if not inspect.isfunction(function) or function.__module__ != module.__name__:
                    continue
                expected = ["seed"] if (spec.id, name) == ("tab01", "run") else []
                assert list(inspect.signature(function).parameters) == expected, (spec.id, name)
                checked.append((spec.id, name))
        assert len({spec_id for spec_id, _ in checked}) == 11

    def test_common_builders_and_evaluators_have_no_defaults(self):
        for builder in (
            common.criteo_one_stage,
            common.criteo_two_stage,
            common.criteo_two_stage_med,
            common.criteo_three_stage,
        ):
            assert not inspect.signature(builder).parameters, builder.__name__
        for evaluator in (common.criteo_quality_evaluator, common.movielens_quality_evaluator):
            parameters = inspect.signature(evaluator).parameters.values()
            assert all(p.default is inspect.Parameter.empty for p in parameters)

    def test_criteo_figures_draw_the_workload_once(self, monkeypatch):
        draws = []
        original = CriteoSynthetic.sample_ranking_queries

        def counting(self, *args, **kwargs):
            draws.append(kwargs.get("candidates_per_query"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CriteoSynthetic, "sample_ranking_queries", counting)
        criteo_quality_evaluator.cache_clear()
        for exp_id in ("fig01", "fig03", "fig07", "fig08", "fig14"):
            default_registry().get(exp_id).execute()
        assert draws == [CRITEO_POOL]

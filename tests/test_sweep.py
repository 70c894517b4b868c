"""Tests for multi-platform design-space sweeps (``repro.core.sweep``).

The reference-equivalence suite (hypothesis) requires the sweep's
bookkeeping -- column-batched latency reports, the vectorised Pareto
frontier, the list-row CSV writer and the sweep writer that encodes each
row once -- to reproduce the per-item forms kept in
``tests/sweep_reference.py`` exactly, and the streamed JSON writer to
reproduce ``json.dumps(..., indent=2)``'s text and exception types.
"""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import pareto
from repro.core.pipeline import enumerate_pipelines
from repro.core.sweep import PLATFORMS, SweepConfig, column_seeds, run_sweep
from repro.data import CriteoConfig, CriteoSynthetic
from repro.experiments.artifacts import (
    _json_default,
    _sanitize,
    write_result_csv,
    write_result_json,
    write_sweep_artifacts,
)
from repro.experiments.common import ExperimentResult
from repro.models.zoo import criteo_model_specs
from repro.quality import QualityEvaluator
from repro.serving.metrics import REPORT_QUANTILES, LatencyReport, sorted_quantiles
from tests.sweep_reference import (
    reference_csv,
    reference_pareto_frontier,
    reference_report,
    reference_sweep_files,
)


class CountingEvaluator(QualityEvaluator):
    """QualityEvaluator that counts every ``evaluate`` invocation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def evaluate(self, stages, **kwargs):
        self.calls += 1
        return super().evaluate(stages, **kwargs)


def make_evaluator(cls=QualityEvaluator, pool=512):
    queries = CriteoSynthetic(CriteoConfig(table_size=400)).sample_ranking_queries(
        3, candidates_per_query=pool
    )
    return cls(queries)


SMALL_GRID = dict(
    first_stage_items=(512,),
    later_stage_items=(128,),
    max_stages=2,
    num_queries=300,
)


@pytest.fixture(scope="module")
def multi_outcome():
    config = SweepConfig(platforms=("cpu", "gpu-cpu", "rpaccel"), qps=(250.0, 500.0), **SMALL_GRID)
    return run_sweep(make_evaluator(), criteo_model_specs(), config)


class TestSweepConfig:
    def test_platforms_is_a_swept_axis(self):
        config = SweepConfig(platforms=("cpu", "gpu"))
        assert config.platforms == ("cpu", "gpu")
        assert config.baseline_platform == "cpu"
        assert config.cells() == [("cpu", 500.0), ("gpu", 500.0)]

    def test_single_platform_string_normalized(self):
        assert SweepConfig(platforms="rpaccel").platforms == ("rpaccel",)

    def test_duplicate_platforms_deduped_order_preserved(self):
        config = SweepConfig(platforms=("gpu", "cpu", "gpu"))
        assert config.platforms == ("gpu", "cpu")
        assert config.baseline_platform == "gpu"

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="unknown platforms"):
            SweepConfig(platforms=("cpu", "fpga"))

    def test_empty_platforms_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(platforms=())

    def test_all_known_platforms_accepted(self):
        assert SweepConfig(platforms=PLATFORMS).platforms == PLATFORMS

    def test_duplicate_qps_deduped_order_preserved(self):
        config = SweepConfig(qps=(500.0, 250.0, 500.0))
        assert config.qps == (500.0, 250.0)
        assert config.cells() == [("cpu", 500.0), ("cpu", 250.0)]

    def test_engine_is_a_knob(self):
        assert SweepConfig().engine == "analytic"
        assert SweepConfig(engine="event").engine == "event"
        with pytest.raises(ValueError, match="unknown engine"):
            SweepConfig(engine="quantum")


class TestColumnSeeds:
    def pipelines(self):
        return enumerate_pipelines(
            criteo_model_specs(),
            first_stage_items=(512,),
            later_stage_items=(128,),
            max_stages=2,
            serve_k=64,
        )

    def test_one_seed_per_platform_pipeline_column(self):
        config = SweepConfig(platforms=("cpu", "rpaccel"), **SMALL_GRID)
        pipelines = self.pipelines()
        seeds = column_seeds(config, pipelines)
        assert set(seeds) == {
            (platform, pipeline.name)
            for platform in config.platforms
            for pipeline in pipelines
        }

    def test_columns_do_not_share_arrival_noise(self):
        config = SweepConfig(platforms=("cpu", "gpu-cpu", "rpaccel"), **SMALL_GRID)
        seeds = column_seeds(config, self.pipelines())
        assert len(set(seeds.values())) == len(seeds)

    def test_same_config_derives_same_seeds(self):
        config = SweepConfig(platforms=("cpu", "rpaccel"), **SMALL_GRID)
        pipelines = self.pipelines()
        assert column_seeds(config, pipelines) == column_seeds(config, pipelines)

    def test_different_root_seed_different_cells(self):
        pipelines = self.pipelines()
        a = column_seeds(SweepConfig(seed=0, **SMALL_GRID), pipelines)
        b = column_seeds(SweepConfig(seed=1, **SMALL_GRID), pipelines)
        assert set(a.values()).isdisjoint(b.values())

    def test_sweep_is_reproducible(self):
        config = SweepConfig(platforms=("cpu", "rpaccel"), qps=(250.0,), **SMALL_GRID)
        first = run_sweep(make_evaluator(), criteo_model_specs(), config)
        second = run_sweep(make_evaluator(), criteo_model_specs(), config)
        assert first.rows() == second.rows()

    def test_event_engine_sweep_agrees_with_analytic(self):
        analytic = run_sweep(
            make_evaluator(),
            criteo_model_specs(),
            SweepConfig(platforms=("cpu",), qps=(250.0,), **SMALL_GRID),
        )
        event = run_sweep(
            make_evaluator(),
            criteo_model_specs(),
            SweepConfig(platforms=("cpu",), qps=(250.0,), engine="event", **SMALL_GRID),
        )
        for a, b in zip(analytic.rows(), event.rows()):
            assert a["pipeline"] == b["pipeline"]
            assert a["p99_ms"] == pytest.approx(b["p99_ms"], abs=1e-6)


class TestQualityMemoization:
    def test_quality_evaluated_once_per_unique_pipeline(self):
        """The memoization contract: #evaluator calls == #unique pipelines,
        no matter how many platforms and qps points the grid has."""
        evaluator = make_evaluator(CountingEvaluator)
        config = SweepConfig(
            platforms=("cpu", "gpu-cpu", "rpaccel"), qps=(100.0, 250.0), **SMALL_GRID
        )
        outcome = run_sweep(evaluator, criteo_model_specs(), config)
        assert evaluator.calls == len(outcome.pipelines)
        assert len(config.cells()) == 6  # the grid is genuinely larger

    def test_quality_is_ndcg_at_the_pipelines_serve_k(self):
        outcomes = {
            serve_k: run_sweep(
                make_evaluator(),
                criteo_model_specs(),
                SweepConfig(qps=(250.0,), serve_k=serve_k, **SMALL_GRID),
            )
            for serve_k in (64, 128)
        }
        reference = make_evaluator()
        for serve_k, outcome in outcomes.items():
            for pipeline in outcome.pipelines:
                expected = reference.evaluate(pipeline.funnel_stages(), serve_k=serve_k)
                assert outcome.quality_by_pipeline[pipeline.name] == expected
        assert outcomes[64].quality_by_pipeline != outcomes[128].quality_by_pipeline

    def test_quality_identical_across_platforms_and_loads(self, multi_outcome):
        for rows in multi_outcome.evaluated.values():
            for e in rows:
                memoized = multi_outcome.quality_by_pipeline[e.pipeline.name]
                assert e.quality == memoized

    def test_quality_map_covers_every_pipeline(self, multi_outcome):
        names = {p.name for p in multi_outcome.pipelines}
        assert set(multi_outcome.quality_by_pipeline) == names


class TestCrossPlatformCrossSections:
    def test_every_cell_evaluated(self, multi_outcome):
        config = multi_outcome.config
        assert set(multi_outcome.evaluated) == set(config.cells())
        for evaluated in multi_outcome.evaluated.values():
            assert len(evaluated) == len(multi_outcome.pipelines)

    def test_combined_frontier_pools_all_platforms(self, multi_outcome):
        for qps in multi_outcome.config.qps:
            combined = multi_outcome.combined_frontier[qps]
            assert combined
            per_platform_best = {
                e.p99_latency
                for platform in multi_outcome.config.platforms
                for e in multi_outcome.frontier[(platform, qps)]
            }
            # Every combined-frontier member is at least as fast as the
            # slowest per-platform frontier point of equal-or-lower quality.
            assert min(e.p99_latency for e in combined) == min(per_platform_best)

    def test_combined_frontier_not_dominated(self, multi_outcome):
        for qps in multi_outcome.config.qps:
            combined = multi_outcome.combined_frontier[qps]
            for a in combined:
                for b in combined:
                    dominates = (
                        b.quality >= a.quality
                        and b.p99_latency <= a.p99_latency
                        and (b.quality > a.quality or b.p99_latency < a.p99_latency)
                    )
                    assert not dominates

    def test_best_platform_under_sla_prefers_fast_platform_on_quality_tie(
        self, multi_outcome
    ):
        for qps in multi_outcome.config.qps:
            best = multi_outcome.best_platform_under_sla[qps]
            assert best is not None
            sla = multi_outcome.config.sla_seconds
            pooled = [
                e
                for rows in (
                    multi_outcome.evaluated[(p, qps)]
                    for p in multi_outcome.config.platforms
                )
                for e in rows
                if e.feasible and e.p99_latency <= sla
            ]
            top_quality = max(e.quality for e in pooled)
            assert best.quality == top_quality
            ties = [e for e in pooled if e.quality == top_quality]
            assert best.p99_latency == min(e.p99_latency for e in ties)

    def test_speedup_vs_baseline(self, multi_outcome):
        rows = multi_outcome.rows()
        baseline = multi_outcome.config.baseline_platform
        for row in rows:
            if row["platform"] == baseline and not row["saturated"]:
                assert row["speedup_vs_baseline"] == pytest.approx(1.0)
            if row["saturated"]:
                assert row["speedup_vs_baseline"] is None
        # rpaccel is faster than the CPU baseline on this workload.
        rp = [
            r
            for r in rows
            if r["platform"] == "rpaccel" and r["speedup_vs_baseline"] is not None
        ]
        assert rp and all(r["speedup_vs_baseline"] > 1.0 for r in rp)

    def test_rows_cover_the_full_grid(self, multi_outcome):
        rows = multi_outcome.rows()
        config = multi_outcome.config
        expected = len(config.platforms) * len(config.qps) * len(multi_outcome.pipelines)
        assert len(rows) == expected
        for key in ("speedup_vs_baseline", "on_combined_frontier",
                    "best_platform_under_sla"):
            assert all(key in row for row in rows)

    def test_rows_record_the_engine_used(self, multi_outcome):
        """Result rows are self-describing: each carries the engine that
        produced it, so mixed-engine artifact files stay disambiguated."""
        assert all(row["engine"] == "analytic" for row in multi_outcome.rows())
        assert all(row["engine"] == "analytic" for row in multi_outcome.frontier_rows())
        assert any("engine analytic" in line for line in multi_outcome.summary_lines())
        event = run_sweep(
            make_evaluator(),
            criteo_model_specs(),
            SweepConfig(platforms=("cpu",), qps=(250.0,), engine="event", **SMALL_GRID),
        )
        assert all(row["engine"] == "event" for row in event.rows())
        assert all(row["engine"] == "event" for row in event.frontier_rows())

    def test_platform_rows_filter(self, multi_outcome):
        cpu_rows = multi_outcome.platform_rows("cpu")
        assert cpu_rows
        assert all(row["platform"] == "cpu" for row in cpu_rows)

    def test_frontier_rows_sorted_by_latency_per_load(self, multi_outcome):
        rows = multi_outcome.frontier_rows()
        assert rows
        for qps in multi_outcome.config.qps:
            latencies = [r["p99_ms"] for r in rows if r["qps"] == qps]
            assert latencies == sorted(latencies)
            assert len(latencies) == len(multi_outcome.combined_frontier[qps])


class TestParallelSweep:
    def test_jobs_match_serial_results(self):
        config = SweepConfig(platforms=("cpu", "rpaccel"), qps=(250.0,), **SMALL_GRID)
        serial = run_sweep(make_evaluator(), criteo_model_specs(), config, jobs=1)
        parallel = run_sweep(make_evaluator(), criteo_model_specs(), config, jobs=2)
        assert serial.rows() == parallel.rows()
        assert serial.frontier_rows() == parallel.frontier_rows()

    def test_parallel_workers_reuse_parent_quality_memo(self):
        evaluator = make_evaluator(CountingEvaluator)
        config = SweepConfig(platforms=("cpu", "rpaccel"), qps=(250.0,), **SMALL_GRID)
        outcome = run_sweep(evaluator, criteo_model_specs(), config, jobs=2)
        # Workers receive the memo; only the parent evaluates quality.
        assert evaluator.calls == len(outcome.pipelines)


# --------------------------------------------------------------------------- #
# Reference equivalence
# --------------------------------------------------------------------------- #
def _bits(report: LatencyReport) -> str:
    # repr round-trips floats exactly and tells 10 from 10.0 and -0.0 from 0.0.
    return repr(dataclasses.astuple(report))


@st.composite
def latency_columns(draw):
    """Simulated-looking ``(loads, queries)`` latency and arrival matrices."""
    loads = draw(st.integers(min_value=1, max_value=5))
    queries = draw(st.integers(min_value=1, max_value=3000))
    warmup = draw(st.integers(min_value=0, max_value=queries - 1))
    scale = 10.0 ** draw(st.floats(min_value=-6.0, max_value=2.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    latencies = rng.exponential(scale, (loads, queries))
    if draw(st.booleans()):  # coarse grid: many tied latencies
        latencies = np.round(latencies / scale, 1) * scale
    arrivals = np.cumsum(rng.exponential(1.0 / draw(st.floats(1.0, 1e4)), (loads, queries)), axis=1)
    return latencies, arrivals, warmup


objective_values = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, -1.0, float("inf"), -float("inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def objective_sets(draw):
    """Objective tuples with duplicates, ties, ±inf and NaN, plus minimize flags."""
    width = draw(st.integers(min_value=1, max_value=3))
    distinct = draw(st.lists(st.tuples(*[objective_values] * width), min_size=1, max_size=12))
    values = draw(st.lists(st.sampled_from(distinct), max_size=40))  # repeats = duplicates
    minimize = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    return values, minimize


csv_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
)

#: Floats json spells specially (non-finite ones become null, -0.0 keeps its sign).
special_floats = st.sampled_from([math.inf, -math.inf, math.nan, -0.0])
json_floats = st.one_of(
    st.floats(),
    special_floats,
    st.builds(np.float64, st.one_of(st.floats(), special_floats)),
    st.builds(np.float32, st.one_of(st.floats(width=32), special_floats)),
)
#: Text that looks like JSON syntax, so no writer can patch tokens by search.
json_text = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["NaN", "Infinity", "-Infinity", "null", "}\n", "]", ": NaN,\n", "é\x00\u2028"]
    ),
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.builds(np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
    json_floats,
    json_text,
)
json_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
)
#: Every key kind json accepts (a non-finite float key raises ValueError)
#: and one it rejects (``np.int64`` raises TypeError).
json_keys = st.one_of(
    json_text,
    st.integers(),
    json_floats.filter(lambda key: isinstance(key, float)),
    st.booleans(),
    st.none(),
    st.builds(np.int64, st.integers(min_value=0, max_value=9)),
)
json_values = st.recursive(
    st.one_of(json_scalars, json_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_keys, children, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def sweep_tables(draw):
    """A sweep-shaped result and companions: per-platform slices of its rows plus a fresh table.

    Rows share one key set, so the slices reuse the rows' text, or may lack
    keys, so a slice's CSV header can differ from the whole table's.  They
    carry non-finite floats and numpy scalars; one companion may list the
    same row twice or mix in a row of its own.
    """
    names = ["pipeline", "qps", "p99_ms", "saturated"]
    keys = st.sampled_from(names)
    cells = st.fixed_dictionaries(dict.fromkeys(names, csv_values))
    if not draw(st.booleans()):
        cells = st.dictionaries(keys, csv_values, max_size=4)
    platform = st.sampled_from(["cpu", "gpu", "rpaccel"])
    rows = draw(
        st.lists(
            st.builds(lambda where, row: {"platform": where, **row}, platform, cells),
            max_size=12,
        )
    )
    result = ExperimentResult(name="sweep_criteo", rows=rows, notes=draw(st.lists(json_text)))
    companions = {}
    for where in ("cpu", "gpu", "rpaccel"):
        rows_there = [row for row in rows if row["platform"] == where]
        companions[where] = (f"{where} rows", ExperimentResult(f"sweep_{where}", rows_there))
    if rows and draw(st.booleans()):
        doubled = [rows[0], rows[0], *draw(st.lists(st.sampled_from(rows), max_size=3))]
        companions["doubled"] = ("repeats", ExperimentResult("sweep_criteo_doubled", doubled))
    if rows and draw(st.booleans()):
        mixed = [rows[-1], {"platform": "cpu", "qps": 1.0}]
        companions["mixed"] = ("mixed", ExperimentResult("sweep_criteo_mixed", mixed))
    frontier = draw(st.lists(st.dictionaries(keys, csv_values, max_size=4), max_size=4))
    companions["frontier"] = ("frontier", ExperimentResult("sweep_criteo_frontier", frontier))
    meta = {"id": "sweep", "title": "Sweep", "paper_ref": "Fig. 10", "tags": ["sweep"]}
    return meta, result, companions


class TestReferenceEquivalence:
    @given(sweep_tables(), st.one_of(st.none(), st.floats(0.0, 10.0)))
    @settings(max_examples=100, deadline=None)
    def test_sweep_files_match_standalone_writes(self, tmp_path_factory, tables, wall):
        """Rows encoded once for the main table and its slices write every file's bytes."""
        meta, result, companions = tables
        out = tmp_path_factory.mktemp("sweep")
        write_sweep_artifacts(out, meta, result, companions, seed=3, wall_clock_seconds=wall)
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        assert written == reference_sweep_files(meta, result, companions, 3, wall)

    def test_rows_no_companion_lists_are_not_held_as_text(self, tmp_path):
        """``route`` and ``capacity``: their companions are fresh tables, so nothing is held."""
        rows = [{"qps": 100.0, "p99_ms": math.inf}, {"qps": 200.0, "p99_ms": 4.5}]
        result = ExperimentResult(name="route", rows=rows)
        steps = ExperimentResult(name="route_steps", rows=[{"step": 0, "qps": 100.0}])
        companions = {"steps": ("steps", steps), "empty": ("nothing", ExperimentResult("e", []))}
        meta = {"id": "route", "title": "Route"}
        with mock.patch("repro.experiments.artifacts._EncodedRows") as encoded:
            write_sweep_artifacts(tmp_path, meta, result, companions, seed=0)
        encoded.assert_not_called()
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert written == reference_sweep_files(meta, result, companions, 0)

    @given(latency_columns(), st.lists(st.booleans(), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_column_reports_match_per_row_reports(self, columns, saturated):
        latencies, arrivals, warmup = columns
        kept, kept_arrivals = latencies[:, warmup:], arrivals[:, warmup:]
        loads = kept.shape[0]
        qps = [float(100 * (i + 1)) for i in range(loads)]
        reports = LatencyReport.from_latencies(kept, kept_arrivals, qps, saturated[:loads])
        expected = [
            reference_report(kept[i], kept_arrivals[i], qps[i], saturated[i])
            for i in range(loads)
        ]
        assert [_bits(r) for r in reports] == [_bits(r) for r in expected]

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=60),
            elements=st.one_of(st.floats(), st.sampled_from([0.5, 1.0, 2.0])),  # ties
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_row_quantiles_match_percentile(self, matrix):
        """Rows with ties, infinities and NaN: the values ``np.percentile`` gives each row."""
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, huge b - a
            got = sorted_quantiles(np.sort(matrix, axis=1), REPORT_QUANTILES)
            expected = np.percentile(matrix, (50, 95, 99), axis=1).T
        # Signed zeros compare equal: sort and partition may order 0.0 and -0.0 differently.
        assert np.array_equal(got, expected, equal_nan=True)

    @given(objective_sets(), st.integers(min_value=1, max_value=64))
    @example(([], [True]), 1)  # empty input
    @settings(max_examples=200, deadline=None)
    def test_frontier_matches_pairwise_loop(self, objective_set, block_elements):
        values, minimize = objective_set
        items = list(range(len(values)))  # ids make order and identity visible
        # A small block forces several row blocks over the same input.
        with mock.patch.object(pareto, "BLOCK_ELEMENTS", block_elements):
            got = pareto.pareto_frontier(items, values.__getitem__, minimize)
        assert got == reference_pareto_frontier(items, values.__getitem__, minimize)

    @given(
        st.lists(
            st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), csv_values, max_size=4),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_csv_bytes_match_dict_writer(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        write_result_csv(path, ExperimentResult(name="rows", rows=rows))
        assert path.read_bytes() == reference_csv(rows).encode("utf-8")

    @given(json_values)
    @example({"rows": [{"p99_ms": math.inf, "ok": True}, {"p99_ms": 1.5}], "notes": []})
    @settings(max_examples=400, deadline=None)
    def test_json_text_matches_stdlib_encoder(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("json") / "payload.json"
        try:
            expected = json.dumps(
                _sanitize(value), indent=2, default=_json_default, allow_nan=False
            )
        except (TypeError, ValueError) as error:
            with pytest.raises(type(error)) as raised:
                write_result_json(path, value)
            assert type(raised.value) is type(error)
        else:
            write_result_json(path, value)
            assert path.read_text(encoding="utf-8") == expected + "\n"

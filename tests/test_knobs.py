"""Tests for the knob table (``repro.scenarios.knobs``): one declaration per flag and key."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.scenarios import BASE_DEFAULTS
from repro.scenarios import knobs as k
from repro.scenarios.knobs import COMMANDS, KNOBS, ScenarioError, coerce

#: Every distinct record: the table plus the per-command variants that
#: change a knob's type or flag (capacity's ``--platforms``, ``--peak-qps``).
RECORDS = list(
    {
        (knob.name, knob.type, knob.flag): knob
        for knob in (*KNOBS.values(), *(knob for uses in COMMANDS.values() for knob in uses))
    }.values()
)
#: Records that take CLI text (a bool flag takes none).
TEXT = [knob for knob in RECORDS if knob.flag is not None and knob.type != k.BOOL]
NUMERIC = (k.INT, k.FLOAT, k.OPTIONAL_FLOAT)
#: Parser options that are not knobs: selection, output and event logging.
HAND_WRITTEN = {"-h", "--only", "--tag", "--scenario", "--output-dir", "--events", "--quiet"}
LISTS = (k.INTS, k.FLOATS)


def _ids(knob):
    return f"{knob.name}:{knob.type}:{knob.flag}"


def _subparser(command):
    return cli.build_parser()._subparsers._group_actions[0].choices[command]


def _numbers(knob):
    """Valid scalars of a numeric knob (or of one element of a number list)."""
    check = knob.check
    if knob.type in (k.INT, k.INTS):
        return st.integers(min_value=int(check.low), max_value=10**6)
    return st.floats(
        min_value=max(check.low, -1e9),
        max_value=min(check.high, 1e9),
        exclude_min=check.strict,
        allow_nan=False,
        allow_infinity=False,
    )


def _outside(knob):
    """Finite numbers outside a numeric knob's range (none for an unbounded one)."""
    check = knob.check
    if knob.type in (k.INT, k.INTS):
        return st.integers(min_value=-(10**6), max_value=int(check.low) - 1)
    parts = []
    if math.isfinite(check.low):
        below = st.floats(min_value=-1e9, max_value=check.low, exclude_max=not check.strict)
        parts.append(below)
    if math.isfinite(check.high):
        parts.append(st.floats(min_value=check.high, max_value=1e9, exclude_min=True))
    return st.one_of(parts) if parts else st.nothing()


def valid(knob):
    """A strategy of valid scenario-form values."""
    if knob.type in NUMERIC:
        numbers = _numbers(knob)
        return st.none() | numbers if knob.type == k.OPTIONAL_FLOAT else numbers
    if knob.type in LISTS:
        return st.lists(_numbers(knob), min_size=1, max_size=4).map(tuple)
    if knob.type == k.BOOL:
        return st.booleans()
    if knob.type in (k.CHOICE,):
        return st.sampled_from(knob.check)
    if knob.type == k.ESTIMATOR_LIST:
        names = st.sampled_from(knob.check)
        return names | st.lists(names, min_size=1, max_size=3).map(tuple)
    if knob.type in (k.PLATFORM_SET, k.PLATFORM_LIST):
        names = st.lists(st.sampled_from(knob.check), min_size=1, max_size=3)
        return names.map("+".join) if knob.type == k.PLATFORM_SET else names.map(tuple)
    if knob.type == k.TRACE_LIST:
        name = st.sampled_from(knob.check)
        table = st.fixed_dictionaries(
            {"name": name},
            optional={"steps": st.integers(1, 500), "noise": st.floats(0.0, 1.0)},
        )
        return name | table | st.lists(name | table, min_size=1, max_size=3).map(tuple)
    if knob.type == k.NODE_MIX:
        return st.sampled_from(("1", "cpu", "2xcpu", "cpu+rpaccel", "3xgpu-cpu+baseline-accel"))
    assert knob.type == k.SCHEDULE
    counts = st.integers(0, 10**5)
    return st.none() | st.fixed_dictionaries(
        {"start": counts, "shift_items": counts, "rewarm_steps": counts}
    )


def as_text(knob, value):
    """The CLI spelling of a valid scenario-form value (None: it has none)."""
    if value is None or knob.type in (k.NODE_MIX, k.SCHEDULE):
        return None
    if knob.type == k.TRACE_LIST:
        items = value if isinstance(value, tuple) else (value,)
        return ",".join(item["name"] if isinstance(item, dict) else item for item in items)
    if knob.type == k.ESTIMATOR_LIST:
        return None if isinstance(value, tuple) else value
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if knob.type == k.PLATFORM_SET:
        return value.replace("+", ",")
    return value if isinstance(value, (str, bool)) else repr(value)


def invalid(knob):
    """A strategy of malformed scenario-form values: non-finite, mistyped, out of range."""
    if knob.type in NUMERIC:
        fixed = [math.nan, math.inf, -math.inf, "1", True, False, [1]]
        return st.sampled_from(fixed) | _outside(knob)
    if knob.type in LISTS:
        fixed = [[math.nan], [math.inf], [-math.inf], [True], ["1"], [], "1,2", 1]
        return st.sampled_from(fixed) | _outside(knob).map(lambda value: [value])
    return st.sampled_from(_invalid_other(knob))


def _invalid_other(knob):
    if knob.type == k.BOOL:
        return ["yes", 1, 0, None]
    if knob.type in (k.CHOICE, k.ESTIMATOR_LIST):
        return ["bogus", 1, None, math.nan, True]
    if knob.type == k.PLATFORM_SET:
        return ["tpu", "cpu+tpu", ("cpu",), 1, None]
    if knob.type == k.PLATFORM_LIST:
        return [("tpu",), ("cpu", "fpga")]
    if knob.type == k.TRACE_LIST:
        return [
            "tsunami",
            (),
            1,
            {"name": "spike", "spike_start": 3},
            {"name": "spike", "steps": 0},
            {"name": "ramp", "peak_qps": math.nan},
            {"name": "ramp", "noise": "x"},
        ]
    if knob.type == k.NODE_MIX:
        return ["2xtpu", "x2cpu", 1, None, ""]
    assert knob.type == k.SCHEDULE
    return [
        {"start": 4},
        {"start": -1, "shift_items": 0, "rewarm_steps": 0},
        {"start": 1.5, "shift_items": 0, "rewarm_steps": 0},
        {"start": True, "shift_items": 0, "rewarm_steps": 0},
        "later",
    ]


def invalid_text(knob):
    """A strategy of malformed CLI text."""
    if knob.type in (k.INT, k.FLOAT, k.OPTIONAL_FLOAT, *LISTS):
        fixed = ["nan", "inf", "-inf", "abc", "", "1;2", "1,nan" if knob.type in LISTS else "1e999"]
        if knob.type in (k.INT, k.INTS):
            fixed.append("2048.9")
        return st.sampled_from(fixed) | _outside(knob).map(repr)
    if knob.type in (k.CHOICE, k.ESTIMATOR_LIST):
        return st.sampled_from(["bogus", "", f"{knob.check[0]},{knob.check[-1]}"])
    if knob.type == k.PLATFORM_SET:
        return st.sampled_from(["cpu,fpga", "", "cpu+gpu"])
    if knob.type == k.PLATFORM_LIST:
        return st.sampled_from(["tpu", "", "all"])
    assert knob.type == k.TRACE_LIST
    return st.sampled_from(["tsunami", "", "spike,all"])


class TestCoerce:
    @pytest.mark.parametrize("knob", RECORDS, ids=_ids)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_valid_values_pass(self, knob, data):
        value = data.draw(valid(knob))
        typed = coerce(knob, value)
        if knob.type in NUMERIC and value is not None:
            assert typed == value and type(typed) is (int if knob.type == k.INT else float)
        text = as_text(knob, value)
        if text is not None:  # the CLI spelling types to the same value
            parsed = coerce(knob, text, cli=True)
            if knob.type == k.PLATFORM_SET:
                parsed = "+".join(parsed)
            if knob.type == k.TRACE_LIST:
                typed = tuple(text.split(","))
            assert parsed == typed

    @pytest.mark.parametrize("knob", RECORDS, ids=_ids)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_malformed_values_name_the_key(self, knob, data):
        value = data.draw(invalid(knob))
        with pytest.raises(ScenarioError, match=knob.name):
            coerce(knob, value)

    @pytest.mark.parametrize("knob", TEXT, ids=_ids)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_malformed_text_names_the_flag(self, knob, data):
        text = data.draw(invalid_text(knob))
        with pytest.raises(ScenarioError, match=knob.flag):
            coerce(knob, text, cli=True)

    def test_example_message(self):
        with pytest.raises(ScenarioError, match=r"^--sla-ms must be positive and finite, got nan$"):
            coerce(KNOBS["sla_ms"], "nan", cli=True)
        with pytest.raises(ScenarioError, match=r"^sla_ms must be positive and finite, got nan$"):
            coerce(KNOBS["sla_ms"], math.nan)

    def test_cli_lists_parse_to_tuples(self):
        assert coerce(KNOBS["qps"], "250, 500", cli=True) == (250.0, 500.0)
        assert coerce(KNOBS["first_stage_items"], "512", cli=True) == (512,)
        assert coerce(KNOBS["trace"], "all", cli=True) == ("diurnal", "spike", "ramp")
        capacity_platforms = COMMANDS["capacity"][0]
        assert coerce(capacity_platforms, "cpu,rpaccel", cli=True) == ("cpu", "rpaccel")


class TestTable:
    def test_every_scenario_key_is_a_knob_with_its_default(self):
        assert dict(BASE_DEFAULTS) == {knob.name: knob.default for knob in k.SCENARIO_KNOBS}
        for name, default in BASE_DEFAULTS.items():
            assert coerce(KNOBS[name], default) == default

    def test_command_defaults_pass_their_own_checks(self):
        for command, uses in COMMANDS.items():
            for knob in uses:
                default = k.cli_default(knob)
                if knob.type != k.BOOL and default is not None:
                    coerce(knob, default, cli=True)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_knob_flag_comes_from_the_table(self, command):
        actions = {action.option_strings[0]: action for action in _subparser(command)._actions}
        for knob in COMMANDS[command]:
            action = actions[knob.flag]
            assert action.help == knob.help
            if knob.type != k.BOOL:
                assert action.default == k.cli_default(knob)
        by_hand = set(actions) - {knob.flag for knob in COMMANDS[command]}
        assert by_hand <= HAND_WRITTEN


# The surface scripts and scenario files rely on, pinned so that no edit of
# the table changes it unnoticed: option strings, parsed defaults (types
# included) and the scenario defaults.
PINNED_OPTIONS = {
    "run": "--only --tag --jobs --seed --output-dir --scenario --events --quiet",
    "sweep": (
        "--dataset --platform --qps --sla-ms --quality-target --first-stage-items "
        "--later-stage-items --max-stages --serve-k --num-queries --pool --jobs --engine --seed "
        "--output-dir --quiet"
    ),
    "route": (
        "--dataset --platform --qps-grid --sla-ms --quality-target --first-stage-items "
        "--later-stage-items --max-stages --serve-k --num-queries --pool --trace --steps "
        "--step-seconds --base-qps --peak-qps --noise --estimator --window --ewma-alpha "
        "--hysteresis --switch-penalty-ms --switch-cost-ms --planning-qps --service-model --mode "
        "--window-seconds --max-batch --no-batching --defer-windows --arrival-process --seed "
        "--output-dir --events --quiet"
    ),
    "capacity": (
        "--platforms --max-nodes --users --peak-qps --base-qps --steps --step-seconds --noise "
        "--sla-ms --strategy --embedding-scale --budget-gb --num-tables --num-queries --pool "
        "--seed --output-dir --quiet"
    ),
}

PINNED_DEFAULTS = {
    "run": {
        "only": "",
        "tag": "",
        "jobs": 1,
        "seed": None,
        "output_dir": "",
        "scenario": "",
        "events": "",
    },
    "sweep": {
        "dataset": "criteo",
        "platform": "cpu",
        "qps": "500",
        "sla_ms": 25.0,
        "quality_target": None,
        "first_stage_items": "2048,4096",
        "later_stage_items": "128,256,512,1024",
        "max_stages": 3,
        "serve_k": 64,
        "num_queries": 1500,
        "pool": None,
        "jobs": 1,
        "engine": "analytic",
        "seed": 0,
        "output_dir": "",
    },
    "route": {
        "dataset": "criteo",
        "platform": "cpu,gpu-cpu",
        "qps_grid": "100,250,1000,2500,4000,5500,6000",
        "sla_ms": 25.0,
        "quality_target": None,
        "first_stage_items": "512",
        "later_stage_items": "128,256",
        "max_stages": 2,
        "serve_k": 64,
        "num_queries": 800,
        "pool": None,
        "trace": "all",
        "steps": 120,
        "step_seconds": 60.0,
        "base_qps": 150.0,
        "peak_qps": 5500.0,
        "noise": 0.03,
        "estimator": "windowed",
        "window": 3,
        "ewma_alpha": 0.5,
        "hysteresis": 2,
        "switch_penalty_ms": 5.0,
        "switch_cost_ms": 0.0,
        "planning_qps": None,
        "service_model": "deterministic",
        "mode": "per-step",
        "window_seconds": None,
        "max_batch": None,
        "no_batching": False,
        "defer_windows": 1.0,
        "arrival_process": "poisson",
        "seed": 0,
        "output_dir": "",
        "events": "",
    },
    "capacity": {
        "platforms": "cpu,baseline-accel,rpaccel",
        "max_nodes": 4,
        "users": 1000000,
        "peak_qps": None,
        "base_qps": None,
        "steps": 96,
        "step_seconds": 900.0,
        "noise": 0.03,
        "sla_ms": 25.0,
        "strategy": "tablewise",
        "embedding_scale": 3.0,
        "budget_gb": 32.0,
        "num_tables": 26,
        "num_queries": 600,
        "pool": 512,
        "seed": 0,
        "output_dir": "",
    },
}

PINNED_BASE_DEFAULTS = {
    "dataset": "criteo",
    "platforms": "cpu+gpu-cpu",
    "qps_grid": (100.0, 250.0, 1000.0, 2500.0, 4000.0, 5500.0, 6000.0),
    "sla_ms": 25.0,
    "quality_target": None,
    "first_stage_items": (256,),
    "later_stage_items": (128,),
    "max_stages": 2,
    "serve_k": 64,
    "num_queries": 300,
    "pool": 256,
    "trace": "spike",
    "steps": 40,
    "step_seconds": 60.0,
    "base_qps": 150.0,
    "peak_qps": 5500.0,
    "noise": 0.03,
    "estimator": "windowed",
    "window": 3,
    "ewma_alpha": 0.5,
    "hysteresis": 2,
    "switch_penalty_ms": 0.0,
    "switch_cost_ms": 0.0,
    "planning_qps": None,
    "service_model": "deterministic",
    "service_schedule": None,
    "mode": "per-step",
    "window_seconds": None,
    "max_batch": 64,
    "batching": True,
    "defer_windows": 1.0,
    "arrival_process": "poisson",
    "nodes": "1",
    "budget_gb": 32.0,
    "num_tables": 26,
    "embedding_scale": 3.0,
    "seed": 0,
}

class TestSurfacePinned:
    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    def test_option_strings_and_defaults(self, command):
        options = [action.option_strings[0] for action in _subparser(command)._actions[1:]]
        assert options == PINNED_OPTIONS[command].split()
        parsed = vars(cli.build_parser().parse_args([command]))
        expected = {"command": command, "quiet": False, **PINNED_DEFAULTS[command]}
        assert parsed == expected
        # == alone would let 60 stand in for 60.0.
        assert {key: type(value) for key, value in parsed.items()} == {
            key: type(value) for key, value in expected.items()
        }

    def test_base_defaults(self):
        assert dict(BASE_DEFAULTS) == PINNED_BASE_DEFAULTS
        assert {key: type(value) for key, value in BASE_DEFAULTS.items()} == {
            key: type(value) for key, value in PINNED_BASE_DEFAULTS.items()
        }


# --------------------------------------------------------------------------- #
# Every malformed input exits 2 before any work runs
# --------------------------------------------------------------------------- #
@pytest.fixture
def no_work(monkeypatch):
    """Make every expensive entry point fail the test if it is reached."""

    def reached(*args, **kwargs):
        raise AssertionError("a malformed input reached the expensive path")

    monkeypatch.setattr("repro.scenarios.runner.compiled_table", reached)
    monkeypatch.setattr("repro.scenarios.runner.workload", reached)
    monkeypatch.setattr("repro.scenarios.runner.run_sweep", reached)
    monkeypatch.setattr("repro.scenarios.runner.run_capacity", reached)


CLI_PROBES = [
    (["route", "--peak-qps", "nan"], "--peak-qps"),
    (["route", "--sla-ms", "nan"], "--sla-ms"),
    (["route", "--base-qps", "nan"], "--base-qps"),
    (["route", "--noise", "nan"], "--noise"),
    (["route", "--step-seconds", "nan"], "--step-seconds"),
    (["route", "--switch-penalty-ms", "nan"], "--switch-penalty-ms"),
    (["route", "--switch-cost-ms", "nan"], "--switch-cost-ms"),
    (["route", "--mode", "per-query", "--defer-windows", "nan"], "--defer-windows"),
    (["capacity", "--noise", "nan"], "--noise"),
    (["capacity", "--peak-qps", "nan"], "--peak-qps"),
    (["capacity", "--base-qps", "nan"], "--base-qps"),
    (["capacity", "--step-seconds", "nan"], "--step-seconds"),
    (["capacity", "--sla-ms", "nan", "--platforms", "cpu"], "--sla-ms"),
    (["run", "--jobs", "0"], "--jobs"),
    (["run", "--jobs", "-3"], "--jobs"),
    (["sweep", "--jobs", "0"], "--jobs"),
    (["run", "--seed", "-1"], "--seed"),
    (["capacity", "--budget-gb", "inf"], "--budget-gb"),
    (["capacity", "--budget-gb", "nan"], "--budget-gb"),
    (["capacity", "--embedding-scale", "nan"], "--embedding-scale"),
    # RMlarge tables past int64 rows (1e15) or past float range (1e300).
    (["capacity", "--embedding-scale", "1e15"], "--embedding-scale"),
    (["capacity", "--embedding-scale", "1e300"], "--embedding-scale"),
    (["capacity", "--users", "-5"], "--users"),
    (["capacity", "--users", "0"], "--users"),
    (["capacity", "--steps", "0"], "--steps"),
    (["route", "--steps", "-3", "--trace", "spike"], "--steps"),
    (["route", "--pool", "0"], "--pool"),
    (["sweep", "--pool", "0"], "--pool"),
    (["capacity", "--pool", "0"], "--pool"),
    (["sweep", "--seed", "-1"], "--seed"),
    (["route", "--seed", "-1"], "--seed"),
    (["route", "--quality-target", "nan"], "--quality-target"),
    (["route", "--qps-grid", "nan"], "--qps-grid"),
    (["capacity", "--platforms", "all"], "--platforms"),
    (["capacity", "--strategy", "diagonal"], "--strategy"),
    (["sweep", "--engine", "magic"], "--engine"),
    (["route", "--no-batching", "--max-batch", "8"], "--max-batch"),
    # 1e-9 s windows over a 300 s trace would be 3e11 window edges.
    (
        ["route", "--mode", "per-query", "--window-seconds", "1e-9", "--steps", "5"],
        "window_seconds",
    ),
]

SCENARIO_PROBES = [
    ({"peak_qps": math.nan}, "peak_qps"),
    ({"switch_cost_ms": math.nan}, "switch_cost_ms"),
    ({"batching": "yes"}, "batching"),
    ({"window": True}, "window"),
    ({"steps": "ten"}, "steps"),
    ({"peak_qps": "nan"}, "peak_qps"),
    ({"sla_ms": "x"}, "sla_ms"),
    ({"num_queries": 1.5}, "num_queries"),
    ({"seed": "zero"}, "seed"),
    ({"first_stage_items": 256}, "first_stage_items"),
    ({"pool": 0}, "pool"),
    ({"qps_grid": "100,200"}, "qps_grid"),
    ({"platforms": ["cpu"]}, "platforms"),
    ({"trace": [{"name": "ramp", "steps": 0}]}, "steps"),
    ({"mode": "per-query", "window_seconds": 1e-9, "steps": 5}, "window_seconds"),
    ({"nodes": "2xcpu", "embedding_scale": 1e15}, "embedding_scale"),
]


class TestMalformedInputExits2:
    @pytest.mark.parametrize("argv, named", CLI_PROBES, ids=[" ".join(a) for a, _ in CLI_PROBES])
    def test_cli_probe(self, argv, named, no_work, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("recpipe: error: ") and named in err, err

    @pytest.mark.parametrize("base, named", SCENARIO_PROBES, ids=str)
    def test_scenario_probe(self, base, named, no_work, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"scenario": {"name": "p"}, "base": base}), encoding="utf-8")
        assert cli.main(["run", "--scenario", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"recpipe: error: {path}: ") and named in err, err

    @pytest.mark.parametrize("pool", [1, 128, 256])
    def test_capacity_pool_must_exceed_the_later_stage(self, pool, no_work, tmp_path, capsys):
        """A pool the 256-item later stage cannot follow fails on the flag or key, not the plan."""
        bound = "must be >= 257, more than the 256 items the later stage ranks"
        assert cli.main(["capacity", "--pool", str(pool)]) == 2
        assert capsys.readouterr().err == f"recpipe: error: --pool {bound}, got {pool}\n"
        path = tmp_path / "capacity.json"
        scenario = {"scenario": {"name": "p", "kind": "capacity"}, "base": {"pool": pool}}
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert cli.main(["run", "--scenario", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == f"recpipe: error: {path}: pool {bound}, got {pool}\n"

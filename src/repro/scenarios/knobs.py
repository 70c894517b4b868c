"""One table of every ``recpipe`` flag and scenario key, declared, typed and checked once.

A :class:`Knob` is one tunable parameter of a serving, sweep or capacity
run: its scenario key, type, scenario default, range or vocabulary, help
text and CLI flag.  Everything reads :data:`KNOBS`: the ``run``/``sweep``/
``route``/``capacity`` parsers (:func:`add_flags`, :func:`from_args`), the
scenario defaults and the ``base``/axis/trace-item checks of
:mod:`repro.scenarios.config`, the manifest ``config`` records, and the
flag and key tables embedded in ``docs/`` (:func:`flag_table`,
:func:`key_table`, checked by ``tools/check_docs.py``).

:func:`coerce` types and range-checks one value, given as CLI text (errors
name the flag: ``--sla-ms must be positive and finite, got nan``) or as a
scenario value (errors name the key).  Float knobs must be finite; integer
knobs reject ``bool`` and non-integral numbers.  :data:`COMMANDS` lists the
knobs of each subcommand with the defaults that differ from the scenario
default; ``sweep`` and ``capacity`` read theirs from the
:class:`~repro.core.sweep.SweepConfig` and
:class:`~repro.experiments.capacity_planning.CapacityConfig` field
defaults, the policy knobs default to the router, frontend and
estimator dataclasses, and the arrival process to the first of
:data:`~repro.serving.frontend.ARRIVAL_PROCESSES`.  Rules tying several
knobs together stay with the commands and :mod:`repro.scenarios.config`;
the library constructors keep their own checks for library callers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from types import MappingProxyType, SimpleNamespace
from typing import Any, Mapping

from repro.cluster.fleet import STRATEGIES
from repro.core.sweep import PLATFORMS, SLA_MS, SweepConfig
from repro.data.criteo import ROUTING_CANDIDATES_PER_QUERY
from repro.experiments.capacity_planning import MIN_POOL, POOL_RULE, CapacityConfig
from repro.experiments.common import CRITEO_POOL, MOVIELENS_POOL
from repro.quality.funnel import SERVE_K_DEFAULT
from repro.serving.engine import ENGINES
from repro.serving.estimators import ESTIMATORS, EWMA, WindowedMean
from repro.serving.frontend import ARRIVAL_PROCESSES, StreamingFrontend
from repro.serving.router import MultiPathRouter
from repro.serving.service_times import SERVICE_MODELS
from repro.serving.trace import TRACES


class ScenarioError(ValueError):
    """Raised when a scenario file, scenario key or flag value is malformed."""


#: Datasets a run may target.
DATASETS = ("criteo", "movielens-1m", "movielens-20m")
#: Serving modes: one decision per trace step, or the per-query frontend.
MODES = ("per-step", "per-query")
#: Trace-shape keys a ``trace`` item may override for its own trace.
TRACE_SHAPE = ("steps", "step_seconds", "base_qps", "peak_qps", "noise")
#: Keys of a ``service_schedule`` table.
SCHEDULE_KEYS = ("start", "shift_items", "rewarm_steps")

_MIX_TERM_RE = re.compile(r"^(?:(\d+)x)?([a-z][a-z0-9-]*)$")


@dataclass(frozen=True)
class Range:
    """The numbers a knob takes: ``low < x`` (``strict``) or ``low <= x``, and ``x <= high``."""

    text: str
    low: float
    strict: bool = False
    high: float = math.inf

    def holds(self, value: float) -> bool:
        """Whether ``value`` lies in the range (NaN never does)."""
        above = value > self.low if self.strict else value >= self.low
        return above and value <= self.high


POSITIVE = Range("positive and finite", 0.0, strict=True)
NON_NEGATIVE = Range("non-negative and finite", 0.0)
FINITE = Range("finite", -math.inf)
UNIT = Range("in (0, 1]", 0.0, strict=True, high=1.0)
AT_LEAST_ONE = Range(">= 1", 1)
AT_LEAST_ZERO = Range(">= 0", 0)

# Knob types.  List types take comma-separated text on the CLI.  In a
# scenario a number list is a list, the platform set is "+"-joined, and a
# trace or estimator list is one item or a list of them.
INT, FLOAT, OPTIONAL_FLOAT, BOOL, CHOICE = "int", "float", "optional float", "bool", "choice"
FLOATS, INTS, PLATFORM_SET, PLATFORM_LIST = "floats", "ints", "platform set", "platform list"
TRACE_LIST, ESTIMATOR_LIST, NODE_MIX, SCHEDULE = "traces", "estimators", "node mix", "schedule"


@dataclass(frozen=True)
class Knob:
    """One flag or scenario key.

    ``name`` is the scenario key, the manifest ``config`` key and the parsed
    attribute; ``type`` one of the knob types; ``default`` the scenario
    default (per-command defaults live in :data:`COMMANDS`); ``check`` the
    :class:`Range` of every number or the vocabulary of names; ``help`` the
    text of ``--help`` and the docs.  ``flag`` defaults to the name spelled
    ``--like-this``; ``None`` keeps a key to scenario files, and a bool
    knob's flag turns it off.
    """

    name: str
    type: str
    default: Any
    check: Any
    help: str
    flag: str | None = ""

    def __post_init__(self) -> None:
        """Derive the default flag from the name."""
        if self.flag == "":
            object.__setattr__(self, "flag", "--" + self.name.replace("_", "-"))


def csv_items(text: str) -> list[str]:
    """The non-empty, stripped items of comma-separated text."""
    return [item.strip() for item in text.split(",") if item.strip()]


def listed(value: Any) -> tuple:
    """A scalar-or-list parameter (``trace``, ``estimator``) as a tuple."""
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def parse_mix(value: str) -> tuple[str, ...]:
    """Expand a node-mix string into one platform name per node.

    Parameters
    ----------
    value : str
        ``+``-joined terms, each ``PLATFORM`` or ``NxPLATFORM``
        (``"cpu+rpaccel"``, ``"2xcpu"``).

    Returns
    -------
    tuple of str
        One platform per node, in declaration order.

    Raises
    ------
    ScenarioError
        On an unparsable term or an unknown platform.
    """
    nodes: list[str] = []
    for term in str(value).split("+"):
        match = _MIX_TERM_RE.match(term.strip())
        if not match:
            raise ScenarioError(
                f"bad node-mix term {term!r} in {value!r}; expected PLATFORM or NxPLATFORM"
            )
        count, platform = match.groups()
        if platform not in PLATFORMS:
            raise ScenarioError(
                f"unknown platform {platform!r} in node mix {value!r}; "
                f"expected one of {sorted(PLATFORMS)}"
            )
        nodes.extend([platform] * (int(count) if count else 1))
    if not nodes:
        raise ScenarioError(f"node mix {value!r} declares no nodes")
    return tuple(nodes)


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #
#: Knobs a scenario ``base`` may set, in ``BASE_DEFAULTS`` order.  Their
#: defaults are deliberately smoke-sized.
SCENARIO_KNOBS = (
    Knob("dataset", CHOICE, "criteo", DATASETS, "workload to run"),
    Knob(
        "platforms",
        PLATFORM_SET,
        "cpu+gpu-cpu",
        PLATFORMS,
        "platforms whose (platform, pipeline) paths enter the table, or 'all'",
        "--platform",
    ),
    Knob(
        "qps_grid",
        FLOATS,
        (100.0, 250.0, 1000.0, 2500.0, 4000.0, 5500.0, 6000.0),
        POSITIVE,
        "swept loads backing the table's interpolated p99 curves",
    ),
    Knob("sla_ms", FLOAT, SLA_MS, POSITIVE, "tail-latency SLA in milliseconds"),
    Knob("quality_target", OPTIONAL_FLOAT, None, FINITE, "minimum NDCG of a routable path"),
    Knob("first_stage_items", INTS, (256,), AT_LEAST_ONE, "candidate pool sizes"),
    Knob("later_stage_items", INTS, (128,), AT_LEAST_ONE, "later-stage item grid"),
    Knob("max_stages", INT, 2, AT_LEAST_ONE, "maximum number of funnel stages"),
    Knob("serve_k", INT, SERVE_K_DEFAULT, AT_LEAST_ONE, "items the last stage must serve"),
    Knob("num_queries", INT, 300, AT_LEAST_ONE, "simulated queries per dwell cell"),
    Knob("pool", INT, 256, AT_LEAST_ONE, "candidates per ranking query"),
    Knob("trace", TRACE_LIST, "spike", tuple(TRACES), "diurnal, spike or ramp traces, or 'all'"),
    Knob("steps", INT, 40, AT_LEAST_ONE, "number of trace steps"),
    Knob("step_seconds", FLOAT, 60.0, POSITIVE, "width of one trace step"),
    Knob("base_qps", FLOAT, 150.0, POSITIVE, "trough load (diurnal base, spike base, ramp start)"),
    Knob("peak_qps", FLOAT, 5500.0, POSITIVE, "peak load (diurnal peak, spike plateau, ramp end)"),
    Knob("noise", FLOAT, 0.03, NON_NEGATIVE, "relative per-step load noise"),
    Knob(
        "estimator",
        ESTIMATOR_LIST,
        "windowed",
        tuple(ESTIMATORS),
        "online load estimator: windowed mean, EWMA, Holt level+trend or the auto selector",
    ),
    Knob(
        "window",
        INT,
        WindowedMean.window,
        AT_LEAST_ONE,
        "sliding-window length of the windowed-mean load estimator",
    ),
    Knob("ewma_alpha", FLOAT, EWMA.alpha, UNIT, "EWMA smoothing factor, whatever the estimator"),
    Knob(
        "hysteresis",
        INT,
        MultiPathRouter.hysteresis_steps,
        AT_LEAST_ONE,
        "consecutive identical proposals required before switching",
    ),
    Knob(
        "switch_penalty_ms",
        FLOAT,
        MultiPathRouter.switch_penalty_seconds * 1e3,
        NON_NEGATIVE,
        "warm-up latency charged to every query of a switch step",
    ),
    Knob(
        "switch_cost_ms",
        FLOAT,
        MultiPathRouter.switch_cost_seconds * 1e3,
        NON_NEGATIVE,
        "predicted p99 gain (ms, over the expected dwell) a shedding switch must repay; "
        "0 disables the gate",
    ),
    Knob(
        "planning_qps",
        OPTIONAL_FLOAT,
        None,
        POSITIVE,
        "provision the static baseline for this load (unset: the trace median)",
    ),
    Knob(
        "service_model",
        CHOICE,
        "deterministic",
        tuple(SERVICE_MODELS),
        "per-query service times: all equal, or Zipf lookups against the tiered cache",
    ),
    Knob(
        "service_schedule",
        SCHEDULE,
        None,
        AT_LEAST_ZERO,
        "cache-state switch of the cached model: {start, shift_items, rewarm_steps}",
        None,
    ),
    Knob(
        "mode",
        CHOICE,
        "per-step",
        MODES,
        "one decision per dwell step, or the per-query frontend with admission and batching",
    ),
    Knob(
        "window_seconds",
        OPTIONAL_FLOAT,
        StreamingFrontend.window_seconds,
        POSITIVE,
        "per-query decision-window width (unset: the trace's step width)",
    ),
    Knob(
        "max_batch",
        INT,
        StreamingFrontend.max_batch,
        AT_LEAST_ONE,
        "upper clamp on the per-query frontend's dynamic batch size",
    ),
    Knob(
        "batching",
        BOOL,
        StreamingFrontend.batching,
        None,
        "pin every per-query batch to size 1",
        "--no-batching",
    ),
    Knob(
        "defer_windows",
        FLOAT,
        StreamingFrontend.defer_windows,
        NON_NEGATIVE,
        "defer-queue capacity in windows of admission cap; 0 disables deferral",
    ),
    Knob(
        "arrival_process",
        CHOICE,
        ARRIVAL_PROCESSES[0],
        ARRIVAL_PROCESSES,
        "per-query arrivals: per-step Poisson, or evenly paced",
    ),
    Knob("nodes", NODE_MIX, "1", PLATFORMS, "'1' or a node mix such as 2xcpu+rpaccel", None),
    Knob(
        "budget_gb",
        FLOAT,
        CapacityConfig.budget_gb,
        POSITIVE,
        "per-node embedding memory budget in GiB",
    ),
    Knob(
        "num_tables",
        INT,
        CapacityConfig.num_tables,
        AT_LEAST_ONE,
        "logical embedding tables to shard",
    ),
    Knob(
        "embedding_scale",
        FLOAT,
        CapacityConfig.embedding_scale,
        POSITIVE,
        "embedding-tier scale-up over RMlarge's reference storage",
    ),
    Knob("seed", INT, 0, AT_LEAST_ZERO, "simulation + trace seed"),
)

#: Every knob by name: the scenario keys plus the CLI-only flags.
KNOBS: Mapping[str, Knob] = MappingProxyType(
    {
        knob.name: knob
        for knob in (
            *SCENARIO_KNOBS,
            Knob("qps", FLOATS, SweepConfig.qps, POSITIVE, "offered loads, e.g. 250,500,1000"),
            Knob("jobs", INT, 1, AT_LEAST_ONE, "run in N parallel processes"),
            Knob(
                "engine",
                CHOICE,
                SweepConfig.engine,
                ENGINES,
                "simulation engine: closed-form analytic, or the discrete-event reference",
            ),
            Knob(
                "max_nodes",
                INT,
                CapacityConfig.max_nodes,
                AT_LEAST_ONE,
                "largest platform multiset the planner considers",
            ),
            Knob(
                "users",
                INT,
                CapacityConfig.users,
                AT_LEAST_ONE,
                "served user base; the diurnal peak derives from it",
            ),
            Knob(
                "strategy",
                CHOICE,
                CapacityConfig.strategy,
                STRATEGIES,
                "embedding sharding: greedy bin-packing or row-wise hash",
            ),
        )
    }
)


def _command(names: str, source: type | None = None, **changes: dict) -> tuple[Knob, ...]:
    """The knobs ``names`` (space-separated) as one subcommand takes them.

    A knob defaults to ``source``'s field default where that dataclass has
    the field; ``changes`` maps a knob name to other per-command fields.
    """
    knobs = []
    for name in names.split():
        fields = dict(changes.get(name, {}))
        if source is not None and name in source.__dataclass_fields__:
            fields.setdefault("default", getattr(source, name))
        knobs.append(replace(KNOBS[name], **fields))
    return tuple(knobs)


#: The knobs of each ``recpipe`` subcommand, in flag order.
COMMANDS: Mapping[str, tuple[Knob, ...]] = MappingProxyType(
    {
        "run": _command(
            "jobs seed",
            jobs={"help": "run experiments in N parallel processes"},
            seed={"default": None, "help": "seed forwarded to harnesses that take one"},
        ),
        "sweep": _command(
            "dataset platforms qps sla_ms quality_target first_stage_items later_stage_items "
            "max_stages serve_k num_queries pool jobs engine seed",
            SweepConfig,
            platforms={"help": "platforms to compare, or 'all'; the first is the speedup baseline"},
            quality_target={"help": "also report the fastest configuration at this NDCG or better"},
            num_queries={"help": "simulated queries per load point"},
            pool={
                "default": None,
                "help": f"candidates per ranking query (unset: {CRITEO_POOL} criteo, "
                f"{MOVIELENS_POOL} movielens)",
            },
            jobs={"help": "evaluate (platform, pipeline) columns in N parallel processes"},
        ),
        "route": _command(
            "dataset platforms qps_grid sla_ms quality_target first_stage_items "
            "later_stage_items max_stages serve_k num_queries pool trace steps step_seconds "
            "base_qps peak_qps noise estimator window ewma_alpha hysteresis switch_penalty_ms "
            "switch_cost_ms planning_qps service_model mode window_seconds max_batch batching "
            "defer_windows arrival_process seed",
            first_stage_items={"default": (ROUTING_CANDIDATES_PER_QUERY,)},
            later_stage_items={"default": (128, 256)},
            num_queries={"default": 800},
            pool={
                "default": None,
                "help": f"candidates per ranking query (unset: {ROUTING_CANDIDATES_PER_QUERY} "
                f"criteo, {MOVIELENS_POOL} movielens)",
            },
            trace={"default": "all"},
            steps={"default": 120},
            switch_penalty_ms={"default": 5.0},
            # Unset, so the --no-batching conflict can tell an explicit value.
            max_batch={
                "default": None,
                "help": f"per-query batch size clamp (unset: {StreamingFrontend.max_batch}); "
                "conflicts with --no-batching",
            },
        ),
        "capacity": _command(
            "platforms max_nodes users peak_qps base_qps steps step_seconds noise sla_ms "
            "strategy embedding_scale budget_gb num_tables num_queries pool seed",
            CapacityConfig,
            platforms={
                "type": PLATFORM_LIST,
                "flag": "--platforms",
                "help": "platforms a node may run",
            },
            peak_qps={"type": OPTIONAL_FLOAT, "help": "diurnal peak (unset: from --users)"},
            base_qps={"type": OPTIONAL_FLOAT, "help": "diurnal trough (unset: a tenth of peak)"},
            pool={"check": Range(POOL_RULE, MIN_POOL)},
        ),
    }
)


# --------------------------------------------------------------------------- #
# Typing and checking
# --------------------------------------------------------------------------- #
def _number(value: Any, label: str, check: Range) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{label} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not (math.isfinite(number) and check.holds(number)):
        raise ScenarioError(f"{label} must be {check.text}, got {number}")
    return number


def _integer(value: Any, label: str, check: Range) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{label} must be an integer, got {value!r}")
    if not check.holds(value):
        raise ScenarioError(f"{label} must be {check.text}, got {value}")
    return value


def _choice(value: Any, label: str, vocabulary: tuple) -> Any:
    if not isinstance(value, str) or value not in vocabulary:
        raise ScenarioError(f"unknown {label} {value!r}; expected one of {sorted(vocabulary)}")
    return value


def _numbers(knob: Knob, value: Any, label: str) -> tuple:
    item = _integer if knob.type == INTS else _number
    if not isinstance(value, (list, tuple)) or not value:
        noun = "integers" if knob.type == INTS else "numbers"
        raise ScenarioError(f"{label} must be a non-empty list of {noun}, got {value!r}")
    return tuple(item(element, label, knob.check) for element in value)


def _platforms(knob: Knob, value: Any, label: str) -> Any:
    names = value.split("+") if isinstance(value, str) else value
    unknown = [name for name in names if name not in knob.check]
    if unknown:
        raise ScenarioError(
            f"{label} names unknown platforms {unknown}; expected a subset of {list(knob.check)}"
        )
    return value


def _traces(knob: Knob, value: Any, label: str) -> Any:
    if not listed(value):
        raise ScenarioError(f"{label} must name at least one trace")
    for item in listed(value):
        spec = item if isinstance(item, Mapping) else {"name": item}
        name = spec.get("name")
        if not isinstance(name, str) or name not in knob.check:
            raise ScenarioError(f"unknown {label} {name!r}; expected one of {sorted(knob.check)}")
        unknown = sorted(set(spec) - {"name", *TRACE_SHAPE})
        if unknown:
            raise ScenarioError(
                f"unknown trace override keys {unknown} in {dict(spec)}; "
                f"expected a subset of {list(TRACE_SHAPE)}"
            )
        for key in TRACE_SHAPE:
            if key in spec:
                shape = KNOBS[key]
                _CHECKS[shape.type](shape, spec[key], f"{label} {name!r} {key}")
    return value


def _estimators(knob: Knob, value: Any, label: str) -> Any:
    if not listed(value):
        raise ScenarioError(f"{label} must name at least one estimator")
    for item in listed(value):
        _choice(item, label, knob.check)
    return value


def _node_mix(knob: Knob, value: Any, label: str) -> Any:
    if not isinstance(value, str):
        raise ScenarioError(f"{label} must be '1' or a node-mix string, got {value!r}")
    if value != "1":
        try:
            parse_mix(value)
        except ScenarioError as error:
            raise ScenarioError(f"{label}: {error}") from None
    return value


def _schedule(knob: Knob, value: Any, label: str) -> Any:
    if value is None:
        return None
    if not isinstance(value, Mapping) or set(value) != set(SCHEDULE_KEYS):
        raise ScenarioError(
            f"{label} must be null or a table with keys {list(SCHEDULE_KEYS)}, got {value!r}"
        )
    for key in SCHEDULE_KEYS:
        _integer(value[key], f"{label}.{key}", knob.check)
    return value


def _optional_number(knob: Knob, value: Any, label: str) -> float | None:
    return None if value is None else _number(value, label, knob.check)


def _bool(knob: Knob, value: Any, label: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{label} must be true or false, got {value!r}")
    return value


#: Type -> check of a typed value, returning it (numbers as ``int``/``float``).
_CHECKS = {
    INT: lambda knob, value, label: _integer(value, label, knob.check),
    FLOAT: lambda knob, value, label: _number(value, label, knob.check),
    OPTIONAL_FLOAT: _optional_number,
    BOOL: _bool,
    CHOICE: lambda knob, value, label: _choice(value, label, knob.check),
    FLOATS: _numbers,
    INTS: _numbers,
    PLATFORM_SET: _platforms,
    PLATFORM_LIST: _platforms,
    TRACE_LIST: _traces,
    ESTIMATOR_LIST: _estimators,
    NODE_MIX: _node_mix,
    SCHEDULE: _schedule,
}


def _parse(knob: Knob, text: str, label: str) -> Any:
    """CLI text as the typed value its check takes (choices stay text)."""
    if knob.type in (INT, FLOAT, OPTIONAL_FLOAT):
        convert, noun = (int, "an integer") if knob.type == INT else (float, "a number")
        try:
            return convert(text)
        except ValueError:
            raise ScenarioError(f"{label} expects {noun}, got {text!r}") from None
    items = csv_items(text)
    if not items:
        raise ScenarioError(f"{label} needs at least one value")
    if knob.type in (FLOATS, INTS):
        convert, noun = (int, "integers") if knob.type == INTS else (float, "numbers")
        try:
            return tuple(convert(item) for item in items)
        except ValueError:
            raise ScenarioError(f"{label} expects comma-separated {noun}, got {text!r}") from None
    # A lone `all` names every platform or trace; capacity's node platforms take no `all`.
    if knob.type != PLATFORM_LIST and len(items) == 1 and items[0].lower() == "all":
        return tuple(knob.check)
    return tuple(items)


def coerce(knob: Knob, value: Any, cli: bool = False) -> Any:
    """Type and range-check one knob value.

    With ``cli`` the value is CLI text or a command default, and errors
    name the flag; otherwise it is a scenario value, and errors name the
    key.  Returns the typed value (numbers as ``int``/``float``, number
    lists and CLI name lists as tuples).  Raises :class:`ScenarioError`
    on a wrong type, a non-finite number, or a value outside the knob's
    range or vocabulary.
    """
    label = knob.flag if cli else knob.name
    if cli and isinstance(value, str) and knob.type not in (CHOICE, ESTIMATOR_LIST):
        value = _parse(knob, value, label)
    elif not cli and knob.type == PLATFORM_SET and not isinstance(value, str):
        raise ScenarioError(f"{label} must be a '+'-joined string of platforms, got {value!r}")
    return _CHECKS[knob.type](knob, value, label)


# --------------------------------------------------------------------------- #
# The command line
# --------------------------------------------------------------------------- #
def _dest(knob: Knob) -> str:
    return knob.flag.removeprefix("--").replace("-", "_")


def cli_default(knob: Knob) -> Any:
    """A knob's default in its CLI spelling (lists as comma-separated text)."""
    value = knob.default
    if isinstance(value, tuple):  # 500.0 spells "500", as typed
        return ",".join(str(x).removesuffix(".0") if type(x) is float else str(x) for x in value)
    if knob.type == PLATFORM_SET and isinstance(value, str):
        return value.replace("+", ",")
    return value


def add_flags(parser, command: str) -> None:
    """Add the knob flags of ``command`` to an argparse parser.

    Values stay raw text (or the default); :func:`from_args` types and
    checks them, so every malformed value fails through the same path.
    """
    for knob in COMMANDS[command]:
        if knob.type == BOOL:
            parser.add_argument(knob.flag, action="store_true", help=knob.help)
        else:
            named = knob.type in (CHOICE, ESTIMATOR_LIST)
            choices = "{" + ",".join(knob.check) + "}" if named else None
            parser.add_argument(
                knob.flag, default=cli_default(knob), metavar=choices, help=knob.help
            )


def from_args(command: str, args) -> SimpleNamespace:
    """Every knob of ``command``, typed and checked from parsed arguments.

    One attribute per knob name.  A knob whose command default is ``None``
    stays ``None`` unless given, for the command to resolve.  Raises
    :class:`ScenarioError` naming the flag of the first malformed value.
    """
    values = {}
    for knob in COMMANDS[command]:
        raw = getattr(args, _dest(knob))
        if knob.type == BOOL:
            raw = not raw  # the flag turns the knob off
        values[knob.name] = None if raw is None else coerce(knob, raw, cli=True)
    return SimpleNamespace(**values)


# --------------------------------------------------------------------------- #
# Docs tables (embedded in docs/cli.md and docs/experiments.md)
# --------------------------------------------------------------------------- #
def _rule(knob: Knob, cli: bool) -> str:
    """What a value must look like, in words."""
    check = knob.check
    if knob.type in (INT, FLOAT, OPTIONAL_FLOAT, FLOATS, INTS):
        noun = {INT: "integer", INTS: "integers, each", FLOATS: "numbers, each"}
        rule = f"{noun.get(knob.type, 'number,')} {check.text}"
        if knob.type == OPTIONAL_FLOAT:
            rule += ", or unset" if cli else ", or `null`"
        return rule
    if knob.type in (CHOICE, ESTIMATOR_LIST):
        names = "one of " + ", ".join(f"`{name}`" for name in check)
        return names + (", or a list of them" if knob.type == ESTIMATOR_LIST and not cli else "")
    return {
        BOOL: "flag" if cli else "`true` or `false`",
        PLATFORM_SET: "platforms, or `all`" if cli else "`+`-joined platforms",
        PLATFORM_LIST: "platforms",
        TRACE_LIST: "trace names, or `all`" if cli else "trace name or table, or a list of them",
        NODE_MIX: '`"1"` or a node mix',
        SCHEDULE: "`null` or a table of integers >= 0",
    }[knob.type]


def _doc_default(knob: Knob, cli: bool) -> str:
    """A default as the docs show it: CLI text for a flag, JSON for a key."""
    if not cli:
        return f"`{json.dumps(knob.default)}`"
    if knob.default is None:
        return "unset"
    return "off" if knob.type == BOOL else f"`{cli_default(knob)}`"


def flag_table(command: str) -> str:
    """The markdown table of ``command``'s knob flags (``docs/cli.md``)."""
    lines = ["| Flag | Default | Value | Meaning |", "| --- | --- | --- | --- |"]
    for knob in COMMANDS[command]:
        default, rule = _doc_default(knob, cli=True), _rule(knob, cli=True)
        lines.append(f"| `{knob.flag}` | {default} | {rule} | {knob.help} |")
    return "\n".join(lines)


def key_table() -> str:
    """The markdown table of every scenario key (``docs/experiments.md``).

    The flag column names each command taking the knob, with its default
    there when that differs from the scenario default.
    """
    lines = ["| key | default | value | flag |", "| --- | --- | --- | --- |"]
    for knob in SCENARIO_KNOBS:
        uses: dict[str, list[str]] = {}
        for command, knobs in COMMANDS.items():
            for used in knobs:
                if used.name == knob.name:
                    same = cli_default(used) == cli_default(knob)
                    detail = "" if same else " " + _doc_default(used, cli=True)
                    uses.setdefault(used.flag, []).append(command + detail)
        flags = "; ".join(f"`{flag}` ({', '.join(commands)})" for flag, commands in uses.items())
        default, rule = _doc_default(knob, cli=False), _rule(knob, cli=False)
        lines.append(f"| `{knob.name}` | {default} | {rule} | {flags or '—'} |")
    return "\n".join(lines)

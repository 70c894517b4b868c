"""Scenario configs: a declarative grid of serving runs (TOML or JSON).

A scenario file has three parts::

    {
      "scenario": {"name": "routergrid", "title": "...", "tags": ["..."]},
      "base":     {"num_queries": 300, "pool": 256, ...},
      "axes":     {"trace": ["spike", "diurnal"], "estimator": ["windowed", "holt"]}
    }

``base`` overrides :data:`BASE_DEFAULTS`; ``axes`` declares the swept
dimensions (a subset of :data:`AXES`), and the cartesian product of their
values becomes the scenario's *cells*.  Every cell is one runnable
experiment: :meth:`ScenarioConfig.expand` resolves each axis assignment
over the base parameters and derives a stable cell id
(``<name>-<axis-value>-...``, axes in canonical order), which
:mod:`repro.scenarios.runner` registers as a tagged
:class:`~repro.experiments.registry.ExperimentSpec`.  A scenario without
``axes`` is a single cell whose id is the scenario name.

``trace`` and ``estimator`` may also be lists: every listed value runs
inside the same cell.  A ``trace`` item may be a table such as
``{"name": "diurnal", "steps": 96, "peak_qps": 5000.0}``, whose keys
(:data:`TRACE_SHAPE`) override the cell's shared trace shape for that trace
alone.  ``service_schedule`` (``null`` or ``{start, shift_items,
rewarm_steps}``) switches the cached service model's cache state from step
``start`` on: the Zipf head rotates by ``shift_items`` rows and, when
``rewarm_steps`` is positive, the cache restarts cold and re-warms linearly
over that many steps.

TOML files need :mod:`tomllib` (Python 3.11+); JSON always works, which
is why the packaged builtin scenario and the CI smoke config are JSON.
Axis values are validated eagerly against the serving vocabularies
(:data:`~repro.serving.trace.TRACES`,
:data:`~repro.serving.estimators.ESTIMATORS`,
:data:`~repro.serving.service_times.SERVICE_MODELS`, the sweepable
platforms) so a typo fails at load time, not minutes into a run.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

from repro.core.sweep import PLATFORMS
from repro.serving.estimators import ESTIMATORS, EWMA
from repro.serving.frontend import ARRIVAL_PROCESSES, StreamingFrontend
from repro.serving.router import MultiPathRouter
from repro.serving.service_times import SERVICE_MODELS
from repro.serving.trace import TRACES


class ScenarioError(ValueError):
    """Raised when a scenario file or mapping is malformed."""


#: The swept dimensions a scenario grid may declare, in canonical cell-id
#: order.  ``trace``/``estimator``/``service_model`` select serving policy
#: inputs; ``platforms`` is a ``+``-joined platform set entering the path
#: table; ``nodes`` is a cluster mix (``"1"`` for single-node, else a
#: ``+``-joined or ``NxPLATFORM`` node-platform multiset).
AXES = ("trace", "estimator", "service_model", "platforms", "nodes")

#: Datasets a scenario may target (mirrors ``recpipe sweep --dataset``).
DATASETS = ("criteo", "movielens-1m", "movielens-20m")

#: Serving modes: one decision per trace step (the step router) or the
#: per-query streaming frontend.
MODES = ("per-step", "per-query")

#: Trace-shape parameters a ``trace`` item may override for its own trace.
TRACE_SHAPE = ("steps", "step_seconds", "base_qps", "peak_qps", "noise")

#: Keys of a ``service_schedule`` table.
SCHEDULE_KEYS = ("start", "shift_items", "rewarm_steps")

#: Fully-resolved defaults every cell starts from.  Deliberately
#: smoke-sized (small pool, short trace) so a scenario is cheap unless it
#: asks for more; the keys double as the set of legal ``base`` overrides.
#: Policy knobs mirror the ``recpipe route`` flags of the same name and
#: default to the router, frontend and estimator dataclasses.
BASE_DEFAULTS: Mapping[str, Any] = MappingProxyType(
    {
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
        "window": MultiPathRouter.window,
        "ewma_alpha": EWMA.alpha,
        "hysteresis": MultiPathRouter.hysteresis_steps,
        "switch_penalty_ms": MultiPathRouter.switch_penalty_seconds * 1e3,
        "switch_cost_ms": MultiPathRouter.switch_cost_seconds * 1e3,
        "planning_qps": None,
        "service_model": "deterministic",
        "service_schedule": None,
        "mode": "per-step",
        "window_seconds": StreamingFrontend.window_seconds,
        "max_batch": StreamingFrontend.max_batch,
        "batching": StreamingFrontend.batching,
        "defer_windows": StreamingFrontend.defer_windows,
        "arrival_process": StreamingFrontend.arrival_process,
        "nodes": "1",
        "budget_gb": 32.0,
        "num_tables": 26,
        "embedding_scale": 3.0,
        "seed": 0,
    }
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")
_MIX_TERM_RE = re.compile(r"^(?:(\d+)x)?([a-z][a-z0-9-]*)$")


def _slug(value: Any) -> str:
    """A cell-id fragment: lowercase alphanumerics with ``-`` separators.

    Parameters
    ----------
    value : Any
        One axis value (``"gpu-cpu"``, ``"cpu+gpu-cpu"``, ``"2xcpu"``).

    Returns
    -------
    str
        The value with every non-alphanumeric run collapsed to ``-``.
    """
    return re.sub(r"[^a-z0-9]+", "-", str(value).lower()).strip("-")


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


def listed(value: Any) -> tuple:
    """A scalar-or-list parameter (``trace``, ``estimator``) as a tuple."""
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _validate_axis(axis: str, value: Any) -> Any:
    """Check one axis value against its vocabulary and normalize it.

    Parameters
    ----------
    axis : str
        One of :data:`AXES`.
    value : Any
        The declared value (a ``trace`` value may be a table of
        :data:`TRACE_SHAPE` overrides with a ``name``).

    Returns
    -------
    Any
        The normalized value (strings throughout).

    Raises
    ------
    ScenarioError
        When the value is outside the axis vocabulary.
    """
    if axis == "trace":
        item = value if isinstance(value, Mapping) else {"name": value}
        if not isinstance(item.get("name"), str) or item["name"] not in TRACES:
            raise ScenarioError(
                f"unknown trace {item.get('name')!r}; expected one of {sorted(TRACES)}"
            )
        unknown = sorted(set(item) - {"name", *TRACE_SHAPE})
        if unknown:
            raise ScenarioError(
                f"unknown trace override keys {unknown} in {dict(item)}; "
                f"expected a subset of {list(TRACE_SHAPE)}"
            )
    elif axis == "estimator":
        if value not in ESTIMATORS:
            raise ScenarioError(
                f"unknown estimator {value!r}; expected one of {sorted(ESTIMATORS)}"
            )
    elif axis == "service_model":
        if value not in SERVICE_MODELS:
            raise ScenarioError(
                f"unknown service model {value!r}; expected one of {sorted(SERVICE_MODELS)}"
            )
    elif axis == "platforms":
        for platform in str(value).split("+"):
            if platform not in PLATFORMS:
                raise ScenarioError(
                    f"unknown platform {platform!r} in {value!r}; "
                    f"expected '+'-joined names from {sorted(PLATFORMS)}"
                )
    elif axis == "nodes":
        if str(value) != "1":
            parse_mix(str(value))
        value = str(value)
    return value


def _validate_schedule(params: Mapping[str, Any]) -> None:
    """Reject a ``service_schedule`` the runner cannot honour for these params.

    Parameters
    ----------
    params : Mapping
        One cell's resolved parameters.

    Raises
    ------
    ScenarioError
        When the schedule is malformed, or set on a cell that is not a
        single-node, per-step cell under the cached service model.
    """
    schedule = params["service_schedule"]
    if schedule is None:
        return
    if not isinstance(schedule, Mapping) or set(schedule) != set(SCHEDULE_KEYS):
        raise ScenarioError(
            f"service_schedule must be null or a table with keys {list(SCHEDULE_KEYS)}, "
            f"got {schedule!r}"
        )
    if params["service_model"] != "cached":
        raise ScenarioError("service_schedule shifts the cache; it needs service_model cached")
    if params["mode"] != "per-step":
        raise ScenarioError("service_schedule needs mode per-step; the frontend takes no schedule")
    if params["nodes"] != "1":
        raise ScenarioError("service_schedule needs nodes '1'; cluster tables take no schedule")


@dataclass(frozen=True)
class ScenarioCell:
    """One expanded grid point of a scenario.

    Parameters
    ----------
    scenario : str
        The owning scenario's name.
    index : int
        Position in expansion order (stable across processes).
    axes : Mapping[str, Any]
        This cell's axis assignment (swept keys only).
    params : Mapping[str, Any]
        The fully-resolved parameter set: defaults, then the scenario's
        ``base``, then ``axes``.
    """

    scenario: str
    index: int
    axes: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def id(self) -> str:
        """The registry id: scenario name plus slugged axis values."""
        parts = [self.scenario]
        parts.extend(_slug(self.axes[axis]) for axis in AXES if axis in self.axes)
        return "-".join(parts)

    @property
    def label(self) -> str:
        """A human-readable ``axis=value`` summary of the assignment."""
        return ", ".join(f"{axis}={self.axes[axis]}" for axis in AXES if axis in self.axes)


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: identity, base parameters, and grid axes.

    Parameters
    ----------
    name : str
        Scenario name (lowercase slug); prefixes every cell id.
    title : str
        Human-readable title; cell titles append their axis assignment.
    paper_ref : str
        Provenance string shown by ``recpipe list``.
    tags : tuple of str
        Extra registry tags; every cell also carries ``scenario`` and
        ``scenario:<name>``.
    base : Mapping[str, Any]
        Overrides applied to :data:`BASE_DEFAULTS`.
    axes : Mapping[str, tuple]
        Swept dimensions, each a non-empty value list; none at all makes
        the scenario one cell.
    """

    name: str
    title: str = ""
    paper_ref: str = "Scenario suite (MP-Rec-style serving families)"
    tags: tuple[str, ...] = ()
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate the name, base keys and every axis value eagerly."""
        if not _NAME_RE.match(self.name):
            raise ScenarioError(
                f"scenario name {self.name!r} must be a lowercase slug ([a-z][a-z0-9-]*)"
            )
        unknown = sorted(set(self.base) - set(BASE_DEFAULTS))
        if unknown:
            raise ScenarioError(
                f"unknown base parameters {unknown}; expected a subset of "
                f"{sorted(BASE_DEFAULTS)}"
            )
        if self.base.get("dataset", BASE_DEFAULTS["dataset"]) not in DATASETS:
            raise ScenarioError(
                f"unknown dataset {self.base['dataset']!r}; expected one of {sorted(DATASETS)}"
            )
        bad_axes = sorted(set(self.axes) - set(AXES))
        if bad_axes:
            raise ScenarioError(f"unknown axes {bad_axes}; supported axes: {list(AXES)}")
        for axis, values in self.axes.items():
            if not values:
                raise ScenarioError(f"axis {axis!r} has no values")
            if len(set(map(str, values))) != len(values):
                raise ScenarioError(f"axis {axis!r} repeats a value: {list(values)}")
            for value in values:
                _validate_axis(axis, value)
        for axis in ("trace", "estimator"):
            for value in listed(self.base.get(axis, ())):
                _validate_axis(axis, value)
        for axis in ("service_model", "platforms", "nodes"):
            if axis in self.base:
                _validate_axis(axis, self.base[axis])
        for key, vocabulary in (("mode", MODES), ("arrival_process", ARRIVAL_PROCESSES)):
            if self.base.get(key, BASE_DEFAULTS[key]) not in vocabulary:
                raise ScenarioError(
                    f"unknown {key} {self.base[key]!r}; expected one of {list(vocabulary)}"
                )
        for cell in self.expand():
            _validate_schedule(cell.params)

    def expand(self) -> list[ScenarioCell]:
        """The cartesian product of the axes as resolved cells.

        Returns
        -------
        list of ScenarioCell
            One cell per grid point, in axis declaration order
            (:data:`AXES` order, last axis fastest); a scenario without
            axes yields one cell.
        """
        ordered = [axis for axis in AXES if axis in self.axes]
        cells = []
        for index, combo in enumerate(
            itertools.product(*(self.axes[axis] for axis in ordered))
        ):
            assignment = dict(zip(ordered, combo))
            params = {**BASE_DEFAULTS, **self.base, **assignment}
            cells.append(
                ScenarioCell(
                    scenario=self.name, index=index, axes=assignment, params=params
                )
            )
        return cells


def scenario_from_mapping(data: Mapping, source: str = "<mapping>") -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from a parsed config mapping.

    Parameters
    ----------
    data : Mapping
        The parsed file: ``scenario`` (name/title/paper_ref/tags),
        ``base`` (optional) and ``axes`` tables.
    source : str
        Where the mapping came from, for error messages.

    Returns
    -------
    ScenarioConfig
        The validated scenario.

    Raises
    ------
    ScenarioError
        On missing/unknown sections or invalid values.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{source}: a scenario config must be a table/object")
    unknown = sorted(set(data) - {"scenario", "base", "axes"})
    if unknown:
        raise ScenarioError(
            f"{source}: unknown top-level sections {unknown}; "
            "expected 'scenario', 'base', 'axes'"
        )
    header = data.get("scenario")
    if not isinstance(header, Mapping) or "name" not in header:
        raise ScenarioError(f"{source}: missing [scenario] section with a 'name'")
    axes = data.get("axes") or {}
    if not isinstance(axes, Mapping):
        raise ScenarioError(f"{source}: [axes] must map axis names to value lists")
    normalized_axes = {}
    for axis, values in axes.items():
        if isinstance(values, (str, int, float)):
            values = [values]
        normalized_axes[str(axis)] = tuple(values)
    base = data.get("base") or {}
    if not isinstance(base, Mapping):
        raise ScenarioError(f"{source}: [base] must be a table of parameter overrides")
    normalized_base = {
        key: tuple(value) if isinstance(value, list) else value for key, value in base.items()
    }
    try:
        return ScenarioConfig(
            name=str(header["name"]),
            title=str(header.get("title", "")),
            paper_ref=str(header.get("paper_ref", ScenarioConfig.paper_ref)),
            tags=tuple(str(tag) for tag in header.get("tags", ())),
            base=normalized_base,
            axes=normalized_axes,
        )
    except ScenarioError as error:
        raise ScenarioError(f"{source}: {error}") from None


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario file (``.json`` or ``.toml``).

    Parameters
    ----------
    path : str or Path
        The config file.  JSON parses everywhere; TOML needs
        :mod:`tomllib` (Python 3.11+).

    Returns
    -------
    ScenarioConfig
        The validated scenario.

    Raises
    ------
    ScenarioError
        On an unknown suffix, a parse error, missing TOML support, or
        invalid contents.
    FileNotFoundError
        When the file does not exist.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"{path}: invalid JSON: {error}") from None
    elif path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # Python 3.10: no stdlib TOML parser
            raise ScenarioError(
                f"{path}: TOML scenarios need Python 3.11+ (tomllib); "
                "convert the file to JSON to run it here"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ScenarioError(f"{path}: invalid TOML: {error}") from None
    else:
        raise ScenarioError(
            f"{path}: unsupported scenario suffix {path.suffix!r}; expected .json or .toml"
        )
    return scenario_from_mapping(data, source=str(path))

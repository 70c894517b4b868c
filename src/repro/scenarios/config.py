"""Scenario configs: a declarative grid of serving, sweep or capacity runs (TOML or JSON).

A scenario file has three parts::

    {
      "scenario": {"name": "routergrid", "title": "...", "tags": ["..."]},
      "base":     {"num_queries": 300, "pool": 256, ...},
      "axes":     {"trace": ["spike", "diurnal"], "estimator": ["windowed", "holt"]}
    }

The header's ``kind`` says what a cell runs: a serving
experiment (``serving``, the default), a design-space sweep (``sweep``) or
a capacity plan (``capacity``).  A serving ``base`` overrides
:data:`BASE_DEFAULTS`; a sweep or capacity ``base`` takes exactly the knobs
of ``recpipe sweep`` or ``recpipe capacity``, with those commands'
defaults.  Only serving scenarios take ``axes``: the swept dimensions (a
subset of :data:`AXES`), whose cartesian product becomes the scenario's
*cells*.  Every cell is one runnable
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
Every ``base`` value, axis value and trace-item override is typed and
range-checked at load time against its :mod:`repro.scenarios.knobs` record
(vocabularies included), so a typo fails at load time, not minutes into a
run.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

from repro.cluster.fleet import fleet_tables
from repro.scenarios.knobs import (
    COMMANDS,
    ESTIMATOR_LIST,
    KNOBS,
    SCENARIO_KNOBS,
    TRACE_LIST,
    ScenarioError,
    coerce,
    listed,
)

#: The swept dimensions a scenario grid may declare, in canonical cell-id
#: order.  ``trace``/``estimator``/``service_model`` select serving policy
#: inputs; ``platforms`` is a ``+``-joined platform set entering the path
#: table; ``nodes`` is a cluster mix (``"1"`` for single-node, else a
#: ``+``-joined or ``NxPLATFORM`` node-platform multiset).
AXES = ("trace", "estimator", "service_model", "platforms", "nodes")

#: The knobs each scenario kind takes (``serving`` is the default kind): a
#: serving cell the scenario keys, a sweep or capacity cell its command's flags.
KIND_KNOBS = {
    "serving": SCENARIO_KNOBS,
    "sweep": COMMANDS["sweep"],
    "capacity": COMMANDS["capacity"],
}
#: Fully-resolved defaults every cell of a kind starts from, one per knob;
#: the keys double as the set of legal ``base`` overrides.
KIND_DEFAULTS = {
    kind: MappingProxyType({knob.name: knob.default for knob in knobs})
    for kind, knobs in KIND_KNOBS.items()
}
#: The serving defaults: deliberately smoke-sized (small pool, short trace)
#: so a scenario is cheap unless it asks for more.
BASE_DEFAULTS: Mapping[str, Any] = KIND_DEFAULTS["serving"]
#: The most decision windows a per-query cell may cut one trace into.  The
#: frontend allocates per-window arrays up front (perfbench's ``serve``
#: uses 240 windows), so a width that asks for more fails fast here instead
#: of in numpy after the table compile.
MAX_DECISION_WINDOWS = 10**6

_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")


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


def _validate_schedule(params: Mapping[str, Any]) -> None:
    """Reject a ``service_schedule`` the runner cannot honour for these params.

    Parameters
    ----------
    params : Mapping
        One cell's resolved parameters.

    Raises
    ------
    ScenarioError
        When the schedule is set on a cell that is not a single-node,
        per-step cell under the cached service model.
    """
    if params["service_schedule"] is None:
        return
    if params["service_model"] != "cached":
        raise ScenarioError("service_schedule shifts the cache; it needs service_model cached")
    if params["mode"] != "per-step":
        raise ScenarioError("service_schedule needs mode per-step; the frontend takes no schedule")
    if params["nodes"] != "1":
        raise ScenarioError("service_schedule needs nodes '1'; cluster tables take no schedule")


def _validate_windows(params: Mapping[str, Any]) -> None:
    """Reject a per-query ``window_seconds`` that cuts a trace into too many windows.

    Parameters
    ----------
    params : Mapping
        One cell's resolved parameters.

    Raises
    ------
    ScenarioError
        When some listed trace (its own shape overrides included) would
        need more than :data:`MAX_DECISION_WINDOWS` decision windows.
    """
    width = params["window_seconds"]
    if params["mode"] != "per-query" or width is None:
        return
    for item in listed(params["trace"]):
        shape = {**params, **item} if isinstance(item, Mapping) else params
        duration = shape["steps"] * shape["step_seconds"]
        if duration / width > MAX_DECISION_WINDOWS:
            raise ScenarioError(
                f"window_seconds {width:g} cuts a {duration:g} s trace into more than "
                f"{MAX_DECISION_WINDOWS:,} decision windows; use at least "
                f"{duration / MAX_DECISION_WINDOWS:g} s"
            )


def validate_fleet_tables(params: Mapping[str, Any], label: str = "embedding_scale") -> None:
    """Reject an ``embedding_scale`` whose fleet tables' row counts do not fit int64.

    Capacity cells, and serving cells with a ``nodes`` mix, shard RMlarge's
    embedding tier scaled by ``embedding_scale`` over ``num_tables`` tables
    (:func:`~repro.cluster.fleet.fleet_tables`).

    Parameters
    ----------
    params : Mapping
        One cell's resolved parameters (or a command's typed flag values).
    label : str
        How the error names the scale: the scenario key or the CLI flag.

    Raises
    ------
    ScenarioError
        When a table would hold more rows than int64 does.
    """
    scale = params["embedding_scale"]
    try:
        fleet_tables(params["num_tables"], scale)
    except (OverflowError, ValueError):
        raise ScenarioError(
            f"{label} {scale:g} gives RMlarge embedding tables more rows than int64 holds"
        ) from None


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
        The fully-resolved parameter set: the kind's defaults, then the
        scenario's ``base``, then ``axes``.
    kind : str
        What the cell runs: ``serving``, ``sweep`` or ``capacity``.
    """

    scenario: str
    index: int
    axes: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    kind: str = "serving"

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
        Overrides applied to the kind's defaults (:data:`KIND_DEFAULTS`).
    axes : Mapping[str, tuple]
        Swept dimensions, each a non-empty value list; none at all makes
        the scenario one cell.  Only serving scenarios take axes.
    kind : str
        ``serving`` (the default), ``sweep`` or ``capacity``.
    """

    name: str
    title: str = ""
    paper_ref: str = "Scenario suite (MP-Rec-style serving families)"
    tags: tuple[str, ...] = ()
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, tuple] = field(default_factory=dict)
    kind: str = "serving"

    def __post_init__(self) -> None:
        """Validate the name, kind, base keys and every axis value eagerly."""
        if not _NAME_RE.match(self.name):
            raise ScenarioError(
                f"scenario name {self.name!r} must be a lowercase slug ([a-z][a-z0-9-]*)"
            )
        if self.kind not in KIND_KNOBS:
            raise ScenarioError(
                f"unknown scenario kind {self.kind!r}; expected one of {list(KIND_KNOBS)}"
            )
        defaults = KIND_DEFAULTS[self.kind]
        unknown = sorted(set(self.base) - set(defaults))
        if unknown:
            raise ScenarioError(
                f"unknown base parameters {unknown} for kind {self.kind!r}; "
                f"expected a subset of {sorted(defaults)}"
            )
        knobs = {knob.name: knob for knob in KIND_KNOBS[self.kind]}
        for key, value in self.base.items():
            # A knob its kind leaves unset by default may stay unset.
            if value is not None or defaults[key] is not None:
                coerce(knobs[key], value)
        if self.axes and self.kind != "serving":
            raise ScenarioError(
                f"axes {sorted(self.axes)} on a {self.kind} scenario; "
                "only serving scenarios take axes"
            )
        bad_axes = sorted(set(self.axes) - set(AXES))
        if bad_axes:
            raise ScenarioError(f"unknown axes {bad_axes}; supported axes: {list(AXES)}")
        for axis, values in self.axes.items():
            if not values:
                raise ScenarioError(f"axis {axis!r} has no values")
            if len(set(map(str, values))) != len(values):
                raise ScenarioError(f"axis {axis!r} repeats a value: {list(values)}")
            # An axis value of a list knob is one item of its list.
            knob = KNOBS[axis]
            one_item = knob.type in (TRACE_LIST, ESTIMATOR_LIST)
            for value in values:
                coerce(knob, (value,) if one_item else value)
        for cell in self.expand():
            if self.kind == "serving":
                _validate_schedule(cell.params)
                _validate_windows(cell.params)
            if self.kind == "capacity" or cell.params.get("nodes", "1") != "1":
                validate_fleet_tables(cell.params)

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
            params = {**KIND_DEFAULTS[self.kind], **self.base, **assignment}
            cells.append(ScenarioCell(self.name, index, assignment, params, self.kind))
        return cells


def scenario_from_mapping(data: Mapping, source: str = "<mapping>") -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from a parsed config mapping.

    Parameters
    ----------
    data : Mapping
        The parsed file: ``scenario`` (name/kind/title/paper_ref/tags),
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
            kind=str(header.get("kind", "serving")),
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

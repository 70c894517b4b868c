"""Declarative registry of every experiment (the CLI's backbone).

Each paper-figure harness module exposes ``TITLE`` / ``PAPER_REF`` / ``TAGS``
constants and a no-argument ``run()``; this module assembles them into
:class:`ExperimentSpec` records and a queryable :class:`ExperimentRegistry`.
The serving experiments, the cross-platform sweep and the capacity plan are
packaged scenario files instead (:mod:`repro.scenarios`), registered cell by
cell: :func:`scenario_specs` makes each expanded cell a spec whose ``run``
is :func:`~repro.scenarios.runner.run_cell`.  Adding an experiment is a
single :func:`ExperimentRegistry.register` call (or a module or scenario
file plus one line in :func:`default_registry`), and the ``recpipe`` CLI
and the benchmark suite both read from the same source of truth.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterator, Sequence

from repro.experiments import (
    fig01_motivation,
    fig03_quality,
    fig05_ablation,
    fig07_cpu,
    fig08_heterogeneous,
    fig10_design_space,
    fig11_area_power,
    fig12_rpaccel_scale,
    fig13_future,
    fig14_summary,
    tab01_pareto_models,
)
from repro.experiments.common import ExperimentResult
from repro.scenarios.config import ScenarioCell, ScenarioConfig, scenario_from_mapping
from repro.scenarios.runner import run_cell


class UnknownExperimentError(KeyError):
    """Raised when an experiment id is not in the registry."""


class UnknownTagError(KeyError):
    """Raised when a tag matches no registered experiment."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: identity, provenance, and how to run it."""

    id: str
    title: str
    paper_ref: str
    run: Callable[..., ExperimentResult]
    tags: tuple[str, ...] = ()
    module: str = ""
    #: Structured provenance (scenario name, axis assignment, ...) carried
    #: into run manifests so ``recpipe compare`` can diff what varied.
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("an experiment spec needs a non-empty id")

    def execute(self, seed: int | None = None) -> ExperimentResult:
        """Run the harness, forwarding ``seed`` when the callable accepts it."""
        if seed is not None and self.accepts_seed:
            return self.run(seed=seed)
        return self.run()

    @property
    def accepts_seed(self) -> bool:
        try:
            parameters = inspect.signature(self.run).parameters
        except (TypeError, ValueError):
            return False
        return "seed" in parameters

    def to_dict(self) -> dict:
        """JSON-ready description (run callables are referenced by module)."""
        return {
            "id": self.id,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "tags": list(self.tags),
            "module": self.module,
            "metadata": dict(self.metadata),
        }


@dataclass
class ExperimentRegistry:
    """Ordered collection of :class:`ExperimentSpec` with tag/id selection."""

    _specs: dict[str, ExperimentSpec] = field(default_factory=dict)

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        if spec.id in self._specs:
            raise ValueError(f"experiment id {spec.id!r} is already registered")
        self._specs[spec.id] = spec
        return spec

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __contains__(self, exp_id: str) -> bool:
        return exp_id in self._specs

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def ids(self) -> list[str]:
        return list(self._specs)

    def tags(self) -> list[str]:
        """Every tag used by at least one registered experiment, sorted."""
        return sorted({tag for spec in self for tag in spec.tags})

    def get(self, exp_id: str) -> ExperimentSpec:
        try:
            return self._specs[exp_id]
        except KeyError:
            raise UnknownExperimentError(
                f"unknown experiment id {exp_id!r}; available: {self.ids()}"
            ) from None

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def select(
        self,
        only: Sequence[str] | None = None,
        tags: Sequence[str] | None = None,
    ) -> list[ExperimentSpec]:
        """Experiments matching the id and tag filters, in registry order.

        ``only`` restricts to the given ids (unknown ids raise
        :class:`UnknownExperimentError`); ``tags`` keeps experiments carrying
        at least one of the given tags (a tag used by no experiment raises
        :class:`UnknownTagError`).  Both filters compose (intersection).
        """
        selected = {spec.id for spec in self}
        if only is not None:
            unknown = [exp_id for exp_id in only if exp_id not in self._specs]
            if unknown:
                raise UnknownExperimentError(
                    f"unknown experiment ids {unknown}; available: {self.ids()}"
                )
            selected &= set(only)
        if tags is not None:
            known_tags = set(self.tags())
            unknown_tags = [tag for tag in tags if tag not in known_tags]
            if unknown_tags:
                raise UnknownTagError(f"unknown tags {unknown_tags}; available: {self.tags()}")
            selected &= {spec.id for spec in self if any(tag in spec.tags for tag in tags)}
        # Registry order keeps the paper's sequence.
        return [spec for spec in self if spec.id in selected]


def scenario_specs(config: ScenarioConfig) -> list[ExperimentSpec]:
    """Expand a scenario into registrable experiment specs.

    Parameters
    ----------
    config : ScenarioConfig
        The validated scenario.

    Returns
    -------
    list of ExperimentSpec
        One spec per cell, tagged ``scenario`` / ``scenario:<name>`` plus
        the scenario's tags; ``metadata`` carries the axis assignment so
        run manifests can resolve what each cell varied.
    """
    specs = []
    title = config.title or f"Scenario {config.name}"
    for cell in config.expand():

        def run(seed: int = cell.params["seed"], _cell: ScenarioCell = cell) -> ExperimentResult:
            return run_cell(_cell, seed=seed)

        specs.append(
            ExperimentSpec(
                id=cell.id,
                title=f"{title} [{cell.label}]" if cell.label else title,
                paper_ref=config.paper_ref,
                run=run,
                tags=("scenario", f"scenario:{config.name}", *config.tags),
                module="repro.scenarios.runner",
                metadata={"scenario": config.name, "axes": dict(cell.axes)},
            )
        )
    return specs


def register_scenario(registry: ExperimentRegistry, config: ScenarioConfig) -> list[ExperimentSpec]:
    """Expand ``config`` and register every cell in ``registry``.

    Parameters
    ----------
    registry : ExperimentRegistry
        The target registry (cell ids must not collide with existing
        entries).
    config : ScenarioConfig
        The scenario to install.

    Returns
    -------
    list of ExperimentSpec
        The registered specs, in expansion order.
    """
    specs = scenario_specs(config)
    for spec in specs:
        registry.register(spec)
    return specs


def packaged_scenario(name: str) -> ScenarioConfig:
    """A scenario shipped with the package (``repro/scenarios/<name>.json``).

    Parameters
    ----------
    name : str
        The file stem: ``router``, ``frontend``, ``flashcrowd``,
        ``coldcache`` (the serving entries of the default registry),
        ``builtin`` (the ``routergrid`` ``trace x estimator`` grid),
        ``sweepmp`` (a sweep) or ``capacity`` (a capacity plan).

    Returns
    -------
    ScenarioConfig
        The validated scenario.
    """
    path = f"{name}.json"
    text = resources.files("repro.scenarios").joinpath(path).read_text(encoding="utf-8")
    return scenario_from_mapping(json.loads(text), source=f"repro/scenarios/{path}")


def _spec_from_module(exp_id: str, module) -> ExperimentSpec:
    """Build a spec from a harness module's TITLE/PAPER_REF/TAGS constants."""
    return ExperimentSpec(
        id=exp_id,
        title=module.TITLE,
        paper_ref=module.PAPER_REF,
        tags=tuple(module.TAGS),
        run=module.run,
        module=module.__name__,
    )


def _build_default_registry() -> ExperimentRegistry:
    registry = ExperimentRegistry()
    # A (id, module) pair is a harness module; a bare name is a packaged
    # scenario file (repro/scenarios/<name>.json) registered cell by cell.
    for entry in (
        ("fig01", fig01_motivation),
        ("tab01", tab01_pareto_models),
        ("fig03", fig03_quality),
        ("fig05", fig05_ablation),
        ("fig07", fig07_cpu),
        ("fig08", fig08_heterogeneous),
        ("fig10", fig10_design_space),
        ("fig11", fig11_area_power),
        ("fig12", fig12_rpaccel_scale),
        ("fig13", fig13_future),
        ("fig14", fig14_summary),
        "sweepmp",
        "router",
        "frontend",
        "flashcrowd",
        "coldcache",
        "capacity",
        "builtin",
    ):
        if isinstance(entry, str):
            register_scenario(registry, packaged_scenario(entry))
        else:
            registry.register(_spec_from_module(*entry))
    return registry


#: The registry covering every artifact the paper reports.
REGISTRY = _build_default_registry()


def default_registry() -> ExperimentRegistry:
    """The process-wide registry: the paper's eleven experiments, the
    cross-platform sweep, the serving scenarios (online router, per-query
    frontend, the flashcrowd and coldcache cache-state scenarios, the
    routergrid cells), and the fleet capacity planner."""
    return REGISTRY

"""Declarative registry of every experiment (the CLI's backbone).

Each harness module exposes ``TITLE`` / ``PAPER_REF`` / ``TAGS`` constants and
a ``run()`` callable; this module assembles them into
:class:`ExperimentSpec` records and a queryable :class:`ExperimentRegistry`.
The serving experiments are packaged scenario files instead
(:mod:`repro.scenarios`), registered cell by cell.  Adding an experiment is
a single :func:`ExperimentRegistry.register` call (or a module or scenario
file plus one line in :func:`default_registry`), and the ``recpipe`` CLI and
the benchmark suite both read from the same source of truth.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.experiments import (
    capacity_planning,
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
    sweep_multiplatform,
    tab01_pareto_models,
)
from repro.experiments.common import ExperimentResult


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
    depends_on: tuple[str, ...] = ()
    module: str = ""
    #: Structured provenance (scenario name, axis assignment, ...) carried
    #: into run manifests so ``recpipe compare`` can diff what varied.
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("an experiment spec needs a non-empty id")
        if self.id in self.depends_on:
            raise ValueError(f"experiment {self.id!r} cannot depend on itself")

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
            "depends_on": list(self.depends_on),
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
        """Experiments matching the id and tag filters, dependencies included.

        ``only`` restricts to the given ids (unknown ids raise
        :class:`UnknownExperimentError`); ``tags`` keeps experiments carrying
        at least one of the given tags (a tag used by no experiment raises
        :class:`UnknownTagError`).  Both filters compose (intersection).  The
        transitive ``depends_on`` closure of every selected experiment is
        pulled in, and the result is dependency-ordered (dependencies first,
        registry order otherwise).
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
        closure = self._dependency_closure(selected)
        return self._topological_order(closure)

    def _dependency_closure(self, selected: set[str]) -> set[str]:
        closure: set[str] = set()
        frontier = list(selected)
        while frontier:
            exp_id = frontier.pop()
            if exp_id in closure:
                continue
            closure.add(exp_id)
            frontier.extend(self.get(exp_id).depends_on)
        return closure

    def _topological_order(self, selected: set[str]) -> list[ExperimentSpec]:
        ordered: list[ExperimentSpec] = []
        placed: set[str] = set()
        visiting: set[str] = set()

        def visit(exp_id: str) -> None:
            if exp_id in placed:
                return
            if exp_id in visiting:
                raise ValueError(f"dependency cycle involving {exp_id!r}")
            visiting.add(exp_id)
            for dep in self.get(exp_id).depends_on:
                visit(dep)
            visiting.discard(exp_id)
            placed.add(exp_id)
            ordered.append(self.get(exp_id))

        for exp_id in self._specs:  # registry order keeps the paper's sequence
            if exp_id in selected:
                visit(exp_id)
        return ordered


def _spec_from_module(exp_id: str, module, depends_on: tuple[str, ...] = ()) -> ExperimentSpec:
    """Build a spec from a harness module's TITLE/PAPER_REF/TAGS constants."""
    return ExperimentSpec(
        id=exp_id,
        title=module.TITLE,
        paper_ref=module.PAPER_REF,
        tags=tuple(module.TAGS),
        depends_on=depends_on,
        run=module.run,
        module=module.__name__,
    )


def _build_default_registry() -> ExperimentRegistry:
    # Imported here, not at module top: the scenario runner imports
    # ExperimentSpec from this module (lazily), so the package edge must
    # resolve after the class definitions above exist.
    from repro.scenarios.runner import packaged_scenario, register_scenario

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
        ("sweepmp", sweep_multiplatform),
        "router",
        "frontend",
        "flashcrowd",
        "coldcache",
        ("capacity", capacity_planning),
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

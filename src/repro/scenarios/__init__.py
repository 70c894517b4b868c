"""Declarative scenario suites: config files that expand into registry runs.

MP-Rec frames serving as *families* of scenarios — trace x policy x
hardware path — whose value is in the comparison, not in any single run.
This package makes those families a product surface: a scenario config
(TOML or JSON) declares a base parameter set plus grid axes, and
:func:`~repro.scenarios.config.ScenarioConfig.expand` turns the cartesian
product into tagged
:class:`~repro.experiments.registry.ExperimentSpec` entries
(:func:`~repro.scenarios.runner.register_scenario`), so ``recpipe
list/run`` operate on scenario cells exactly like hand-written
experiments.  The packaged scenarios — the ``router``, ``frontend``,
``flashcrowd`` and ``coldcache`` serving entries and the ``routergrid``
grid — ship in the default registry, and ``recpipe route`` runs its flags
as a one-cell scenario; user files load via ``recpipe run --scenario FILE``.
"""

from repro.scenarios.config import (
    AXES,
    BASE_DEFAULTS,
    ScenarioCell,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    scenario_from_mapping,
)
from repro.scenarios.runner import packaged_scenario, register_scenario, run_cell, scenario_specs

__all__ = [
    "AXES",
    "BASE_DEFAULTS",
    "ScenarioCell",
    "ScenarioConfig",
    "ScenarioError",
    "load_scenario",
    "packaged_scenario",
    "register_scenario",
    "run_cell",
    "scenario_from_mapping",
    "scenario_specs",
]

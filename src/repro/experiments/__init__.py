"""Experiment harnesses regenerating every table and figure of the paper.

Each module exposes a ``run(...)`` function that returns an
:class:`~repro.experiments.common.ExperimentResult` (a named collection of
rows mirroring the paper's table/figure series) and can be executed as a
script to print the result, plus ``TITLE`` / ``PAPER_REF`` / ``TAGS``
constants that :mod:`repro.experiments.registry` assembles into the
:class:`~repro.experiments.registry.ExperimentSpec` records behind the
``recpipe`` CLI.  The benchmark suite under ``benchmarks/`` calls the ``run``
functions and asserts the paper's qualitative shape (who wins, rough factors,
crossovers); the measured values are recorded in ``EXPERIMENTS.md``.

Index (see DESIGN.md for the full mapping):

========================  =====================================================
Module                    Paper artifact
========================  =====================================================
``fig01_motivation``      Figure 1(c) compute / memory reduction at iso-quality
``tab01_pareto_models``   Table 1 + Figure 2 hyperparameter sweep
``fig03_quality``         Figure 3 quality vs accuracy
``fig05_ablation``        Figure 5 RPAccel ablation (O.1-O.5)
``fig07_cpu``             Figure 7 CPU multi-stage scheduling
``fig08_heterogeneous``   Figure 8 heterogeneous CPU-GPU mapping
``fig10_design_space``    Figure 10 RPAccel micro-architecture design space
``fig11_area_power``      Figure 11 area / power breakdown
``fig12_rpaccel_scale``   Figure 12 RPAccel at-scale evaluation
``fig13_future``          Figure 13 future model scaling with SSDs
``fig14_summary``         Figure 14 cross-dataset / cross-load summary
========================  =====================================================

The cross-platform sweep (``sweepmp``, Figures 8-10) and the capacity plan
(``capacity_planning``) are scenario kinds run by :mod:`repro.scenarios.runner`.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]

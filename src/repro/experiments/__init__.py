"""Experiment harnesses regenerating every table and figure of the paper.

Each harness module runs one figure or table in the paper's one
configuration: a no-argument ``run()`` returns an
:class:`~repro.experiments.common.ExperimentResult` (a named collection of
rows mirroring the paper's table/figure series), and a multi-panel figure
merges its no-argument ``run_*`` panels with
:func:`~repro.experiments.common.merge_panels`.  ``TITLE`` / ``PAPER_REF``
/ ``TAGS`` constants are what :mod:`repro.experiments.registry` assembles
into the :class:`~repro.experiments.registry.ExperimentSpec` records behind
``recpipe run``, the one way a figure runs (``recpipe list`` prints the
index).  The benchmark suite under ``benchmarks/`` calls the same functions
and asserts the paper's qualitative shape (who wins, rough factors,
crossovers).

The cross-platform sweep (``sweepmp``, Figures 8-10) and the capacity plan
(``capacity_planning``) are scenario kinds run by :mod:`repro.scenarios.runner`.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]

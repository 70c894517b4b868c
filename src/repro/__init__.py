"""RecPipe reproduction: co-designing multi-stage recommendation models and hardware.

The package is organized bottom-up:

* :mod:`repro.events` -- the seed-free structured run event log the layers above
  emit to (it imports nothing from them).
* :mod:`repro.nn` -- minimal numpy neural-network substrate.
* :mod:`repro.data` -- synthetic Criteo / MovieLens datasets and ranking queries.
* :mod:`repro.models` -- DLRM, NeuMF, the Pareto-optimal model zoo and trainer.
* :mod:`repro.quality` -- NDCG and multi-stage ranking-funnel simulation.
* :mod:`repro.hardware` -- analytic CPU / GPU / PCIe / memory performance models.
* :mod:`repro.accel` -- systolic array, top-k filter, embedding caches, the
  baseline (Centaur-like) accelerator and RPAccel.
* :mod:`repro.serving` -- discrete-event at-scale simulator (Poisson arrivals,
  tail latency, throughput).
* :mod:`repro.core` -- the RecPipe design-space explorer and scheduler.
* :mod:`repro.experiments` -- harnesses regenerating every table and figure.
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "data",
    "models",
    "quality",
    "hardware",
    "accel",
    "serving",
    "core",
    "experiments",
]

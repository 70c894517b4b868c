"""Reference bias calibration the synthetic generators are checked against.

The generators' original calibration, kept verbatim in logic: a 40-step
bisection that stores every candidate bias on the generator and re-runs the
whole ground-truth function (Criteo's ``true_ctr`` formula, MovieLens's
``true_preference`` formula, written out in one expression each) at every
step.  The generators now compute the bias-free logit terms once and only
combine them per step; ``tests/test_data.py`` patches these references in
as ``_calibrate_bias`` and requires the calibrated bias to be bit-equal.

:func:`reference_zipf_sample` is the original Zipf draw: a freshly built
pmf handed to ``Generator.choice`` on every call.  ``zipf_sample`` inverts
a memoized CDF instead and must return the same ids, dtype and shape.
:func:`reference_zipf_ranks` is the inversion as it was before the guide
table: one binary search of the memoized CDF per uniform, the search
``Generator.choice`` performs; ``zipf_sample`` must give each uniform the
same rank.
"""

from __future__ import annotations

import numpy as np

from repro.data.distributions import zipf_cdf
from repro.nn.loss import sigmoid


def reference_true_ctr(dataset, dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
    """Criteo ground truth in the original single-expression form."""
    latent_sum = dataset._sum_latents(sparse)
    linear = dense @ dataset._dense_weights
    bilinear = np.einsum("bi,ij,bj->b", latent_sum, dataset._interaction, latent_sum)
    cross = np.einsum("bd,dk,bk->b", dense, dataset._dense_cross, latent_sum)
    logits = dataset._bias + linear + 0.5 * np.tanh(bilinear) + 0.5 * np.tanh(cross)
    return sigmoid(logits)


def reference_true_preference(dataset, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """MovieLens ground truth in the original single-expression form."""
    dot = np.einsum(
        "bk,bk->b",
        dataset._user_latents[users],
        dataset._item_latents[items],
    ) / np.sqrt(dataset.config.latent_dim)
    logits = dataset._bias + dot + dataset._user_bias[users] + dataset._item_bias[items]
    return sigmoid(logits)


def _bisect(dataset, rate) -> float:
    target = dataset.config.positive_rate
    lo, hi = -8.0, 8.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        dataset._bias = mid
        if rate() < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_criteo_calibrate_bias(dataset, rng: np.random.Generator) -> float:
    """Criteo calibration: full ground-truth evaluation at every step."""
    dense, sparse = dataset._sample_features(rng, 4096)
    return _bisect(dataset, lambda: float(reference_true_ctr(dataset, dense, sparse).mean()))


def reference_movielens_calibrate_bias(dataset, rng: np.random.Generator) -> float:
    """MovieLens calibration: full ground-truth evaluation at every step."""
    users = rng.integers(0, dataset.config.num_users, size=4096)
    items = rng.integers(0, dataset.config.num_items, size=4096)
    return _bisect(dataset, lambda: float(reference_true_preference(dataset, users, items).mean()))


def reference_zipf_sample(rng, num_items: int, size, alpha: float) -> np.ndarray:
    """Zipf ids as ``Generator.choice`` draws them from a freshly built pmf."""
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-alpha
    return rng.choice(num_items, size=size, p=weights / weights.sum())


def reference_zipf_ranks(num_items: int, alpha: float, uniforms: np.ndarray) -> np.ndarray:
    """Each uniform's Zipf rank by binary search: ``r`` with ``cdf[r-1] <= u < cdf[r]``."""
    return zipf_cdf(num_items, alpha).searchsorted(uniforms, side="right")

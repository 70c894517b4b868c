"""Datasets for the RecPipe reproduction.

The paper evaluates on Criteo Kaggle and MovieLens 1M/20M.  Those datasets are
not redistributable here, so this package provides synthetic stand-ins that
preserve the properties the paper's analysis relies on:

* **Criteo-like CTR data** -- 13 dense and 26 categorical features, Zipf
  (power-law) distributed categorical values, sparse positive labels, and a
  planted non-linear ground-truth click-through-rate so that larger models
  achieve measurably lower error.
* **MovieLens-like preference data** -- planted low-rank user/item
  preferences, in 1M and 20M presets.

Both generators produce *ranking queries*: a pool of candidate items with
ground-truth graded relevance, which is what the multi-stage funnel and the
NDCG quality metric operate on.  Only the Criteo generator also builds the
labelled train/test split the trainable DLRM learns from (Table 1).
"""

from repro.data.distributions import zipf_probabilities, zipf_sample
from repro.data.datasets import (
    CTRBatch,
    Dataset,
    RankingQuery,
    train_test_split,
)
from repro.data.criteo import CriteoSynthetic, CriteoConfig
from repro.data.movielens import MovieLensSynthetic, MovieLensConfig

__all__ = [
    "zipf_probabilities",
    "zipf_sample",
    "CTRBatch",
    "Dataset",
    "RankingQuery",
    "train_test_split",
    "CriteoSynthetic",
    "CriteoConfig",
    "MovieLensSynthetic",
    "MovieLensConfig",
]

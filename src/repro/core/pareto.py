"""Pareto-frontier extraction used throughout the design-space exploration."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Upper bound on the ``(rows, items, objectives)`` comparison block one
#: dominance pass materializes, so a large sweep never allocates n² booleans.
BLOCK_ELEMENTS = 1 << 20


def pareto_frontier(
    items: Sequence[T],
    objectives: Callable[[T], tuple[float, ...]],
    minimize: Sequence[bool],
) -> list[T]:
    """Return the Pareto-optimal subset of ``items``, in input order.

    ``objectives`` maps an item to its tuple of float objectives;
    ``minimize`` flags, per objective, whether smaller is better.  An item
    is kept if no other item is at least as good on every objective and
    strictly better on one.  NaN compares false both ways, so a NaN
    objective neither dominates nor is dominated on that axis.
    """
    if not items:
        return []
    values = [objectives(item) for item in items]
    width = len(values[0])
    if len(minimize) != width:
        raise ValueError(
            f"minimize must have one flag per objective: got {len(minimize)} for {width}"
        )
    if any(len(v) != width for v in values):
        raise ValueError("all objective tuples must have the same length")

    # Normalize to minimization; row i is item i.
    signs = np.where(np.asarray(minimize, dtype=bool), 1.0, -1.0)
    points = np.asarray(values, dtype=np.float64).reshape(len(items), width) * signs
    dominated = np.empty(len(items), dtype=bool)
    block = max(1, BLOCK_ELEMENTS // (len(items) * max(width, 1)))
    for lo in range(0, len(items), block):
        # others[j] vs mine[i]: item j dominates item i.  An item never
        # dominates itself (no objective is strictly smaller), so the
        # diagonal needs no masking.
        mine = points[lo : lo + block, None, :]
        dominated[lo : lo + block] = (
            (points[None, :, :] <= mine).all(axis=2) & (points[None, :, :] < mine).any(axis=2)
        ).any(axis=1)
    return [item for item, out in zip(items, dominated.tolist()) if not out]

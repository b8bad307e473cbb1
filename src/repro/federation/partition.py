"""Originator partitioning behind the driver-owned reorder front.

The federation's correctness argument starts here:

* **Partitioning is by originator** (``mix64``), so every event
  of one ``(querier, originator)`` pair — and therefore every dedup
  decision, HLL register, and observation — lands on exactly one shard.
  A shard's windows are the single engine's windows restricted to its
  originators.
* **Reordering is resolved once, at the driver.**  The driver owns a
  :class:`~repro.sensor.reorder.ReorderFront` — the same class a single
  :class:`~repro.sensor.streaming.StreamingCollector` owns, re-exported
  here — so the stream each shard receives is globally time-ordered and
  shard collectors run with ``reorder_slack=0``.  Lateness and reorder
  accounting therefore happen exactly once, with the counts a single
  collector produces.
* **Row order is tracked at the driver.**  The single engine's feature
  rows follow first-kept-appearance order of its observation dict; the
  first event of an originator in a window is always kept (a fresh pair
  in a fresh window-scoped dedup), so first-*appearance* order over the
  released stream reproduces it.  :func:`note_first_appearance` records
  that rank so the merge stage can interleave shard rows canonically.
"""

from __future__ import annotations

import numpy as np

from repro.sensor.reorder import ReorderFront
from repro.sketch.hashing import mix64_array

__all__ = ["shard_of", "partition_arrays", "note_first_appearance", "ReorderFront"]


def shard_of(originators: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard index per originator: ``mix64(originator) % n_shards``.

    Deterministic in ``(originator, n_shards)`` — re-running a
    federation with the same shard count reproduces the same placement.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    values = np.ascontiguousarray(originators, dtype=np.int64)
    return (mix64_array(values) % np.uint64(n_shards)).astype(np.int64)


def partition_arrays(
    timestamps: np.ndarray,
    queriers: np.ndarray,
    originators: np.ndarray,
    n_shards: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split parallel event columns into per-shard columns, order-preserving."""
    assignments = shard_of(originators, n_shards)
    out = []
    for shard in range(n_shards):
        mask = assignments == shard
        out.append((timestamps[mask], queriers[mask], originators[mask]))
    return out


def note_first_appearance(
    timestamps: np.ndarray,
    originators: np.ndarray,
    origin: float,
    width: float,
    by_index: dict[int, dict[int, int]],
) -> None:
    """Record each originator's first-appearance rank per window.

    *timestamps* must be the released (time-ordered) stream; ranks are
    assigned in encounter order and preserved across calls, matching the
    insertion order of a single collector's observation dict.
    """
    if timestamps.size == 0:
        return
    indices = np.floor_divide(timestamps - origin, width).astype(np.int64)
    uniq, bounds = np.unique(indices, return_index=True)
    bounds = np.append(bounds, timestamps.size)
    for k in range(int(uniq.size)):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        ranks = by_index.setdefault(int(uniq[k]), {})
        segment = originators[lo:hi]
        seen, first = np.unique(segment, return_index=True)
        for originator in seen[np.argsort(first)].tolist():
            if originator not in ranks:
                ranks[originator] = len(ranks)

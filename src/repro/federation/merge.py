"""The merge stage: fuse shard partials into single-engine-identical output.

Two merges happen per window:

* **Context** — the dynamic-feature normalizers are window-*global*
  (total ASes / countries / unique queriers over the whole window), so
  they cannot be computed shard-locally.  :func:`merged_context` unions
  the shards' querier rosters, known-AS sets, and known-country sets;
  because enrichment is deterministic per address and originator
  partitioning never splits an address's enrichment, the union equals
  what a single engine computes over the unpartitioned window.
* **Rows** — each shard's feature matrix covers only its originators.
  :func:`merge_rows` interleaves them by the driver-recorded
  first-appearance rank, reproducing the single engine's row order
  (observation-dict insertion order; see
  :mod:`repro.federation.partition`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.federation.shard import ShardRows, WindowSummary
from repro.sensor.dynamic import WindowContext
from repro.sensor.features import FEATURE_NAMES, FeatureSet

__all__ = ["merged_context", "merge_rows", "empty_feature_set"]


def merged_context(
    start: float, end: float, summaries: Sequence[WindowSummary]
) -> WindowContext:
    """The merged window's normalizers, from per-shard partials."""
    return WindowContext(
        start=start,
        end=end,
        total_ases=max(1, _distinct([s.asns for s in summaries])),
        total_countries=max(1, _distinct([s.countries for s in summaries])),
        total_queriers=max(1, _distinct([s.addrs for s in summaries])),
    )


def _distinct(parts: list[np.ndarray]) -> int:
    return int(np.unique(np.concatenate(parts)).size) if parts else 0


def empty_feature_set(context: WindowContext) -> FeatureSet:
    """A zero-row feature set (gap windows, fully-gated windows)."""
    return FeatureSet(
        originators=np.empty(0, dtype=np.int64),
        matrix=np.zeros((0, len(FEATURE_NAMES))),
        context=context,
        footprints=np.empty(0, dtype=np.int64),
    )


def merge_rows(
    context: WindowContext,
    ranks: dict[int, int],
    shard_rows: Iterable[ShardRows],
) -> FeatureSet:
    """Concatenate shard feature rows in canonical (first-appearance) order.

    *ranks* maps originator → first-appearance rank over the released
    stream; rows missing from it (possible only for streaming-sketch
    promotions the driver never saw appear, i.e. never in practice) sort
    after ranked rows by originator address, deterministically.
    """
    parts = [rows for rows in shard_rows if rows.rows]
    if not parts:
        return empty_feature_set(context)
    originators = np.concatenate([rows.originators for rows in parts])
    matrix = np.concatenate([rows.matrix for rows in parts])
    footprints = np.concatenate([rows.footprints for rows in parts])
    keys = [
        (0, ranks[o]) if o in ranks else (1, o)
        for o in (int(v) for v in originators)
    ]
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
    return FeatureSet(
        originators=originators[order],
        matrix=matrix[order],
        context=context,
        footprints=footprints[order],
    )

"""Feature-vector assembly: static + dynamic per originator (§ III-C/D).

The full vector is the 14 static fractions followed by the 8 dynamic
features, identified by the originator's IP address, exactly the object
the paper hands to its ML algorithms.

This is the hot path of every experiment — every window of every dataset
runs through it — so batch assembly is vectorized: each distinct querier
is read once per window from the
:class:`~repro.sensor.directory.FrozenDirectory`'s columns (one
searchsorted through the window's
:class:`~repro.sensor.directory.EnrichmentCache`), and the
per-originator math runs over flat int arrays (``np.bincount`` over
(row, code) keys) instead of per-querier Python loops.  Every row depends only on its own observation
plus the shared :class:`WindowContext`, which is what lets federated
shards (``--shards N``, the multi-core path) compute their rows apart
and still match a single engine bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sensor.collection import ObservationWindow, OriginatorObservation
from repro.sensor.directory import EnrichmentCache, QuerierDirectory
from repro.sensor.dynamic import (
    DYNAMIC_FEATURE_NAMES,
    PERIOD_SECONDS,
    WindowContext,
    dynamic_features,
)
from repro.sensor.keywords import STATIC_CATEGORIES
from repro.sensor.selection import ANALYZABLE_THRESHOLD, analyzable
from repro.sensor.static import STATIC_FEATURE_NAMES, static_features

__all__ = [
    "FEATURE_NAMES",
    "FeatureSet",
    "feature_vector",
    "extract_features",
    "features_from_selected",
]

FEATURE_NAMES: tuple[str, ...] = STATIC_FEATURE_NAMES + DYNAMIC_FEATURE_NAMES


@dataclass(slots=True)
class FeatureSet:
    """Feature vectors for all analyzable originators of one window."""

    originators: np.ndarray
    """Originator addresses, aligned with matrix rows."""
    matrix: np.ndarray
    """Shape (n_originators, len(FEATURE_NAMES))."""
    context: WindowContext
    footprints: np.ndarray
    """Unique-querier counts, aligned with rows (for top-N slicing)."""
    _row_index: dict[int, int] | None = None
    """Lazy originator → row lookup (built once, O(1) thereafter)."""

    def __len__(self) -> int:
        return len(self.originators)

    @property
    def row_index(self) -> dict[int, int]:
        """Originator → matrix-row mapping (one row per originator)."""
        if self._row_index is None:
            self._row_index = {
                int(originator): row for row, originator in enumerate(self.originators)
            }
        return self._row_index

    def row_of(self, originator: int) -> np.ndarray | None:
        """The feature vector for one originator, or None if absent."""
        row = self.row_index.get(int(originator))
        return self.matrix[row] if row is not None else None

    def subset(self, originators: set[int]) -> "FeatureSet":
        """Rows restricted to the given originator addresses.

        Rows come back in **matrix-row order** (the order they hold in
        this set), never in the iteration order of *originators* — so a
        subset of a subset, or a subset built from an unordered set, is
        reproducible across runs.
        """
        index = self.row_index
        rows = np.array(
            sorted(index[int(o)] for o in originators if int(o) in index),
            dtype=np.intp,
        )
        return FeatureSet(
            originators=self.originators[rows],
            matrix=self.matrix[rows],
            context=self.context,
            footprints=self.footprints[rows],
        )

    def top(self, n: int) -> "FeatureSet":
        """Rows for the n largest footprints.

        Footprint ties break by ascending originator address, so the
        selection (and therefore downstream classification output) is
        deterministic across runs regardless of row order.
        """
        order = np.lexsort((self.originators, -self.footprints))[:n]
        return FeatureSet(
            originators=self.originators[order],
            matrix=self.matrix[order],
            context=self.context,
            footprints=self.footprints[order],
        )


def feature_vector(
    observation: OriginatorObservation,
    directory: QuerierDirectory,
    context: WindowContext,
) -> np.ndarray:
    """One originator's full (static ‖ dynamic) vector.

    The scalar reference path: reads each querier through
    ``directory.lookup`` and classifies its name per call, so it checks
    the directory's columns instead of sharing them.  Batch extraction
    uses the vectorized :func:`features_from_selected` instead.
    """
    return np.concatenate(
        [
            static_features(observation, directory),
            dynamic_features(observation, directory, context),
        ]
    )


def _grouped_distinct(rows: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Distinct *values* per row id, via one unique over packed keys."""
    if len(rows) == 0:
        return np.zeros(n_rows, dtype=np.int64)
    span = np.int64(values.max()) - np.int64(values.min()) + 1
    keys = rows.astype(np.int64) * span + (values.astype(np.int64) - values.min())
    distinct = np.unique(keys)
    return np.bincount((distinct // span).astype(np.intp), minlength=n_rows)


def _grouped_entropy(
    rows: np.ndarray,
    values: np.ndarray,
    counts_per_row: np.ndarray,
    support: int | None = None,
) -> np.ndarray:
    """Per-row normalized Shannon entropy over grouped values.

    The vectorized counterpart of :func:`repro.sensor.dynamic._normalized_entropy`:
    for each row, the entropy of the empirical distribution of its
    values, scaled by ``log(min(n, support))`` and clipped to [0, 1].
    Uses the identity ``H = log(n) - (Σ c·log c) / n`` over the per-(row,
    value) multiplicities c, which needs only one sort of packed keys.
    """
    n_rows = len(counts_per_row)
    span = np.int64(values.max()) - np.int64(values.min()) + 1 if len(values) else 1
    offset = values.min() if len(values) else 0
    keys = rows.astype(np.int64) * span + (values.astype(np.int64) - offset)
    uniq, multiplicity = np.unique(keys, return_counts=True)
    urows = (uniq // span).astype(np.intp)
    c_log_c = np.bincount(
        urows, weights=multiplicity * np.log(multiplicity), minlength=n_rows
    )
    n = counts_per_row.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = np.log(n) - c_log_c / n
        ceiling = np.log(np.minimum(n, support) if support else n)
        scaled = np.minimum(1.0, entropy / ceiling)
    # n <= 1: a single sample has no spread to measure (ceiling is 0).
    return np.where(counts_per_row <= 1, 0.0, np.maximum(0.0, scaled))


def _feature_matrix(
    selected: list[OriginatorObservation],
    cache: EnrichmentCache,
    context: WindowContext,
) -> np.ndarray:
    """The (n_selected, 22) feature matrix, vectorized over all rows.

    Every observation must have at least one querier (callers filter
    empties).  Row r depends only on ``selected[r]`` and *context*, so
    splitting the list and concatenating the part matrices is
    bit-identical to one call — the property federated shards rely on.
    """
    n_rows = len(selected)
    n_categories = len(STATIC_CATEGORIES)
    if n_rows == 0:
        return np.zeros((0, len(FEATURE_NAMES)))

    # Flatten (row, querier) pairs; queriers sorted per row for determinism.
    footprints = np.array([o.footprint for o in selected], dtype=np.int64)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), footprints)
    addrs = np.fromiter(
        (a for o in selected for a in sorted(o.unique_queriers)),
        dtype=np.int64,
        count=int(footprints.sum()),
    )

    categories, asns, country_codes = cache.codes(addrs)

    # Static: per-row category counts in one bincount, then fractions.
    static_counts = np.bincount(
        (rows * n_categories + categories).astype(np.intp),
        minlength=n_rows * n_categories,
    ).reshape(n_rows, n_categories)
    static = static_counts / footprints[:, None]

    # Dynamic, all rows at once.
    query_counts = np.array([o.query_count for o in selected], dtype=np.int64)
    queries_per_querier = query_counts / footprints

    ts_counts = np.array([len(o.timestamps) for o in selected], dtype=np.int64)
    ts_rows = np.repeat(np.arange(n_rows, dtype=np.int64), ts_counts)
    timestamps = np.fromiter(
        (t for o in selected for t in o.timestamps),
        dtype=np.float64,
        count=int(ts_counts.sum()),
    )
    period_index = np.minimum(
        ((timestamps - context.start) // PERIOD_SECONDS).astype(np.int64),
        context.periods - 1,
    )
    persistence = _grouped_distinct(ts_rows, period_index, n_rows) / context.periods

    local_entropy = _grouped_entropy(rows, addrs >> 8, footprints)
    global_entropy = _grouped_entropy(rows, addrs >> 24, footprints, support=256)

    known_as = asns >= 0
    n_ases = _grouped_distinct(rows[known_as], asns[known_as], n_rows)
    known_country = country_codes >= 0
    n_countries = _grouped_distinct(
        rows[known_country], country_codes[known_country], n_rows
    )
    unique_as = n_ases / context.total_ases
    unique_country = n_countries / context.total_countries
    queriers_per_country = (
        footprints / np.maximum(1, n_countries)
    ) / context.total_queriers
    queriers_per_as = (footprints / np.maximum(1, n_ases)) / context.total_queriers

    dynamic = np.column_stack(
        [
            queries_per_querier,
            persistence,
            local_entropy,
            global_entropy,
            unique_as,
            unique_country,
            queriers_per_country,
            queriers_per_as,
        ]
    )
    return np.hstack([static, dynamic])


def features_from_selected(
    window: ObservationWindow,
    selected: list[OriginatorObservation],
    directory: QuerierDirectory,
    context: WindowContext | None = None,
) -> FeatureSet:
    """Feature vectors for an already-selected set of originators.

    The window context (rates, normalizers) is computed over the whole
    window; *selected* only controls which rows are materialized.  This
    is the featurize stage of :class:`repro.sensor.engine.SensorEngine`,
    which performs selection separately so it can account for drops.

    An explicit *context* overrides the window-derived one.  Federated
    shards use this: each shard holds only its partition of a window,
    but every row must normalize by the *merged* window's totals, which
    the federation driver computes and broadcasts (see
    :mod:`repro.federation`).  Because each row depends only on its own
    observation plus the context, rows computed under the merged context
    are bit-identical to a single engine's.

    Observations without any queriers (possible when every query
    deduplicated away or a serialized observation is degenerate) are
    skipped rather than raising; callers can detect skips by comparing
    ``len(selected)`` with the result length.
    """
    cache = EnrichmentCache.ensure(directory)
    kept = [o for o in selected if o.footprint > 0]
    if context is None:
        context = WindowContext.from_window(window, cache.directory)
    originators = np.array([o.originator for o in kept], dtype=np.int64)
    footprints = np.array([o.footprint for o in kept], dtype=np.int64)
    matrix = _feature_matrix(kept, cache, context)
    return FeatureSet(
        originators=originators,
        matrix=matrix,
        context=context,
        footprints=footprints,
    )


def extract_features(
    window: ObservationWindow,
    directory: QuerierDirectory,
    min_queriers: int = ANALYZABLE_THRESHOLD,
) -> FeatureSet:
    """Feature vectors for every analyzable originator in the window."""
    return features_from_selected(window, analyzable(window, min_queriers), directory)

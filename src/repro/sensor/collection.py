"""Query-log collection: dedup and per-originator grouping (§ III-A/B/C).

Raw authority logs contain bursts of duplicate queries from queriers that
ignore DNS timeout rules; the paper "eliminate[s] duplicate queries from
the same querier in a 30 s window" to avoid skewing query-rate estimates.
After dedup, entries are grouped into one :class:`OriginatorObservation`
per originator over the observation interval — the unit the feature
extractor consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.dnssim.message import QueryLogEntry

if TYPE_CHECKING:
    from repro.sketch.prestage import SketchPreStage

__all__ = [
    "DEDUP_WINDOW_SECONDS",
    "dedup_entries",
    "OriginatorObservation",
    "ObservationWindow",
]

DEDUP_WINDOW_SECONDS = 30.0


def dedup_entries(
    entries: list[QueryLogEntry], window: float = DEDUP_WINDOW_SECONDS
) -> list[QueryLogEntry]:
    """Drop repeats of the same (querier, originator) within *window* seconds.

    Entries must be in non-decreasing timestamp order (authority logs are
    append-ordered).  The first query of each burst is kept; a repeat is
    dropped when it falls strictly within *window* of the last *kept*
    query for that pair, matching rate-limiting semantics.

    The scalar statement of § III-A's rule: the **oracle** the property
    tests hold :func:`repro.logstore.dedup_mask` and the collector to.
    Nothing in the sensing path calls it.
    """
    if window < 0:
        raise ValueError("window must be non-negative")
    kept: list[QueryLogEntry] = []
    last_kept: dict[tuple[int, int], float] = {}
    previous_ts = float("-inf")
    for entry in entries:
        if entry.timestamp < previous_ts:
            raise ValueError("entries are not time-ordered")
        previous_ts = entry.timestamp
        key = (entry.querier, entry.originator)
        last = last_kept.get(key)
        if last is not None and entry.timestamp - last < window:
            continue
        last_kept[key] = entry.timestamp
        kept.append(entry)
    return kept


@dataclass(slots=True)
class OriginatorObservation:
    """All (deduped) reverse queries for one originator in one interval.

    ``queriers`` already holds every address, so the two derived views
    are computed lazily and cached until the next append.  The § III-B
    gate reads every observation's ``footprint``, which caches a count
    only; the ``unique_queriers`` set is built for the few gate survivors
    featurization reads, not for each of a long tail of dropped
    originators.
    """

    originator: int
    timestamps: list[float] = field(default_factory=list)
    queriers: list[int] = field(default_factory=list)
    _unique: frozenset[int] | None = field(default=None, repr=False, compare=False)
    _footprint: int = field(default=-1, repr=False, compare=False)

    def add(self, timestamp: float, querier: int) -> None:
        self.timestamps.append(timestamp)
        self.queriers.append(querier)
        self._unique = None
        self._footprint = -1

    def extend_lists(self, timestamps: list[float], queriers: list[int]) -> None:
        """Bulk append from parallel plain lists (block ingest path)."""
        self.timestamps.extend(timestamps)
        self.queriers.extend(queriers)
        self._unique = None
        self._footprint = -1

    @property
    def query_count(self) -> int:
        return len(self.timestamps)

    @property
    def unique_queriers(self) -> frozenset[int]:
        if self._unique is None:
            self._unique = frozenset(self.queriers)
        return self._unique

    @property
    def footprint(self) -> int:
        """Unique querier count — the paper's footprint estimate (§ VI-A)."""
        if self._footprint < 0:
            unique = self._unique if self._unique is not None else set(self.queriers)
            self._footprint = len(unique)
        return self._footprint


@dataclass(slots=True)
class ObservationWindow:
    """One observation interval's worth of grouped originator activity."""

    start: float
    end: float
    observations: dict[int, OriginatorObservation] = field(default_factory=dict)
    prestage: "SketchPreStage | None" = field(default=None, compare=False, repr=False)
    """The probabilistic pre-select summary of this window, when the
    engine ran with ``sketch_enabled`` (see :mod:`repro.sketch.prestage`).
    In sketch mode ``observations`` holds only gate survivors; the
    pre-stage retains approximate counts for everything else."""
    querier_roster: "np.ndarray | None" = field(default=None, compare=False, repr=False)
    """Sorted exact array of *every* querier address seen in the window
    (pre-gate), attached alongside ``prestage``.  Dynamic features
    normalize by the window-wide querier universe, so sketch-mode
    windows carry it explicitly instead of unioning the (survivors-only)
    observations."""

    @property
    def duration_days(self) -> float:
        return (self.end - self.start) / 86400.0

    def originators(self) -> list[int]:
        return list(self.observations)

    def __len__(self) -> int:
        return len(self.observations)

    def __contains__(self, originator: int) -> bool:
        return originator in self.observations

    def get(self, originator: int) -> OriginatorObservation | None:
        return self.observations.get(originator)

    def querier_addrs(self) -> np.ndarray:
        """Sorted distinct querier addresses of the whole window (int64).

        The window-wide querier universe the dynamic features normalize
        by: the sketch pre-stage's exact ``querier_roster`` when the
        window has one (its ``observations`` hold survivors only), else
        one ``np.unique`` over every observation's querier list.
        """
        if self.querier_roster is not None:
            return np.asarray(self.querier_roster, dtype=np.int64)
        observations = self.observations.values()
        flat = np.fromiter(
            chain.from_iterable(o.queriers for o in observations),
            dtype=np.int64,
            count=sum(len(o.queriers) for o in observations),
        )
        return np.unique(flat)


def extend_window_arrays(
    window: ObservationWindow,
    timestamps: np.ndarray,
    queriers: np.ndarray,
    originators: np.ndarray,
) -> None:
    """Append deduped columns into *window*, grouped by originator.

    Observations are created in **first-kept-appearance order** — the
    ``dict`` insertion order of a one-event-at-a-time pass — because
    downstream feature-matrix row order follows it.  A stable argsort by
    originator makes each group's first sorted element its earliest
    appearance, so ordering groups by that original index reproduces the
    sequential insertion sequence.
    """
    if timestamps.size == 0:
        return
    order = np.argsort(originators, kind="stable")
    sorted_orig = originators[order]
    uniq, first = np.unique(sorted_orig, return_index=True)
    bounds = np.append(first, sorted_orig.size).tolist()
    appearance = np.argsort(order[first], kind="stable")
    # Gather each column once in group order; per-group work is then
    # plain list slicing (groups are typically a handful of events, where
    # per-group fancy indexing would dominate the whole pass).
    ts_sorted = timestamps[order].tolist()
    qs_sorted = queriers[order].tolist()
    uniq_list = uniq.tolist()
    observations = window.observations
    for g in appearance.tolist():
        originator = uniq_list[g]
        lo, hi = bounds[g], bounds[g + 1]
        observation = observations.get(originator)
        if observation is None:
            observation = OriginatorObservation(originator=originator)
            observations[originator] = observation
        observation.extend_lists(ts_sorted[lo:hi], qs_sorted[lo:hi])

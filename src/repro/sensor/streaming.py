"""Streaming backscatter collection: the one windowing + dedup body.

Every sensing path — batch, streaming, sketched, sharded, served — feeds
:class:`StreamingCollector` columnar event chunks
(:class:`~repro.logstore.EntryBlock` columns) through
:meth:`~StreamingCollector.ingest_block` or
:meth:`~StreamingCollector.ingest_arrays` — there is no per-entry call.
One chunk flows through:

1. :class:`~repro.sensor.reorder.ReorderFront` — accept / count late /
   release in time order once the watermark passes (§ III-A's "near time
   order");
2. a split at observation-window boundaries (§ III-B's intervals);
3. per window, :func:`~repro.logstore.dedup_mask` with the carried
   last-kept state — or, in sketch mode,
   :meth:`~repro.sketch.prestage.SketchPreStage.observe_arrays`;
4. :func:`~repro.sensor.collection.extend_window_arrays` — survivors
   grouped by originator in first-kept-appearance order.

Semantics, defined once, here:

* **30 s dedup, scoped to the observation window** — repeats of the same
  (querier, originator) pair within ``dedup_window`` seconds of the last
  kept query are dropped (§ III-A's "eliminate duplicate queries from the
  same querier in a 30 s window").  Dedup state resets at window
  boundaries, so every :class:`~repro.sensor.collection.ObservationWindow`
  is a pure function of its own slice of the log.  A burst that straddles
  a boundary therefore starts a fresh dedup scope in the new window; the
  edge effect is at most one extra kept query per pair per boundary,
  negligible against day-to-week windows, and in exchange windows are
  reproducible and shardable in isolation.
* **bounded reordering** — entries may arrive up to ``reorder_slack``
  seconds behind the newest-seen timestamp (network capture reorders
  packets); the front holds them until the watermark passes, so the
  dedup/windowing core always sees a time-ordered stream.  Input whose
  disorder is bounded by the slack yields **identical** windows to a
  sorted batch pass; strictly-late (and non-finite) timestamps are
  counted and dropped rather than corrupting closed windows.
* **chunk invariance** — windows, observation order and stats do not
  depend on how the stream is split into calls.
* **bounded state** — dedup state lives per open window and is pruned as
  the watermark advances, so memory is O(active pairs + buffered slack),
  not O(log).

``tests/test_ingest_properties.py`` checks these against the scalar
oracle :func:`~repro.sensor.collection.dedup_entries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.logstore.ops import dedup_mask
from repro.sensor.collection import (
    DEDUP_WINDOW_SECONDS,
    ObservationWindow,
    extend_window_arrays,
)
from repro.sensor.reorder import Columns, ReorderFront

if TYPE_CHECKING:
    from repro.logstore import EntryBlock
    from repro.sketch.prestage import SketchPreStage

__all__ = ["StreamingStats", "StreamingCollector"]


@dataclass(slots=True)
class StreamingStats:
    """Ingest accounting.

    ``reordered`` counts entries that arrived behind the newest-seen
    timestamp but within ``reorder_slack`` — accepted disorder, the
    reorder buffer's workload.  ``late_dropped`` counts entries beyond
    the slack (or below the origin, or with a non-finite timestamp),
    which are dropped.  ``windows_emitted`` counts a window when the
    collector closes it.  The engine folds every count into its stage
    ledger after each block it feeds and publishes them
    (``repro_stream_*_total``) when a metrics registry is in scope.
    """

    ingested: int = 0
    deduplicated: int = 0
    late_dropped: int = 0
    reordered: int = 0
    windows_emitted: int = 0


class StreamingCollector:
    """Online windowing + dedup over a (nearly) time-ordered entry feed.

    Parameters
    ----------
    window_seconds:
        Observation interval length; windows are aligned to multiples of
        this from ``origin``.
    origin:
        Timestamp where window 0 begins.
    dedup_window:
        Per-(querier, originator) duplicate suppression horizon.  Dedup
        state is scoped to the observation window (see module docstring).
    reorder_slack:
        How far behind the newest-seen timestamp an entry may arrive and
        still be accepted.  Accepted entries are re-ordered internally,
        so any input whose disorder is bounded by the slack produces the
        same windows as sorted input.  Entries later than the slack are
        dropped (counted in ``stats.late_dropped``); windows are only
        emitted once the watermark passes their end, so accepted
        reordering can never mutate an emitted window.
    prestage_factory:
        Optional factory building one
        :class:`~repro.sketch.prestage.SketchPreStage` per observation
        window (sketch mode, single-pass).  When set, the pre-stage
        replaces the exact dedup dict: every processed entry is first
        summarized, ``DUPLICATE`` verdicts are counted as deduplicated,
        ``DEFER`` verdicts are summarized but not materialized, and only
        ``KEEP`` verdicts (promoted originators) build exact
        observations.  Emitted windows carry the pre-stage and its exact
        querier roster (``window.prestage`` / ``window.querier_roster``).
    """

    def __init__(
        self,
        window_seconds: float,
        origin: float = 0.0,
        dedup_window: float = DEDUP_WINDOW_SECONDS,
        reorder_slack: float = 2.0,
        prestage_factory: "Callable[[], SketchPreStage] | None" = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if dedup_window < 0 or reorder_slack < 0:
            raise ValueError("dedup_window and reorder_slack must be non-negative")
        self.window_seconds = window_seconds
        self.origin = origin
        self.dedup_window = dedup_window
        self.reorder_slack = reorder_slack
        self.stats = StreamingStats()
        self._front = ReorderFront(origin=origin, reorder_slack=reorder_slack)
        # Dedup state for the window currently being filled (processing
        # is time-ordered, so only one window accumulates at a time).
        self._dedup_index: int | None = None
        self._last_kept: dict[tuple[int, int], float] = {}
        self._open: dict[int, ObservationWindow] = {}
        self._ready: list[ObservationWindow] = []
        self._prestage_factory = prestage_factory
        self._prestage: "SketchPreStage | None" = None

    # ------------------------------------------------------------------

    def _window_for(self, index: int) -> ObservationWindow:
        window = self._open.get(index)
        if window is None:
            window = ObservationWindow(
                start=self.origin + index * self.window_seconds,
                end=self.origin + (index + 1) * self.window_seconds,
            )
            self._open[index] = window
        return window

    def ingest_block(self, block: "EntryBlock") -> None:
        """Feed one columnar block."""
        self.ingest_arrays(block.timestamps, block.queriers, block.originators)

    def ingest_arrays(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
    ) -> None:
        """Feed parallel event columns in arrival order.

        The front decides lateness and releases what the watermark has
        passed in ``(timestamp, arrival)`` order; the released events are
        then deduped and grouped per observation window.  The result —
        windows, observation order and stats — is the same for any split
        of a stream into calls.
        """
        released = self._front.push(timestamps, queriers, originators)
        self._drain(released, self._front.watermark)

    def advance_watermark(self, timestamp: float) -> None:
        """Advance the watermark to *timestamp* without ingesting anything.

        Lets an external coordinator (e.g. the federation driver, which
        owns the global reorder front) close windows a global watermark
        has passed even when this collector's own feed went quiet.  The
        high water only moves forward; subsequent entries below the new
        watermark are late, exactly as if an event at *timestamp* had
        been ingested.
        """
        released = self._front.advance(timestamp)
        self._drain(released, self._front.watermark)

    # ------------------------------------------------------------------

    def _drain(self, released: Columns, watermark: float) -> None:
        """Everything behind the front: dedup + group *released*, emit
        the windows *watermark* has passed, drop inert dedup state."""
        self._process_arrays(*released)
        front, stats = self._front, self.stats
        stats.ingested = front.ingested
        stats.late_dropped = front.late_dropped
        stats.reordered = front.reordered
        for index in sorted(self._open):
            window = self._open[index]
            if window.end > watermark:
                break
            del self._open[index]
            self._emit(window)
        # Every later released event has timestamp >= watermark, so a pair
        # can still suppress only while ``watermark - ts < window`` — the
        # scalar keep predicate's exact float expression (a precomputed
        # horizon rounds differently near the boundary).  Pruned on every
        # call: ``dedup_mask``'s per-chunk cost grows with the carry size.
        if self._last_kept:
            dedup_window = self.dedup_window
            self._last_kept = {
                key: ts
                for key, ts in self._last_kept.items()
                if watermark - ts < dedup_window
            }

    def _enter_window(self, index: int) -> None:
        """Reset dedup scope on entering a new observation window."""
        # Time-ordered processing ⇒ indices never go back.
        self._dedup_index = index
        self._last_kept = {}
        if self._prestage_factory is not None:
            self._prestage = self._prestage_factory()

    def _process_arrays(
        self, ts: np.ndarray, qs: np.ndarray, os_: np.ndarray
    ) -> None:
        """Dedup + group a time-ordered released pool.

        Splits the pool at observation-window boundaries (timestamps are
        sorted, so the window index column is non-decreasing), resets
        the dedup scope on entering each window, and runs the vectorized
        dedup with ``_last_kept`` as carry state so a window fed across
        many chunks dedups identically to one pass.  Sketch mode routes
        each window segment through the pre-stage instead.
        """
        if ts.size == 0:
            return
        indices = np.floor_divide(ts - self.origin, self.window_seconds).astype(
            np.int64
        )
        uniq, bounds = np.unique(indices, return_index=True)
        bounds = np.append(bounds, ts.size)
        for k in range(int(uniq.size)):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            index = int(uniq[k])
            if index != self._dedup_index:
                self._enter_window(index)
            if self._prestage is not None:
                self._process_sketched_arrays(
                    ts[lo:hi], qs[lo:hi], os_[lo:hi], index
                )
                continue
            w_ts = ts[lo:hi]
            w_qs = qs[lo:hi]
            w_os = os_[lo:hi]
            mask, updates = dedup_mask(
                w_ts, w_qs, w_os, self.dedup_window, carry=self._last_kept
            )
            kept = int(np.count_nonzero(mask))
            self.stats.deduplicated += (hi - lo) - kept
            if kept == 0:
                continue
            self._last_kept.update(updates)
            window = self._window_for(index)
            extend_window_arrays(window, w_ts[mask], w_qs[mask], w_os[mask])

    def _process_sketched_arrays(
        self, ts: np.ndarray, qs: np.ndarray, os_: np.ndarray, index: int
    ) -> None:
        """Sketch mode: summarize first, materialize only KEEP verdicts.

        The pre-stage's bucketed Bloom filter takes over duplicate
        suppression, so the exact ``_last_kept`` dict never grows — the
        constant-memory property sketch mode exists for.  DUPLICATEs
        accrue to ``stats.deduplicated``, any non-duplicate opens the
        window and attaches the pre-stage, DEFERs are summarized only,
        and KEEP events materialize in first-promotion order via
        :func:`~repro.sensor.collection.extend_window_arrays`.
        """
        from repro.sketch.prestage import DUPLICATE_CODE

        codes, kept = self._prestage.observe_arrays(ts, qs, os_)
        duplicates = int(np.count_nonzero(codes == DUPLICATE_CODE))
        self.stats.deduplicated += duplicates
        if duplicates == ts.size:
            return
        window = self._window_for(index)
        if window.prestage is None:
            window.prestage = self._prestage
        if kept.size:
            extend_window_arrays(window, ts[kept], qs[kept], os_[kept])

    def _emit(self, window: ObservationWindow) -> None:
        if window.prestage is not None and window.querier_roster is None:
            window.querier_roster = window.prestage.roster_array()
        self.stats.windows_emitted += 1
        self._ready.append(window)

    # ------------------------------------------------------------------

    def completed_windows(self) -> list[ObservationWindow]:
        """Windows finished so far (drains the internal queue)."""
        out = self._ready
        self._ready = []
        return out

    def flush(self) -> list[ObservationWindow]:
        """Close and return every still-open window (end of stream)."""
        self._drain(self._front.flush(), float("inf"))
        return self.completed_windows()

    @property
    def pending_windows(self) -> int:
        return len(self._open)

    @property
    def pending_entries(self) -> int:
        """Entries buffered awaiting the watermark (reorder slack)."""
        return self._front.pending_entries

    @property
    def dedup_state_size(self) -> int:
        return len(self._last_kept)

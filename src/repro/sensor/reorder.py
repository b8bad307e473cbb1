"""The accept/release front: § III-A's "accepted in near time order".

:class:`ReorderFront` is the one place lateness, reordering and the
watermark are decided.  A :class:`~repro.sensor.streaming.StreamingCollector`
owns one; the federation driver owns one for all its shards (whose own
collectors then run with zero slack).  Events go in as parallel columns
in arrival order and come out, once the watermark (newest timestamp
minus ``reorder_slack``) has passed them, in ``(timestamp, arrival)``
order — so everything behind the front sees a time-ordered stream, and
input whose disorder stays within the slack yields the same output as a
sorted pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReorderFront"]

Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _no_events() -> Columns:
    return (
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )


class ReorderFront:
    """Accept, count and time-order incoming ``(t, querier, originator)``.

    Dropped and counted in ``late_dropped``: events below ``origin``,
    events more than ``reorder_slack`` behind the newest timestamp seen
    *before* them, and events whose timestamp is not finite (an ``inf``
    would close every window and make all later traffic late; a NaN
    would never release).  ``reordered`` counts accepted events that
    arrived behind the newest-seen timestamp.
    """

    def __init__(self, origin: float = 0.0, reorder_slack: float = 2.0) -> None:
        if reorder_slack < 0:
            raise ValueError("reorder_slack must be non-negative")
        self.origin = origin
        self.reorder_slack = reorder_slack
        self.ingested = 0
        self.late_dropped = 0
        self.reordered = 0
        self._high_water = float("-inf")
        # Accepted events the watermark has not passed yet, as columns in
        # arrival order: a stable sort on timestamp alone then releases
        # ties in arrival order, for any chunking of the input.
        self._pending = _no_events()

    @property
    def high_water(self) -> float:
        return self._high_water

    @property
    def watermark(self) -> float:
        return self._high_water - self.reorder_slack

    @property
    def pending_entries(self) -> int:
        return int(self._pending[0].size)

    def push(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
    ) -> Columns:
        """Accept a chunk; return everything now releasable, time-ordered."""
        ts = np.ascontiguousarray(timestamps, dtype=np.float64)
        qs = np.ascontiguousarray(queriers, dtype=np.int64)
        os_ = np.ascontiguousarray(originators, dtype=np.int64)
        self.ingested += int(ts.size)
        finite = np.isfinite(ts)
        if not finite.all():
            self.late_dropped += int(ts.size - np.count_nonzero(finite))
            ts, qs, os_ = ts[finite], qs[finite], os_[finite]
        n = int(ts.size)
        if n == 0:
            return _no_events()
        # High water *before* each event: the running max shifted by
        # one, seeded with the high water from earlier chunks.  Late
        # events may stay in the running max: anything below the
        # watermark is below the max.
        prev_high = self._high_water
        running = np.maximum.accumulate(ts)
        high_before = np.empty(n, dtype=np.float64)
        high_before[0] = prev_high
        np.maximum(running[:-1], prev_high, out=high_before[1:])
        late = ts < self.origin
        late |= ts < high_before - self.reorder_slack
        n_late = int(np.count_nonzero(late))
        if n_late:
            self.late_dropped += n_late
            if n_late == n:
                return _no_events()
            accepted = ~late
            ts, qs, os_ = ts[accepted], qs[accepted], os_[accepted]
            high_before = high_before[accepted]
        self.reordered += int(np.count_nonzero(ts < high_before))
        # A late event never exceeds the legitimate high water (slack-late
        # is strictly below it; below-origin stays below origin, where no
        # window end, buffered event or dedup horizon is affected).
        self._high_water = max(prev_high, float(running[-1]))
        if self.reorder_slack == 0 and not self.pending_entries:
            # Accepted with zero slack means non-decreasing: arrival
            # order already is release order.
            return ts, qs, os_
        return self._release((ts, qs, os_), self.watermark)

    def advance(self, timestamp: float) -> Columns:
        """Move the high water to *timestamp* (never back) without an
        event; return what the new watermark releases.  Later events
        below that watermark are late, as if an event had arrived."""
        if timestamp > self._high_water:
            self._high_water = timestamp
        return self._release(None, self.watermark)

    def flush(self) -> Columns:
        """Release everything still buffered (end of stream)."""
        return self._release(None, float("inf"))

    def _release(self, arrived: Columns | None, watermark: float) -> Columns:
        """Split pending + *arrived* at *watermark*; sort what leaves."""
        pool = self._pending
        if arrived is not None:
            pool = tuple(np.concatenate(pair) for pair in zip(pool, arrived))
        leaving = pool[0] <= watermark
        self._pending = tuple(column[~leaving] for column in pool)
        out = np.flatnonzero(leaving)
        out = out[np.argsort(pool[0][out], kind="stable")]
        return tuple(column[out] for column in pool)

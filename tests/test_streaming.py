"""Tests for the streaming collector, incl. batch-equivalence property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.streaming import StreamingCollector


def entry(ts: float, querier: int = 1, originator: int = 2) -> QueryLogEntry:
    return QueryLogEntry(timestamp=ts, querier=querier, originator=originator)


def event(ts: float, querier: int = 1, originator: int = 2) -> EntryBlock:
    """One event as a one-row block."""
    return EntryBlock.from_arrays([ts], [querier], [originator])


class TestWindowing:
    def test_windows_emitted_at_boundaries(self):
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=0.0)
        collector.ingest_block(event(10.0))
        assert collector.pending_windows == 1
        collector.ingest_block(event(150.0))  # crosses into window 1
        done = collector.completed_windows()
        assert len(done) == 1
        assert done[0].start == 0.0 and done[0].end == 100.0
        assert 2 in done[0]

    def test_flush_closes_open_windows(self):
        collector = StreamingCollector(window_seconds=100.0)
        collector.ingest_block(event(10.0))
        collector.ingest_block(event(110.0))
        done = collector.flush()
        assert len(done) == 2
        assert collector.pending_windows == 0

    def test_callback_invoked(self):
        # The window-close hook is the engine's: one call per closed window.
        seen = []
        engine = SensorEngine(
            config=SensorConfig(window_seconds=50.0, reorder_slack=0.0)
        )
        engine.on_window(seen.append)
        engine.ingest_block(event(0.0))
        engine.ingest_block(event(60.0))
        sensed = engine.poll()
        assert len(seen) == 1 and seen == sensed
        assert (seen[0].window.start, seen[0].window.end) == (0.0, 50.0)

    def test_window_alignment_with_origin(self):
        collector = StreamingCollector(window_seconds=100.0, origin=1000.0)
        collector.ingest_block(event(1010.0))
        window = collector.flush()[0]
        assert window.start == 1000.0 and window.end == 1100.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            StreamingCollector(window_seconds=0.0)
        with pytest.raises(ValueError):
            StreamingCollector(window_seconds=1.0, dedup_window=-1.0)


class TestDedupAndLateness:
    def test_online_dedup(self):
        collector = StreamingCollector(window_seconds=1000.0)
        collector.ingest_block(event(0.0))
        collector.ingest_block(event(10.0))
        collector.ingest_block(event(40.0))
        assert collector.stats.deduplicated == 1
        window = collector.flush()[0]
        assert window.observations[2].query_count == 2

    def test_strictly_late_entries_dropped(self):
        collector = StreamingCollector(window_seconds=1000.0, reorder_slack=2.0)
        collector.ingest_block(event(100.0))
        collector.ingest_block(event(50.0))  # 50s late, slack is 2s
        assert collector.stats.late_dropped == 1

    def test_slightly_reordered_accepted(self):
        collector = StreamingCollector(window_seconds=1000.0, reorder_slack=5.0)
        collector.ingest_block(event(100.0, querier=1))
        collector.ingest_block(event(97.0, querier=2))
        assert collector.stats.late_dropped == 0
        window = collector.flush()[0]
        assert window.observations[2].footprint == 2

    def test_pre_origin_entries_dropped(self):
        collector = StreamingCollector(window_seconds=100.0, origin=1000.0)
        collector.ingest_block(event(500.0))
        assert collector.stats.late_dropped == 1
        assert collector.pending_windows == 0

    def test_emitted_windows_never_mutated(self):
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=2.0)
        collector.ingest_block(event(10.0))
        collector.ingest_block(event(200.0))
        first = collector.completed_windows()[0]
        count_before = first.observations[2].query_count
        # This entry belongs to the emitted window but is beyond slack.
        collector.ingest_block(event(20.0, querier=9))
        assert first.observations[2].query_count == count_before
        assert collector.stats.late_dropped == 1

    def test_dedup_state_pruned(self):
        collector = StreamingCollector(window_seconds=50.0, reorder_slack=0.0)
        ids = np.arange(5000)
        collector.ingest_block(EntryBlock.from_arrays(ids.astype(float), ids, ids))
        assert collector.dedup_state_size < 5000

    def test_dedup_state_bounded_on_block_fed_long_stream(self):
        # Regression: on the block-fed (ingest_arrays) path inside one
        # long observation window, ``_last_kept`` must stay bounded by
        # the pairs still inside the 30 s dedup horizon — not grow with
        # every distinct pair the stream ever carried.
        dedup = 30.0
        collector = StreamingCollector(
            window_seconds=3000.0, reorder_slack=0.0, dedup_window=dedup
        )
        chunk = 200
        rate = 10.0  # events per second, all distinct pairs
        high_water_state = 0
        for c in range(100):  # 20,000 events over 2,000 s, one window
            base = c * chunk
            ts = base / rate + np.arange(chunk) / rate
            qs = np.arange(base, base + chunk, dtype=np.int64)
            os_ = np.full(chunk, 7, dtype=np.int64)
            collector.ingest_arrays(ts, qs, os_)
            high_water_state = max(high_water_state, collector.dedup_state_size)
        # Live bound: ``rate * dedup`` pairs can still suppress; the
        # state is pruned on every call.
        assert high_water_state <= int(rate * dedup) + 1
        assert collector.dedup_state_size <= int(rate * dedup) + 1

    def test_dedup_state_bounded_across_ten_windows(self):
        # Ten observation windows, block-fed; window entry resets dedup
        # scope, and within each window the prune keeps only live pairs.
        dedup = 30.0
        collector = StreamingCollector(
            window_seconds=100.0, reorder_slack=0.0, dedup_window=dedup
        )
        chunk = 250
        rate = 10.0
        for c in range(40):  # 10,000 events over 1,000 s = 10 windows
            base = c * chunk
            ts = base / rate + np.arange(chunk) / rate
            qs = np.arange(base, base + chunk, dtype=np.int64)
            os_ = np.full(chunk, 7, dtype=np.int64)
            collector.ingest_arrays(ts, qs, os_)
            assert collector.dedup_state_size <= int(rate * dedup) + 1
        assert len(collector.flush()) == 10

    def test_advance_watermark_closes_windows_without_input(self):
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=0.0)
        collector.ingest_block(event(10.0))
        assert collector.completed_windows() == []
        collector.advance_watermark(250.0)
        done = collector.completed_windows()
        assert len(done) == 1
        assert (done[0].start, done[0].end) == (0.0, 100.0)
        # The high water only moves forward; an entry below it is late.
        collector.advance_watermark(50.0)
        collector.ingest_block(event(60.0))
        assert collector.stats.late_dropped == 1


class TestBatchEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=950, allow_nan=False),
                st.integers(1, 4),
                st.integers(1, 3),
            ),
            max_size=80,
        )
    )
    def test_matches_batch_collection(self, raw):
        entries = [entry(t, q, o) for t, q, o in sorted(raw, key=lambda r: r[0])]
        collector = StreamingCollector(window_seconds=250.0, reorder_slack=0.0)
        collector.ingest_block(EntryBlock.from_entries(entries))
        streamed = {
            (w.start, w.end): w for w in collector.flush() if len(w)
        }
        # Canonical semantics: each streamed window equals the batch
        # one-window collect on that window's boundaries (dedup state is
        # scoped to the observation window — see sensor/streaming.py).
        for (start, end), window in streamed.items():
            batch = SensorEngine().collect(entries, start, end)
            assert set(window.observations) == set(batch.observations)
            for originator, observation in window.observations.items():
                expected = batch.observations[originator]
                assert observation.timestamps == expected.timestamps
                assert observation.queriers == expected.queriers

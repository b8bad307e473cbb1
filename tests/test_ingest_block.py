"""Chunk invariance of block ingest, end to end.

There is one ingest path — columnar :class:`~repro.logstore.EntryBlock`
chunks — so "per entry" here means chunk size 1 (``block[i : i + 1]``).
These tests pin that windows, observation order, and stats are
**bit-identical** for every split of a stream — on adversarial logs with
timestamp ties, window-boundary straddles, disorder within the reorder
slack, and strictly-late drops — and that list and block inputs to the
batch calls give the same result.  (The semantics themselves are
checked against scalar models in ``test_ingest_properties.py``.)  Also
pins: the one-window batch call against the scalar dedup oracle, upfront
order validation, the lazily-cached unique-querier view, and
deterministic arrival-order release of reorder-buffer ties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.sensor.collection import OriginatorObservation, dedup_entries
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.streaming import StreamingCollector


def make_entries(rows):
    return [QueryLogEntry(timestamp=t, querier=q, originator=o) for t, q, o in rows]


def window_signature(window):
    """Everything downstream stages consume, including dict order."""
    return (
        window.start,
        window.end,
        [
            (originator, tuple(obs.timestamps), tuple(obs.queriers))
            for originator, obs in window.observations.items()
        ],
    )


def stats_signature(stats):
    return (
        stats.ingested,
        stats.deduplicated,
        stats.late_dropped,
        stats.reordered,
        stats.windows_emitted,
    )


# Coarse timestamps force ties and near-horizon gaps; tiny id spaces
# force pair collisions — the adversarial regime for dedup and ordering.
rows_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=90.0).map(lambda t: round(t, 1)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=50,
)


def one_at_a_time(collector, entries):
    block = EntryBlock.from_entries(entries)
    for i in range(len(block)):
        collector.ingest_block(block[i : i + 1])


def oracle_window(entries, start, end, dedup_window):
    """(start, end, groups) of § III-A/B by the scalar dedup oracle:
    in-range entries deduped, grouped by originator in first-kept order."""
    groups: dict[int, tuple[list, list]] = {}
    in_range = [e for e in entries if start <= e.timestamp < end]
    for e in dedup_entries(in_range, dedup_window):
        timestamps, queriers = groups.setdefault(e.originator, ([], []))
        timestamps.append(e.timestamp)
        queriers.append(e.querier)
    return start, end, [(o, tuple(ts), tuple(qs)) for o, (ts, qs) in groups.items()]


class TestCollectBlock:
    @given(
        rows_strategy,
        st.sampled_from([0.0, 1.0, 30.0]),
        st.sampled_from([(0.0, 100.0), (20.0, 60.0)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_collect_is_the_oracle_over_its_range(self, rows, dedup_window, span):
        # (20, 60) lies strictly inside the data span: out-of-range
        # entries on both sides must be filtered before dedup.
        rows.sort(key=lambda r: r[0])
        entries = make_entries(rows)
        engine = SensorEngine(config=SensorConfig(dedup_window=dedup_window))
        window = engine.collect(EntryBlock.from_entries(entries), *span)
        assert window_signature(window) == oracle_window(entries, *span, dedup_window)

    def test_unsorted_input_raises_before_building_state(self):
        """Regression: unsorted in-range input used to raise
        mid-iteration, after part of the window was already built; order
        is now validated upfront for both input forms."""
        entries = make_entries([(5.0, 1, 1), (3.0, 2, 2), (7.0, 3, 3)])
        engine = SensorEngine()
        with pytest.raises(ValueError, match="not time-ordered"):
            engine.collect(entries, 0.0, 10.0)
        with pytest.raises(ValueError, match="not time-ordered"):
            engine.collect(EntryBlock.from_entries(entries), 0.0, 10.0)
        assert all(stage.items_in == 0 for stage in engine.accounting())

    def test_unsorted_outside_range_is_harmless(self):
        # Disorder confined to out-of-range entries doesn't affect the
        # window and is not an error.
        entries = make_entries([(50.0, 1, 1), (2.0, 2, 2), (5.0, 3, 3)])
        window = SensorEngine().collect(entries, 4.0, 10.0)
        assert len(window) == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="end must be after start"):
            SensorEngine().collect([], 10.0, 10.0)
        with pytest.raises(ValueError, match="non-negative"):
            SensorConfig(dedup_window=-1.0)


class TestStreamingBlockEquivalence:
    @given(
        rows_strategy,
        st.sampled_from([0.0, 2.0, 5.0]),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunked_block_matches_per_entry(self, rows, slack, chunk):
        """Same stream (disorder, late drops, ties and all) fed one event
        per call and in chunks."""
        entries = make_entries(rows)
        scalar = StreamingCollector(20.0, reorder_slack=slack)
        one_at_a_time(scalar, entries)
        scalar_windows = scalar.completed_windows() + scalar.flush()

        block = StreamingCollector(20.0, reorder_slack=slack)
        for lo in range(0, len(entries), chunk):
            block.ingest_block(EntryBlock.from_entries(entries[lo : lo + chunk]))
        block_windows = block.completed_windows() + block.flush()

        assert [window_signature(w) for w in block_windows] == [
            window_signature(w) for w in scalar_windows
        ]
        assert stats_signature(block.stats) == stats_signature(scalar.stats)

    def test_tie_release_is_arrival_order(self):
        """Equal timestamps held in the reorder buffer release
        in arrival order, even across chunk boundaries."""
        rows = [(10.0, 1, 1), (10.0, 2, 1), (10.0, 3, 1), (10.0, 4, 1)]
        for chunk in (1, 2, 4):
            collector = StreamingCollector(20.0, reorder_slack=5.0)
            for lo in range(0, len(rows), chunk):
                collector.ingest_block(
                    EntryBlock.from_entries(make_entries(rows[lo : lo + chunk]))
                )
            (window,) = collector.flush()
            (obs,) = window.observations.values()
            assert obs.queriers == [1, 2, 3, 4], f"chunk={chunk}"

    def test_late_drops_counted_identically(self):
        rows = [(30.0, 1, 1), (5.0, 2, 2), (31.0, 3, 3)]  # 5.0 is > slack late
        scalar = StreamingCollector(20.0, reorder_slack=2.0)
        one_at_a_time(scalar, make_entries(rows))
        block = StreamingCollector(20.0, reorder_slack=2.0)
        block.ingest_block(EntryBlock.from_entries(make_entries(rows)))
        assert scalar.stats.late_dropped == block.stats.late_dropped == 1
        assert stats_signature(block.stats) == stats_signature(scalar.stats)


class TestEngineBlockEquivalence:
    @pytest.mark.parametrize("sketch", [False, True])
    def test_windows_batch_block_matches_object(self, sketch):
        rng = np.random.default_rng(7)
        n = 4000
        rows = sorted(
            zip(
                (rng.random(n) * 80.0).round(1).tolist(),
                rng.integers(0, 40, n).tolist(),
                rng.integers(0, 12, n).tolist(),
            )
        )
        entries = make_entries(rows)
        config = SensorConfig(
            window_seconds=20.0,
            min_queriers=2,
            sketch_enabled=sketch,
            sketch_capacity=4 * n,
        )
        via_objects = SensorEngine(config=config).windows(entries, 0.0, 80.0)
        via_block = SensorEngine(config=config).windows(
            EntryBlock.from_entries(entries), 0.0, 80.0
        )
        assert [window_signature(w) for w in via_block] == [
            window_signature(w) for w in via_objects
        ]

    def test_windows_rejects_unsorted_block(self):
        block = EntryBlock.from_entries(make_entries([(5.0, 1, 1), (3.0, 2, 2)]))
        with pytest.raises(ValueError, match="not time-ordered"):
            SensorEngine(config=SensorConfig(window_seconds=10.0)).windows(
                block, 0.0, 10.0
            )


class TestLazyUniqueQueriers:
    """The unique-querier set is computed on demand and cached,
    not materialized alongside every append."""

    def test_not_materialized_by_add(self):
        obs = OriginatorObservation(originator=1)
        obs.add(1.0, 10)
        obs.add(2.0, 10)
        assert obs._unique is None

    def test_cached_after_first_read_and_invalidated_by_writes(self):
        obs = OriginatorObservation(originator=1)
        obs.add(1.0, 10)
        assert obs.footprint == 1
        assert obs._unique is None  # footprint caches a count, not the set
        cached = obs.unique_queriers
        assert obs._unique is cached
        assert obs.unique_queriers is cached  # no recompute
        obs.add(2.0, 11)
        assert obs._unique is None  # add invalidates
        assert obs.footprint == 2
        obs.extend_lists([3.0], [11])
        assert obs._unique is None  # bulk append invalidates
        assert obs.footprint == 2

    def test_footprint_count_invalidated_by_writes(self):
        obs = OriginatorObservation(originator=1)
        obs.add(1.0, 10)
        assert obs.footprint == 1
        obs.add(2.0, 11)
        assert obs.footprint == 2
        obs.extend_lists([3.0, 4.0], [12, 10])
        assert obs.footprint == 3
        # The gate's read builds no set; the survivors' set agrees.
        assert obs._unique is None
        assert len(obs.unique_queriers) == obs.footprint
        obs.add(5.0, 13)
        assert obs.footprint == 4

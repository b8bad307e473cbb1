"""Properties of the one ingest path, stated against scalar models.

The sensor has a single collection body — ``ReorderFront`` → window
split → ``dedup_mask`` → ``extend_window_arrays`` — so these tests do
not compare it with a twin.  They hold it to what the paper says:

* § III-A, "near time order": the front against a per-event model
  written out below (lateness, reorder count, release order);
* § III-A, 30 s dedup per observation interval: every emitted window
  against :func:`repro.sensor.collection.dedup_entries` (the oracle)
  over that window's accepted events in time order;
* § III-B, the analyzability gate: :func:`repro.sensor.selection.analyzable`
  against a brute-force distinct-querier count.

Each holds for any split of the stream into ingest calls, all-ones
included.  The last class is the regression for non-finite timestamps
arriving from outside (a feed line ``inf …``, an ``.rbsc`` frame of NaN).
"""

from __future__ import annotations

import asyncio
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.dnstap import MAGIC, VERSION
from repro.dnssim.message import QueryLogEntry
from repro.federation import FederatedSensor
from repro.logstore import EntryBlock
from repro.netmodel.world import NameStatus
from repro.sensor import ReorderFront
from repro.sensor.collection import dedup_entries
from repro.sensor.directory import FrozenDirectory, QuerierInfo
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.selection import analyzable
from repro.sensor.streaming import StreamingCollector
from repro.service import BackscatterService, FeedReader, ServiceConfig

WIDTH = 20.0
ORIGIN = 5.0

# Coarse timestamps force ties and near-horizon gaps, a few fall below the
# origin, tiny id spaces force pair collisions.
events_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=90.0).map(lambda t: round(t, 1)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=50,
)
slack_strategy = st.sampled_from([0.0, 2.0, 5.0])


@st.composite
def splits(draw, n: int) -> list[tuple[int, int]]:
    """Any split of ``range(n)`` into consecutive chunks (ones included)."""
    if draw(st.booleans()):
        cuts = list(range(n + 1))
    else:
        cuts = sorted({0, n, *draw(st.lists(st.integers(0, n), max_size=8))})
    return list(zip(cuts, cuts[1:]))


@st.composite
def stream_and_split(draw):
    events = draw(events_strategy)
    return events, draw(splits(len(events)))


def columns(events, lo, hi):
    part = events[lo:hi]
    return (
        np.array([e[0] for e in part], dtype=np.float64),
        np.array([e[1] for e in part], dtype=np.int64),
        np.array([e[2] for e in part], dtype=np.int64),
    )


def front_model(events, origin, slack):
    """§ III-A acceptance, one event at a time: (late, reordered, accepted)."""
    high, late, reordered, accepted = float("-inf"), 0, 0, []
    for arrival, (t, q, o) in enumerate(events):
        if not math.isfinite(t) or t < origin or t < high - slack:
            late += 1
            continue
        reordered += t < high
        high = max(high, t)
        accepted.append((t, arrival, q, o))
    return late, reordered, accepted


class TestReorderFrontProperties:
    @given(stream_and_split(), slack_strategy)
    @settings(max_examples=200, deadline=None)
    def test_release_is_the_model_in_time_then_arrival_order(self, drawn, slack):
        events, split = drawn
        # Querier column = arrival index, so the released rows name
        # their own arrival order.
        events = [(t, i, o) for i, (t, _, o) in enumerate(events)]
        late, reordered, accepted = front_model(events, ORIGIN, slack)
        front = ReorderFront(origin=ORIGIN, reorder_slack=slack)
        released: list[tuple[float, int, int]] = []
        fed = 0
        for lo, hi in split:
            out = front.push(*columns(events, lo, hi))
            released += zip(*(column.tolist() for column in out))
            fed = hi
            # Conservation at every step, and nothing held that the
            # watermark has passed.
            assert front.ingested == fed
            assert (
                len(released) + front.pending_entries + front.late_dropped == fed
            )
            seen_late, _, seen = front_model(events[:fed], ORIGIN, slack)
            assert front.late_dropped == seen_late
            passed = sorted(e for e in seen if e[0] <= front.watermark)
            assert released == [(t, i, o) for t, i, _, o in passed]
        released += zip(*(column.tolist() for column in front.flush()))
        assert front.pending_entries == 0
        assert (front.late_dropped, front.reordered) == (late, reordered)
        # Non-decreasing, ties in arrival order, nothing lost or invented:
        # exactly the accepted events sorted by (timestamp, arrival) — the
        # same for every split.
        assert released == [(t, i, o) for t, i, _, o in sorted(accepted)]

    def test_advance_releases_and_makes_older_events_late(self):
        front = ReorderFront(origin=0.0, reorder_slack=5.0)
        out = front.push(*columns([(10.0, 1, 1), (8.0, 2, 1), (12.0, 3, 1)], 0, 3))
        assert out[0].tolist() == []  # watermark 7.0: all still held
        assert front.pending_entries == 3
        out = front.advance(16.0)  # watermark 11.0
        assert out[0].tolist() == [8.0, 10.0] and out[1].tolist() == [2, 1]
        assert front.advance(3.0)[0].size == 0  # never moves back
        assert front.high_water == 16.0
        front.push(*columns([(10.5, 4, 1)], 0, 1))  # behind the watermark now
        assert front.late_dropped == 1
        assert front.flush()[0].tolist() == [12.0]


def expected_windows(events, slack, dedup_window):
    """§ III-A by the book: accepted events in (time, arrival) order, cut
    into observation intervals, each deduped by the scalar oracle."""
    _, _, accepted = front_model(events, ORIGIN, slack)
    by_index: dict[int, list[QueryLogEntry]] = {}
    for t, _, q, o in sorted(accepted):
        by_index.setdefault(int((t - ORIGIN) // WIDTH), []).append(
            QueryLogEntry(timestamp=t, querier=q, originator=o)
        )
    return {
        index: dedup_entries(entries, dedup_window)
        for index, entries in by_index.items()
    }


def kept_by_originator(kept):
    """A kept-event list as the window stores it: per originator, in
    first-kept-appearance order."""
    grouped: dict[int, tuple[list[float], list[int]]] = {}
    for entry in kept:
        ts, qs = grouped.setdefault(entry.originator, ([], []))
        ts.append(entry.timestamp)
        qs.append(entry.querier)
    return [(o, ts, qs) for o, (ts, qs) in grouped.items()]


class TestCollectorDedupProperty:
    @given(stream_and_split(), slack_strategy, st.sampled_from([0.0, 1.0, 30.0]))
    @settings(max_examples=200, deadline=None)
    def test_each_window_is_the_oracle_over_its_accepted_events(
        self, drawn, slack, dedup_window
    ):
        events, split = drawn
        collector = StreamingCollector(
            WIDTH, origin=ORIGIN, dedup_window=dedup_window, reorder_slack=slack
        )
        windows = []
        for lo, hi in split:
            collector.ingest_arrays(*columns(events, lo, hi))
            windows += collector.completed_windows()
        windows += collector.flush()

        expected = expected_windows(events, slack, dedup_window)
        assert [w.start for w in windows] == [
            ORIGIN + index * WIDTH for index in sorted(expected)
        ]
        for window, index in zip(windows, sorted(expected)):
            assert window.end == window.start + WIDTH
            got = [
                (o, obs.timestamps, obs.queriers)
                for o, obs in window.observations.items()
            ]
            assert got == kept_by_originator(expected[index])
        late, reordered, accepted = front_model(events, ORIGIN, slack)
        kept = sum(len(entries) for entries in expected.values())
        stats = collector.stats
        assert (stats.ingested, stats.late_dropped, stats.reordered) == (
            len(events), late, reordered,
        )
        assert stats.deduplicated == len(accepted) - kept
        assert stats.windows_emitted == len(expected)


class TestAnalyzableGateProperty:
    @given(events_strategy, st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_gate_is_a_distinct_querier_count_over_kept_events(
        self, events, min_queriers
    ):
        events.sort(key=lambda e: e[0])
        block = EntryBlock.from_arrays(*columns(events, 0, len(events)))
        window = SensorEngine(config=SensorConfig()).collect(block, 0.0, 100.0)
        kept = dedup_entries(list(block), 30.0)
        queriers: dict[int, set[int]] = {}
        for entry in kept:
            queriers.setdefault(entry.originator, set()).add(entry.querier)
        # Dict order is first-kept-appearance order; the gate keeps it.
        want = [o for o, qs in queriers.items() if len(qs) >= min_queriers]
        got = analyzable(window, min_queriers)
        assert [obs.originator for obs in got] == want
        assert [obs.footprint for obs in got] == [len(queriers[o]) for o in want]


# -- non-finite timestamps from outside --------------------------------------


def clean_rows(windows: int = 3, width: float = 100.0):
    rng = np.random.default_rng(3)
    rows = [
        (w * width + float(rng.uniform(0.0, width - 1.0)), 100 + (o * 13 + k * 7) % 40, o)
        for w in range(windows)
        for o in range(1, 7)
        for k in range(8)
    ]
    rows.sort()
    return rows


def poisoned(rows):
    """*rows* with one ``inf``, one ``-inf`` and one NaN spliced in."""
    out = list(rows)
    out.insert(len(out) // 3, (float("inf"), 101, 1))
    out.insert(len(out) // 2, (float("nan"), 102, 2))
    out.insert(2 * len(out) // 3, (float("-inf"), 103, 3))
    return out


def window_signature(window):
    return (
        window.start,
        window.end,
        [(o, obs.timestamps, obs.queriers) for o, obs in window.observations.items()],
    )


class TestNonFiniteTimestamps:
    """One bad timestamp used to set the high water to ``inf``: every open
    window closed at once and all later traffic was dropped as late."""

    @pytest.mark.parametrize("chunk", [1, 17, 10_000])
    def test_collector_feed_continues(self, chunk):
        rows, bad = clean_rows(), poisoned(clean_rows())
        clean = StreamingCollector(100.0)
        clean.ingest_arrays(*columns(rows, 0, len(rows)))
        dirty = StreamingCollector(100.0)
        with np.errstate(invalid="raise"):  # no NaN reaches the window cast
            for lo in range(0, len(bad), chunk):
                dirty.ingest_arrays(*columns(bad, lo, lo + chunk))
        assert dirty.pending_entries == clean.pending_entries
        want = [window_signature(w) for w in clean.completed_windows() + clean.flush()]
        got = [window_signature(w) for w in dirty.completed_windows() + dirty.flush()]
        assert got == want and len(got) == 3
        assert dirty.stats.ingested == len(rows) + 3
        assert dirty.stats.late_dropped == clean.stats.late_dropped + 3
        assert dirty.stats.deduplicated == clean.stats.deduplicated
        assert dirty.stats.reordered == clean.stats.reordered

    def test_federated_feed_continues(self):
        rows, bad = clean_rows(), poisoned(clean_rows())
        directory = FrozenDirectory(
            QuerierInfo(addr=q, name=f"host{q}.example.net",
                        status=NameStatus.OK, asn=q % 5 + 1, country="jp")
            for q in range(100, 140)
        )
        config = SensorConfig(window_seconds=100.0, min_queriers=3)

        def run(source):
            block = EntryBlock.from_arrays(*columns(source, 0, len(source)))
            with FederatedSensor(directory, config, n_shards=2) as fed:
                merged = []
                for lo in range(0, len(block), 29):
                    fed.ingest_block(block[lo : lo + 29])
                    merged += fed.poll(classify=False)
                merged += fed.finish(classify=False)
                return merged, fed.accounting()

        want, want_stats = run(rows)
        got, got_stats = run(bad)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert (g.window.start, g.window.end, len(g.window)) == (
                w.window.start, w.window.end, len(w.window)
            )
            assert np.array_equal(g.features.originators, w.features.originators)
            assert np.array_equal(g.features.matrix, w.features.matrix)
        ingest, ingest_clean = got_stats[0], want_stats[0]
        assert ingest.items_in == ingest_clean.items_in + 3
        assert ingest.dropped == ingest_clean.dropped + 3
        assert ingest.items_out == ingest_clean.items_out

    @pytest.mark.parametrize("wire", ["text", "rbsc"])
    def test_served_feed_continues(self, wire):
        rows = [(round(t, 3), q, o) for t, q, o in clean_rows()]

        def encode(source) -> bytes:
            if wire == "text":
                from repro.netmodel.addressing import ip_to_reverse_name, ip_to_str

                return "".join(
                    f"{t} {ip_to_str(q)} {ip_to_reverse_name(o)}\n" for t, q, o in source
                ).encode("ascii")
            return struct.pack(">4sH", MAGIC, VERSION) + b"".join(
                struct.pack(">H", 16) + struct.pack(">dII", t, q, o) for t, q, o in source
            )

        def serve(payload: bytes):
            sensed = []

            async def run():
                service = BackscatterService(
                    None,
                    ServiceConfig(port=0, sensor=SensorConfig(window_seconds=100.0)),
                )
                service.engine.on_window(sensed.append)
                await service.start()
                reader = FeedReader("auto")
                for lo in range(0, len(payload), 301):
                    service.submit_block(reader.feed(payload[lo : lo + 301]))
                service.submit_block(reader.close())
                await service.drain()
                live = len(sensed)
                await service.stop()
                return service, live

            service, live = asyncio.run(run())
            return service, live, [window_signature(s.window) for s in sensed]

        clean, clean_live, want = serve(encode(rows))
        dirty, dirty_live, got = serve(encode(poisoned(rows)))
        # Windows 0 and 1 close while the feed is live, the last at stop.
        assert dirty_live == clean_live == 2
        assert got == want and len(got) == 3
        assert dirty.health()["events"] == clean.health()["events"] + 3
        assert math.isfinite(dirty.health()["feed_lag_seconds"])
        late = lambda service: service.engine.accounting()[0].dropped  # noqa: E731
        assert late(dirty) == late(clean) + 3

"""Streaming sketch: ``observe_arrays`` against its scalar oracle.

Property suite for the array-native ``SketchPreStage.observe_arrays``
path (vectorized dedup + two-tier promotion resolver): verdict sequence,
promoted set, roster and dedup/defer counters must match the per-event
``observe()`` oracle exactly, for any chunk split.  The collector above
it only ever calls ``observe_arrays``, so its tests are chunk-invariance
tests — emitted windows and stats are the same at chunk size 1
(``block[i : i + 1]``) as at any other split, including chunks that
straddle window boundaries and reorder-slack replays.  Also pins the
satellites that ride along: the gate-cache fix (a DUPLICATE verdict no
longer invalidates the cached gate), the ``HllBank`` slot ops the
resolver is built on (``resolve_slots`` / ``estimate_slots`` /
``rows_at`` / ``write_rows_at``), and the resolver's wholesale-vs-replayed
accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.sensor.streaming import StreamingCollector
from repro.sketch.hll import HllBank
from repro.sketch.prestage import (
    DEFER_CODE,
    DUPLICATE,
    KEEP_CODE,
    VERDICT_NAMES,
    SketchParams,
    SketchPreStage,
)


def make_entries(rows):
    return [QueryLogEntry(timestamp=t, querier=q, originator=o) for t, q, o in rows]


def params_for(promote: int, precision: int = 6, dedup: float = 30.0) -> SketchParams:
    return SketchParams(
        hll_precision=precision,
        capacity=4096,
        gate_queriers=max(promote, 4),
        promote_queriers=promote,
        dedup_seconds=dedup,
    )


def prestage_signature(p: SketchPreStage):
    """Everything the collector and the gate consume from a pre-stage."""
    keys, estimates = p.uniques.estimate_all()
    return (
        p.events_unique,
        p.events_duplicate,
        p.events_deferred,
        tuple(sorted(p._promoted)),
        tuple(p.roster_array().tolist()),
        tuple(keys.tolist()),
        tuple(estimates.tolist()),
    )


def window_signature(window):
    """Observation contents + dict order + the attached sketch state."""
    p = window.prestage
    return (
        window.start,
        window.end,
        [
            (originator, tuple(obs.timestamps), tuple(obs.queriers))
            for originator, obs in window.observations.items()
        ],
        None if p is None else prestage_signature(p),
        None
        if window.querier_roster is None
        else tuple(window.querier_roster.tolist()),
    )


def stats_signature(stats):
    return (
        stats.ingested,
        stats.deduplicated,
        stats.late_dropped,
        stats.reordered,
        stats.windows_emitted,
    )


# Coarse timestamps force shared 30 s dedup buckets; tiny id spaces force
# repeated (originator, querier) events — the adversarial regime for the
# Bloom dedup and for promotions landing mid-chunk.
events_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=120.0).map(lambda t: round(t, 1)),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=60,
)


class TestObserveArraysEquivalence:
    @given(
        events_strategy,
        st.sampled_from([1, 2, 4, 8]),
        st.integers(min_value=1, max_value=9),
        st.sampled_from([4, 6]),
        st.sampled_from([0.0, 30.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_verdict_sequence_matches_scalar(
        self, events, promote, chunk, precision, dedup
    ):
        """The load-bearing tentpole property: identical verdicts, state,
        and counters for any chunk split, promote bar, and precision —
        including tiny precisions where the HLL estimator's
        linear-counting/raw switch is most erratic."""
        params = params_for(promote, precision=precision, dedup=dedup)
        scalar = SketchPreStage(params)
        verdicts = [scalar.observe(t, q, o) for t, q, o in events]

        vec = SketchPreStage(params)
        ts = np.array([e[0] for e in events], dtype=np.float64)
        qs = np.array([e[1] for e in events], dtype=np.int64)
        os_ = np.array([e[2] for e in events], dtype=np.int64)
        codes: list[int] = []
        for lo in range(0, len(events), chunk):
            got, kept = vec.observe_arrays(
                ts[lo : lo + chunk], qs[lo : lo + chunk], os_[lo : lo + chunk]
            )
            assert np.array_equal(kept, np.flatnonzero(got == KEEP_CODE))
            codes.extend(got.tolist())

        assert [VERDICT_NAMES[c] for c in codes] == verdicts
        assert prestage_signature(vec) == prestage_signature(scalar)

    def test_resolver_settles_every_originator_chunk_group(self):
        rng = np.random.default_rng(11)
        n = 500
        ts = np.sort(rng.uniform(0.0, 400.0, n))
        qs = rng.integers(0, 30, n)
        os_ = rng.integers(0, 6, n)
        p = SketchPreStage(params_for(4))
        groups = 0
        for lo in range(0, n, 50):
            hi = min(lo + 50, n)
            codes, kept = p.observe_arrays(ts[lo:hi], qs[lo:hi], os_[lo:hi])
            groups += len(np.unique(os_[lo:hi][kept]))
        # Every (originator, chunk) group with kept events is resolved
        # exactly once, by exactly one tier.
        assert p.resolver_wholesale + p.resolver_replayed == groups

    def test_wholesale_vs_replayed_split(self):
        p = SketchPreStage(params_for(2))
        # Chunk 1: originator 7 sees 5 distinct queriers — it must cross
        # the bar inside the chunk, so it is replayed, not settled.
        codes, _ = p.observe_arrays(
            np.arange(5) * 40.0, np.arange(5, dtype=np.int64), np.full(5, 7)
        )
        assert p.resolver_replayed == 1 and p.resolver_wholesale == 0
        assert VERDICT_NAMES[codes[-1]] != DUPLICATE
        assert p.is_promoted(7)
        # Chunk 2: 7 is promoted (wholesale KEEP) and originator 8 sees a
        # single querier (provably below the bar — wholesale DEFER).
        codes, kept = p.observe_arrays(
            np.array([300.0, 340.0]),
            np.array([50, 60], dtype=np.int64),
            np.array([7, 8], dtype=np.int64),
        )
        assert p.resolver_wholesale == 2 and p.resolver_replayed == 1
        assert codes.tolist() == [KEEP_CODE, DEFER_CODE]
        assert not p.is_promoted(8)

    def test_empty_and_all_duplicate_chunks(self):
        p = SketchPreStage(params_for(4))
        codes, kept = p.observe_arrays(
            np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert codes.size == 0 and kept.size == 0
        p.observe(10.0, 1, 2)
        before = prestage_signature(p)
        codes, kept = p.observe_arrays(
            np.array([11.0, 12.0]),
            np.array([1, 1], dtype=np.int64),
            np.array([2, 2], dtype=np.int64),
        )
        assert [VERDICT_NAMES[c] for c in codes] == [DUPLICATE, DUPLICATE]
        assert kept.size == 0
        # Only the duplicate counter moved.
        assert p.events_duplicate == 2
        after = prestage_signature(p)
        assert (after[0],) + after[2:] == (before[0],) + before[2:]


class TestGateCacheFix:
    def test_duplicate_preserves_gate_cache(self):
        """Satellite regression: observe() used to invalidate the cached
        gate before the Bloom duplicate check, so duplicate storms forced
        a full estimate_all sweep per survivors() call."""
        p = SketchPreStage(params_for(1))
        p.observe(0.0, 1, 9)
        p.survivors()  # warm the cache
        assert p._gate_cache is not None
        assert p.observe(1.0, 1, 9) == DUPLICATE  # same 30 s bucket
        assert p._gate_cache is not None
        # A non-duplicate event does invalidate.
        assert p.observe(2.0, 2, 9) != DUPLICATE
        assert p._gate_cache is None


class TestHllBankSubsetOps:
    def _populated_bank(self, n_keys: int = 40) -> HllBank:
        rng = np.random.default_rng(5)
        bank = HllBank(precision=5, seed=3)
        bank.add_batch(
            rng.integers(0, n_keys, 2000), rng.integers(0, 500, 2000)
        )
        return bank

    def test_estimate_slots_matches_estimate(self):
        bank = self._populated_bank()
        keys = np.array([0, 7, 39, 1000, 13, -5], dtype=np.int64)  # incl. unseen
        slots = bank.resolve_slots(keys)
        seen = slots >= 0
        assert seen.tolist() == [True, True, True, False, True, False]
        got = np.zeros(keys.size)
        got[seen] = bank.estimate_slots(slots[seen])
        want = np.array([bank.estimate(int(k)) for k in keys])
        assert np.array_equal(got, want)

    def test_estimate_slots_zero_counts(self):
        bank = self._populated_bank()
        slots = bank.resolve_slots(np.array([3, 999_999], dtype=np.int64))
        estimates, zeros = bank.estimate_slots(slots[:1], with_zeros=True)
        assert estimates[0] == bank.estimate(3)
        assert zeros[0] == int((bank.extract(3).registers == 0).sum())
        # Unseen key: no slot, estimate 0, all m registers zero.
        assert slots[1] == -1
        unseen = bank.extract(999_999)
        assert bank.estimate(999_999) == 0.0
        assert int((unseen.registers == 0).sum()) == unseen.m

    def test_estimate_slots_spans_row_chunks(self):
        bank = HllBank(precision=4, seed=1)
        n = HllBank._CHUNK_ROWS + 123
        keys = np.arange(n, dtype=np.int64)
        bank.add_batch(keys, keys * 31 + 7)
        got = bank.estimate_slots(bank.resolve_slots(keys))
        _, want = bank.estimate_all()
        assert np.array_equal(got, want)

    def test_rows_at_write_rows_at_roundtrip(self):
        bank = self._populated_bank()
        keys = np.array([2, 11, 29], dtype=np.int64)
        slots = bank.resolve_slots(keys)
        snapshot = bank.rows_at(slots)
        untouched = bank.extract(5)
        bank.add_batch(
            np.repeat(keys, 50), np.arange(150, dtype=np.int64) + 10_000
        )
        bank.write_rows_at(slots, snapshot)
        for i, key in enumerate(keys):
            assert np.array_equal(bank.extract(int(key)).registers, snapshot[i])
        assert bank.extract(5) == untouched

    def test_rows_at_is_a_copy_not_a_view(self):
        bank = self._populated_bank()
        keys = np.array([1, 2], dtype=np.int64)
        snapshot = bank.rows_at(bank.resolve_slots(keys))
        frozen = snapshot.copy()
        bank.add_batch(np.repeat(keys, 40), np.arange(80, dtype=np.int64) + 90_000)
        assert np.array_equal(snapshot, frozen)

    def test_create_order_pins_insertion_order(self):
        bank = HllBank(precision=4, seed=0)
        bank.resolve_slots(
            np.array([5, 3, 9], dtype=np.int64), create_order=np.arange(3)
        )
        bank.add_batch(
            np.array([9, 3], dtype=np.int64), np.array([1, 2], dtype=np.int64)
        )
        keys, _ = bank.estimate_all()
        assert keys.tolist() == [5, 3, 9]


# Streaming-collector strategy: 20 s windows over a 90 s span, so chunks
# straddle window boundaries; slack > 0 exercises reorder-buffer replays
# through the sketched path.
rows_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=90.0).map(lambda t: round(t, 1)),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=50,
)


def one_at_a_time(collector, entries):
    block = EntryBlock.from_entries(entries)
    for i in range(len(block)):
        collector.ingest_block(block[i : i + 1])


class TestStreamingCollectorSketchEquivalence:
    def _collector(self, slack: float, promote: int) -> StreamingCollector:
        return StreamingCollector(
            20.0,
            reorder_slack=slack,
            prestage_factory=lambda: SketchPreStage(params_for(promote)),
        )

    @given(
        rows_strategy,
        st.sampled_from([0.0, 2.0, 5.0]),
        st.integers(min_value=1, max_value=7),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunked_sketch_block_matches_per_entry(
        self, rows, slack, chunk, promote
    ):
        """Same sketched stream (disorder, late drops, boundary straddles
        and all) fed one event per call vs in chunks — windows, attached
        pre-stage state, rosters, and stats must all match."""
        entries = make_entries(rows)
        scalar = self._collector(slack, promote)
        one_at_a_time(scalar, entries)
        scalar_windows = scalar.completed_windows() + scalar.flush()

        block = self._collector(slack, promote)
        for lo in range(0, len(entries), chunk):
            block.ingest_block(EntryBlock.from_entries(entries[lo : lo + chunk]))
        block_windows = block.completed_windows() + block.flush()

        assert [window_signature(w) for w in block_windows] == [
            window_signature(w) for w in scalar_windows
        ]
        assert stats_signature(block.stats) == stats_signature(scalar.stats)

    @given(rows_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=75, deadline=None)
    def test_interleaving_scalar_and_block_sketch_ingest(self, rows, chunk):
        """A non-uniform split: runs of one-event calls alternating with
        whole chunks."""
        entries = make_entries(rows)
        reference = self._collector(2.0, 2)
        one_at_a_time(reference, entries)
        mixed = self._collector(2.0, 2)
        scalar_turn = True
        for lo in range(0, len(entries), chunk):
            part = entries[lo : lo + chunk]
            if scalar_turn:
                one_at_a_time(mixed, part)
            else:
                mixed.ingest_block(EntryBlock.from_entries(part))
            scalar_turn = not scalar_turn
        assert [window_signature(w) for w in mixed.flush()] == [
            window_signature(w) for w in reference.flush()
        ]
        assert stats_signature(mixed.stats) == stats_signature(reference.stats)

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    def test_dense_promoting_stream(self, chunk):
        """A deterministic dense log where many originators promote:
        every chunk size must reproduce the one-block materialization
        order."""
        rng = np.random.default_rng(9)
        n = 3000
        rows = sorted(
            zip(
                (rng.random(n) * 90.0).round(1).tolist(),
                rng.integers(0, 40, n).tolist(),
                rng.integers(0, 8, n).tolist(),
            )
        )
        entries = make_entries(rows)
        scalar = self._collector(0.0, 4)
        scalar.ingest_block(EntryBlock.from_entries(entries))
        scalar_windows = scalar.flush()
        block = self._collector(0.0, 4)
        for lo in range(0, len(entries), chunk):
            block.ingest_block(EntryBlock.from_entries(entries[lo : lo + chunk]))
        block_windows = block.flush()
        assert [window_signature(w) for w in block_windows] == [
            window_signature(w) for w in scalar_windows
        ]
        final = block_windows[-1].prestage
        assert final is not None and final.resolver_replayed > 0
        if chunk < 1000:
            # With multiple chunks per window, later chunks see already-
            # promoted originators and settle them wholesale.
            assert final.resolver_wholesale > 0

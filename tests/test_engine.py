"""Tests for the staged SensorEngine.

Covers: SensorConfig validation, per-stage StageStats accounting, the
batch/streaming equivalence property the engine level now guarantees —
including dedup bursts that straddle a window boundary and input
reordered within ``reorder_slack`` — and the batch adapters (gap
filling, final-window clipping, classify-stage reuse).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.netmodel.world import NameStatus
from repro.sensor.collection import dedup_entries
from repro.sensor.directory import FrozenDirectory, QuerierInfo
from repro.sensor.engine import (
    STAGE_NAMES,
    SensorConfig,
    SensorEngine,
    StageStats,
)
from repro.sensor.streaming import StreamingCollector


def entry(ts: float, querier: int = 1, originator: int = 2) -> QueryLogEntry:
    return QueryLogEntry(timestamp=ts, querier=querier, originator=originator)


def named_directory(queriers: range) -> FrozenDirectory:
    return FrozenDirectory(
        QuerierInfo(
            addr=q,
            name=f"host{q}.example.net",
            status=NameStatus.OK,
            asn=1,
            country="jp",
        )
        for q in queriers
    )


class TestSensorConfig:
    def test_defaults_are_the_papers(self):
        config = SensorConfig()
        assert config.window_days == 7.0
        assert config.dedup_window == 30.0
        assert config.min_queriers == 20
        assert config.majority_runs == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_seconds": 0.0},
            {"window_seconds": -1.0},
            {"dedup_window": -0.1},
            {"reorder_slack": -1.0},
            {"min_queriers": 0},
            {"majority_runs": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SensorConfig(**kwargs)

    def test_frozen(self):
        config = SensorConfig()
        with pytest.raises(AttributeError):
            config.window_seconds = 10.0

    def test_replaced_revalidates(self):
        config = SensorConfig().replaced(window_seconds=3600.0)
        assert config.window_seconds == 3600.0
        with pytest.raises(ValueError):
            config.replaced(min_queriers=-3)


class TestStageStats:
    def test_all_stages_reported(self):
        engine = SensorEngine()
        names = [s.name for s in engine.accounting()]
        assert names == list(STAGE_NAMES)
        assert all(isinstance(s, StageStats) for s in engine.accounting())

    def test_window_stage_counts(self):
        engine = SensorEngine(config=SensorConfig(window_seconds=100.0))
        entries = [
            entry(5.0),          # kept
            entry(10.0),         # dedup-dropped (same pair within 30 s)
            entry(50.0),         # kept
            entry(250.0),        # out of [0, 200) range
        ]
        engine.windows(entries, 0.0, 200.0)
        stats = {s.name: s for s in engine.accounting()}
        assert stats["ingest"].items_in == 4
        assert stats["ingest"].dropped == 1
        assert stats["ingest"].items_out == 3
        assert stats["window"].items_in == 3
        assert stats["window"].dropped == 1
        assert stats["window"].items_out == 2  # [0,100) + empty [100,200)

    def test_select_featurize_classify_counts(self):
        directory = named_directory(range(100, 140))
        engine = SensorEngine(
            directory, SensorConfig(window_seconds=100.0, min_queriers=10)
        )
        entries = sorted(
            # originator 1: 30 queriers (analyzable); originator 2: 3.
            [entry(float(q % 97), querier=q, originator=1) for q in range(100, 130)]
            + [entry(float(q - 60), querier=q, originator=2) for q in range(100, 103)],
            key=lambda e: e.timestamp,
        )
        features = engine.featurize(engine.collect(entries, 0.0, 100.0))
        stats = {s.name: s for s in engine.accounting()}
        assert stats["select"].items_in == 2
        assert stats["select"].items_out == 1
        assert stats["select"].dropped == 1
        assert stats["featurize"].items_in == 1
        assert stats["featurize"].items_out == 1
        assert len(features) == 1
        assert stats["select"].seconds >= 0.0

    def test_streaming_stats_absorbed(self):
        engine = SensorEngine(
            config=SensorConfig(window_seconds=100.0, reorder_slack=0.0)
        )
        engine.ingest_block(
            EntryBlock.from_entries([entry(10.0), entry(12.0), entry(150.0), entry(20.0)])
        )
        engine.finish()
        stats = {s.name: s for s in engine.accounting()}
        assert stats["ingest"].items_in == 4
        assert stats["ingest"].dropped == 1  # 20.0 is behind the watermark
        assert stats["window"].dropped == 1  # 12.0 dedups against 10.0
        assert stats["window"].items_out == 2

    def test_stage_seconds_sum_tracks_wall_time(self):
        """Each wall second of a run is attributed to exactly one stage:
        the per-stage seconds must neither exceed the run's wall time
        (double counting) nor leave most of it unattributed."""
        directory = named_directory(range(100, 300))
        engine = SensorEngine(
            directory, SensorConfig(window_seconds=100.0, min_queriers=3)
        )
        rng = np.random.default_rng(3)
        entries = sorted(
            (
                entry(
                    float(rng.uniform(0.0, 500.0)),
                    querier=int(rng.integers(100, 300)),
                    originator=int(rng.integers(1, 25)),
                )
                for _ in range(4000)
            ),
            key=lambda e: e.timestamp,
        )
        started = time.perf_counter()
        sensed = engine.process(entries, 0.0, 500.0, classify=False)
        wall = time.perf_counter() - started
        assert len(sensed) == 5
        total = sum(stage.seconds for stage in engine.accounting())
        assert total <= wall * 1.01
        assert total >= wall * 0.4

    def test_accounting_report_renders(self):
        engine = SensorEngine(config=SensorConfig(window_seconds=100.0))
        engine.windows([entry(5.0)], 0.0, 100.0)
        report = engine.format_accounting()
        assert "stage" in report and "ingest" in report and "classify" in report


class TestBatchStreamingEquivalence:
    """The unified-path guarantee: StreamingCollector windows are exactly
    the scalar oracle — the window's in-range entries deduped by
    ``dedup_entries``, grouped by originator — for the same boundaries."""

    @staticmethod
    def assert_windows_match(streamed, entries):
        for window in streamed:
            if not len(window):
                continue
            expected: dict[int, list[QueryLogEntry]] = {}
            in_range = [e for e in entries if window.start <= e.timestamp < window.end]
            for kept in dedup_entries(in_range):
                expected.setdefault(kept.originator, []).append(kept)
            assert list(window.observations) == list(expected)
            for originator, observation in window.observations.items():
                want = expected[originator]
                assert observation.timestamps == [e.timestamp for e in want]
                assert observation.queriers == [e.querier for e in want]
                assert observation.unique_queriers == {e.querier for e in want}

    @staticmethod
    def stream(collector, entries):
        collector.ingest_block(EntryBlock.from_entries(entries))
        return collector.flush()

    def test_dedup_burst_straddling_boundary(self):
        # Same (querier, originator) pair fires just before and just
        # after the 100 s boundary: dedup scope is the window, so both
        # sides keep their first query.
        entries = [entry(95.0), entry(98.0), entry(101.0), entry(104.0)]
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=0.0)
        streamed = self.stream(collector, entries)
        assert [len(w) for w in streamed] == [1, 1]
        first, second = streamed
        assert first.observations[2].timestamps == [95.0]
        assert second.observations[2].timestamps == [101.0]
        self.assert_windows_match(streamed, entries)

    def test_reordered_input_within_slack(self):
        # Disorder bounded by the slack: the reorder buffer re-sorts, so
        # the result is identical to the sorted batch pass.
        shuffled = [
            entry(10.0, querier=1),
            entry(8.0, querier=2),
            entry(12.0, querier=3),
            entry(9.0, querier=1),   # dedups against 8? no — pair (1,2): 10 then 9
            entry(110.0, querier=1),
            entry(108.0, querier=2),
        ]
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=5.0)
        streamed = self.stream(collector, shuffled)
        ordered = sorted(shuffled, key=lambda e: e.timestamp)
        self.assert_windows_match(streamed, ordered)
        # The pair (querier=1, originator=2) at t=9 must dedup against
        # t=10 only after reordering puts 9 first: kept 9, dropped 10.
        assert streamed[0].observations[2].timestamps == [8.0, 9.0, 12.0]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=950, allow_nan=False),
                st.integers(1, 4),
                st.integers(1, 3),
            ),
            max_size=80,
        ),
        st.sampled_from([0.0, 5.0, 30.0]),
    )
    def test_property_streaming_equals_batch_per_window(self, raw, slack):
        """Sorted input, any slack: streamed windows == per-boundary batch.

        Timestamps cluster in [0, 950) against 250 s windows and a 30 s
        dedup horizon, so bursts regularly straddle boundaries.
        """
        entries = [entry(t, q, o) for t, q, o in sorted(raw, key=lambda r: r[0])]
        collector = StreamingCollector(window_seconds=250.0, reorder_slack=slack)
        streamed = self.stream(collector, entries)
        self.assert_windows_match(streamed, entries)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=900, allow_nan=False),
                st.floats(min_value=0, max_value=10.0),  # bounded disorder
                st.integers(1, 4),
                st.integers(1, 3),
            ),
            max_size=80,
        )
    )
    def test_property_reordering_within_slack_is_invisible(self, raw):
        """Arrival order perturbed within the slack: same windows as the
        time-sorted batch pass (the reorder buffer's guarantee)."""
        # Slack strictly above the max jitter: float rounding in the
        # arrival-order sort key must not push disorder past the slack.
        slack = 11.0
        base = [(t, q, o) for t, _, q, o in raw]
        # Arrival order: sort by (true time + bounded jitter).
        arrival = [
            entry(t, q, o)
            for (t, q, o), (_, jitter, _, _) in sorted(
                zip(base, raw), key=lambda pair: pair[0][0] + pair[1][1]
            )
        ]
        collector = StreamingCollector(window_seconds=250.0, reorder_slack=slack)
        streamed = self.stream(collector, arrival)
        assert collector.stats.late_dropped == 0
        ordered = sorted(arrival, key=lambda e: e.timestamp)
        self.assert_windows_match(streamed, ordered)


class TestBatchAdapters:
    def test_gap_filling_and_clipping(self):
        engine = SensorEngine(config=SensorConfig(window_seconds=100.0))
        windows = engine.windows([entry(10.0), entry(310.0)], 0.0, 350.0)
        assert [(w.start, w.end) for w in windows] == [
            (0.0, 100.0),
            (100.0, 200.0),
            (200.0, 300.0),
            (300.0, 350.0),
        ]
        assert [len(w) for w in windows] == [1, 0, 0, 1]

    def test_collect_spans_the_range(self):
        engine = SensorEngine()
        window = engine.collect([entry(10.0), entry(500.0)], 0.0, 1000.0)
        assert window.start == 0.0 and window.end == 1000.0
        assert window.observations[2].query_count == 2

    def test_out_of_order_batch_raises(self):
        engine = SensorEngine(config=SensorConfig(window_seconds=100.0))
        with pytest.raises(ValueError):
            engine.windows([entry(50.0), entry(10.0)], 0.0, 100.0)

    def test_bad_range_raises(self):
        engine = SensorEngine()
        with pytest.raises(ValueError):
            engine.windows([], 10.0, 10.0)

    def test_featurize_without_directory_raises(self):
        engine = SensorEngine()
        with pytest.raises(RuntimeError):
            engine.featurize(engine.collect([entry(1.0)], 0.0, 10.0))

    def test_classify_unfitted_raises(self):
        directory = named_directory(range(1, 5))
        engine = SensorEngine(directory, SensorConfig(min_queriers=1))
        features = engine.featurize(engine.collect([entry(1.0)], 0.0, 10.0))
        with pytest.raises(RuntimeError):
            engine.classify(features)

    def test_fit_from_shares_training(self):
        directory = named_directory(range(100, 140))
        entries = sorted(
            [entry(float(q % 89), querier=q, originator=o) for o in (1, 2)
             for q in range(100, 130)],
            key=lambda e: e.timestamp,
        )
        trainer = SensorEngine(
            directory, SensorConfig(window_seconds=100.0, min_queriers=5,
                                    majority_runs=1)
        )
        features = trainer.featurize(trainer.collect(entries, 0.0, 100.0))
        from repro.sensor.curation import LabeledSet

        trainer.fit(features, LabeledSet.from_pairs([(1, "scan"), (2, "spam")]))
        streamer = SensorEngine(directory, trainer.config)
        streamer.fit_from(trainer)
        assert streamer.is_fitted
        verdicts = streamer.classify(features)
        assert {v.originator for v in verdicts} == {1, 2}

    def test_vote_is_fitted_once_per_model_and_key(self):
        from repro.ml import DecisionTreeClassifier, fit_majority_vote
        from repro.sensor.curation import LabeledSet

        fits = []

        def factory(seed):
            fits.append(seed)
            return DecisionTreeClassifier(rng=np.random.default_rng(seed))

        directory = named_directory(range(100, 140))
        entries = sorted(
            [entry(float(q % 89), querier=q, originator=o) for o in (1, 2)
             for q in range(100, 130)],
            key=lambda e: e.timestamp,
        )
        config = SensorConfig(
            window_seconds=100.0, min_queriers=5, majority_runs=3,
            classifier_factory=factory,
        )
        engine = SensorEngine(directory, config)
        features = engine.featurize(engine.collect(entries, 0.0, 100.0))
        engine.fit(features, LabeledSet.from_pairs([(1, "scan"), (2, "spam")]))
        assert fits == []  # fitting is lazy: nothing trains before a classify
        first = engine.classify(features)
        assert len(fits) == 3
        assert engine.classify(features) == first
        assert len(fits) == 3
        # A new training set, even an equal one, is a new model.
        X, y = engine._train_X.copy(), engine._train_y.copy()
        engine.adopt_training(X, y, engine.encoder)
        assert engine.classify(features) == first
        assert len(fits) == 6
        # A vote fitted for this exact model is used as handed over...
        engine.adopt_training(X, y, engine.encoder)
        engine.adopt_voter(fit_majority_vote(factory, X, y, 3, config.seed))
        assert len(fits) == 9
        assert engine.classify(features) == first
        assert len(fits) == 9
        # ...and one fitted for anything else is not.
        engine.adopt_voter(fit_majority_vote(factory, X, y, 3, config.seed + 1))
        assert len(fits) == 12
        assert engine.classify(features) == first
        assert len(fits) == 15
        assert fits[12:] == fits[:3]

    def test_fit_from_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SensorEngine().fit_from(SensorEngine())


class TestStreamingEngine:
    def test_poll_and_finish_sense_windows(self):
        directory = named_directory(range(100, 160))
        engine = SensorEngine(
            directory,
            SensorConfig(window_seconds=100.0, min_queriers=5, reorder_slack=0.0),
        )
        entries = sorted(
            [entry(float(q % 83), querier=q, originator=1) for q in range(100, 130)]
            + [entry(100.0 + float(q % 83), querier=q, originator=1)
               for q in range(100, 130)],
            key=lambda e: e.timestamp,
        )
        engine.ingest_block(EntryBlock.from_entries(entries))
        sensed = engine.poll() + engine.finish()
        assert len(sensed) == 2
        assert all(s.features is not None for s in sensed)
        assert all(len(s.features) == 1 for s in sensed)
        assert all(s.verdicts == [] for s in sensed)  # unfitted: no classify


class TestFeatureSetRowIndex:
    def test_row_of_uses_index(self):
        directory = named_directory(range(100, 140))
        engine = SensorEngine(
            directory, SensorConfig(window_seconds=100.0, min_queriers=2)
        )
        entries = sorted(
            [entry(float(q % 89), querier=q, originator=o) for o in (1, 2, 3)
             for q in range(100, 110)],
            key=lambda e: e.timestamp,
        )
        features = engine.featurize(engine.collect(entries, 0.0, 100.0))
        assert set(features.row_index) == {1, 2, 3}
        row = features.row_of(2)
        assert row is not None
        np.testing.assert_array_equal(row, features.matrix[features.row_index[2]])
        assert features.row_of(99) is None

    def test_subset_via_index(self):
        directory = named_directory(range(100, 140))
        engine = SensorEngine(
            directory, SensorConfig(window_seconds=100.0, min_queriers=2)
        )
        entries = sorted(
            [entry(float(q % 89), querier=q, originator=o) for o in (1, 2, 3)
             for q in range(100, 110)],
            key=lambda e: e.timestamp,
        )
        features = engine.featurize(engine.collect(entries, 0.0, 100.0))
        subset = features.subset({1, 3, 42})
        assert sorted(int(o) for o in subset.originators) == [1, 3]
        for originator in (1, 3):
            np.testing.assert_array_equal(
                subset.row_of(originator), features.row_of(originator)
            )

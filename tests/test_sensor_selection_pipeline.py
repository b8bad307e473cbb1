"""Tests for originator selection, curation, and the end-to-end pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.activity import APPLICATION_CLASSES, SimulationEngine, build_campaign
from repro.sensor import (
    LabeledExample,
    LabeledSet,
    SensorConfig,
    SensorEngine,
    analyzable,
    rank_by_footprint,
    top_n,
)
from repro.sensor.collection import ObservationWindow, OriginatorObservation


def observation(originator: int, n_queriers: int):
    obs = OriginatorObservation(originator=originator)
    for i in range(n_queriers):
        obs.add(float(i) * 40, 1000 + i)
    return obs


def window_of(sizes: dict[int, int]) -> ObservationWindow:
    window = ObservationWindow(start=0.0, end=86400.0)
    for originator, size in sizes.items():
        window.observations[originator] = observation(originator, size)
    return window


class TestSelection:
    def test_analyzable_threshold(self):
        window = window_of({1: 25, 2: 19, 3: 20})
        selected = {o.originator for o in analyzable(window)}
        assert selected == {1, 3}

    def test_rank_is_descending_and_stable(self):
        window = window_of({1: 25, 2: 40, 3: 25})
        ranked = rank_by_footprint(list(window.observations.values()))
        assert [o.originator for o in ranked] == [2, 1, 3]

    def test_top_n(self):
        window = window_of({i: 20 + i for i in range(1, 10)})
        top = top_n(window, 3)
        assert [o.originator for o in top] == [9, 8, 7]

    def test_bad_args(self):
        window = window_of({})
        with pytest.raises(ValueError):
            top_n(window, 0)
        with pytest.raises(ValueError):
            analyzable(window, min_queriers=0)


class TestLabeledSet:
    def test_from_pairs_and_lookup(self):
        labeled = LabeledSet.from_pairs([(1, "spam"), (2, "scan")])
        assert labeled.label_of(1) == "spam"
        assert labeled.label_of(99) is None
        assert 2 in labeled and len(labeled) == 2

    def test_one_label_per_originator(self):
        labeled = LabeledSet.from_pairs([(1, "spam")])
        labeled.add(LabeledExample(1, "scan"))
        assert labeled.label_of(1) == "scan"
        assert len(labeled) == 1

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            LabeledExample(1, "bogus")

    def test_restrict_to(self):
        labeled = LabeledSet.from_pairs([(1, "spam"), (2, "scan"), (3, "mail")])
        subset = labeled.restrict_to({1, 3})
        assert subset.originators() == {1, 3}

    def test_merged_with_newer_wins(self):
        old = LabeledSet.from_pairs([(1, "spam")], curated_day=0.0)
        new = LabeledSet.from_pairs([(1, "scan"), (2, "mail")], curated_day=30.0)
        merged = old.merged_with(new)
        assert merged.label_of(1) == "scan"
        assert len(merged) == 2

    def test_trainability_thresholds(self):
        pairs = [(i, "spam") for i in range(30)] + [(100 + i, "scan") for i in range(30)]
        labeled = LabeledSet.from_pairs(pairs)
        assert labeled.is_trainable(min_per_class=20, min_total=50)
        assert not labeled.is_trainable(min_per_class=20, min_total=100)
        assert not labeled.is_trainable(min_per_class=40, min_total=50)

    def test_class_counts_and_remove(self):
        labeled = LabeledSet.from_pairs([(1, "spam"), (2, "spam"), (3, "scan")])
        assert labeled.class_counts()["spam"] == 2
        labeled.remove(1)
        assert labeled.class_counts()["spam"] == 1
        labeled.remove(999)  # no-op


@pytest.fixture(scope="module")
def trained_engine(small_world):
    """An engine trained on a fresh 2-day simulation at a JP sensor."""
    from repro.dnssim import Authority, AuthorityLevel, DnsHierarchy, ResolverConfig

    hierarchy = DnsHierarchy(
        small_world,
        seed=7,
        resolver_config=ResolverConfig(national_warm_shared=0.8, national_warm_self=0.5),
    )
    sensor = hierarchy.attach_national(
        Authority(
            name="jp",
            level=AuthorityLevel.NATIONAL,
            country="jp",
            scope_slash8=frozenset(small_world.geo.blocks_of("jp")),
        )
    )
    engine = SimulationEngine(small_world, hierarchy)
    rng = np.random.default_rng(11)
    truth: dict[int, str] = {}
    for app_class in APPLICATION_CLASSES:
        for _ in range(4):
            campaign = build_campaign(
                small_world, app_class, rng, start=0.0, duration_days=2.0,
                home_country="jp",
            )
            engine.add(campaign)
            truth[campaign.originator] = app_class
    engine.run(0.0, 2 * 86400.0)
    from repro.sensor import world_directory

    trained = SensorEngine(
        world_directory(small_world), SensorConfig(majority_runs=3)
    )
    features = trained.featurize(
        trained.collect(list(sensor.log), 0.0, 2 * 86400.0)
    )
    labeled = LabeledSet.from_pairs(
        (int(o), truth[int(o)]) for o in features.originators if int(o) in truth
    )
    trained.fit(features, labeled)
    return trained, features, labeled, truth


class TestPipeline:
    def test_features_extracted(self, trained_engine):
        _, features, labeled, _ = trained_engine
        assert len(features) >= 10
        assert len(labeled) >= 10

    def test_classification_returns_known_classes(self, trained_engine):
        engine, features, _, _ = trained_engine
        verdicts = engine.classify(features)
        assert len(verdicts) == len(features)
        for verdict in verdicts:
            assert verdict.app_class in APPLICATION_CLASSES
            assert verdict.footprint >= 20

    def test_training_set_mostly_recovered(self, trained_engine):
        engine, features, _, truth = trained_engine
        labels = engine.classify_map(features)
        correct = sum(1 for o, c in labels.items() if truth.get(o) == c)
        assert correct / len(labels) > 0.7

    def test_deterministic(self, trained_engine):
        engine, features, _, _ = trained_engine
        assert engine.classify_map(features) == engine.classify_map(features)

    def test_unfitted_engine_raises(self, small_world):
        from repro.sensor import world_directory

        engine = SensorEngine(world_directory(small_world))
        with pytest.raises(RuntimeError):
            engine.classify_map(
                __import__("repro.sensor", fromlist=["FeatureSet"]).FeatureSet(
                    originators=np.array([], dtype=np.int64),
                    matrix=np.zeros((0, 22)),
                    context=None,
                    footprints=np.array([], dtype=np.int64),
                )
            )

    def test_fit_requires_overlap(self, trained_engine, small_world):
        from repro.sensor import world_directory

        engine = SensorEngine(world_directory(small_world))
        _, features, _, _ = trained_engine
        stranger = LabeledSet.from_pairs([(1, "spam")])
        with pytest.raises(ValueError):
            engine.fit(features, stranger)

"""Tests for static/dynamic feature extraction and assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.netmodel.world import NameStatus
from repro.sensor.collection import ObservationWindow, OriginatorObservation
from repro.datasets import read_directory, write_directory
from repro.sensor.directory import EnrichmentCache, FrozenDirectory, QuerierInfo
from repro.sensor.dynamic import (
    DYNAMIC_FEATURE_NAMES,
    WindowContext,
    dynamic_features,
)
from repro.sensor.features import (
    FEATURE_NAMES,
    extract_features,
    feature_vector,
    features_from_selected,
)
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.selection import analyzable
from repro.sensor.keywords import STATIC_CATEGORIES
from repro.sensor.static import STATIC_FEATURE_NAMES, static_features


def make_directory(specs: dict[int, tuple[str | None, int | None, str | None]]):
    return FrozenDirectory(
        QuerierInfo(
            addr=addr,
            name=name,
            status=NameStatus.OK if name else NameStatus.NXDOMAIN,
            asn=asn,
            country=country,
        )
        for addr, (name, asn, country) in specs.items()
    )


def observation(originator: int, queries: list[tuple[float, int]]):
    obs = OriginatorObservation(originator=originator)
    for ts, querier in queries:
        obs.add(ts, querier)
    return obs


def window_with(observations: list[OriginatorObservation], start=0.0, end=86400.0):
    window = ObservationWindow(start=start, end=end)
    for obs in observations:
        window.observations[obs.originator] = obs
    return window


class TestStaticFeatures:
    def test_fractions_sum_to_one(self):
        directory = make_directory({
            1: ("mail.a.com", 10, "us"),
            2: ("home1-2-3-4.b.com", 11, "jp"),
            3: (None, None, None),
        })
        obs = observation(99, [(0.0, 1), (1.0, 2), (2.0, 3)])
        vector = static_features(obs, directory)
        assert vector.sum() == pytest.approx(1.0)
        assert (vector >= 0).all()

    def test_known_mix(self):
        directory = make_directory({
            1: ("mail.a.com", 10, "us"),
            2: ("mx.b.com", 11, "jp"),
            3: ("firewall1.c.com", 12, "de"),
            4: ("firewall2.c.com", 12, "de"),
        })
        obs = observation(99, [(0.0, 1), (1.0, 2), (2.0, 3), (3.0, 4)])
        named = dict(zip(STATIC_FEATURE_NAMES, static_features(obs, directory)))
        assert named["static_mail"] == pytest.approx(0.5)
        assert named["static_fw"] == pytest.approx(0.5)

    def test_unique_queriers_not_query_volume(self):
        # 100 queries from one mail host and 1 from a firewall: fractions
        # are per-querier (0.5/0.5), not per-query.
        directory = make_directory({
            1: ("mail.a.com", 10, "us"),
            2: ("fw.b.com", 11, "jp"),
        })
        queries = [(float(i) * 40, 1) for i in range(100)] + [(4001.0, 2)]
        named = dict(zip(STATIC_FEATURE_NAMES, static_features(observation(99, queries), directory)))
        assert named["static_mail"] == pytest.approx(0.5)

    def test_empty_observation_rejected(self):
        with pytest.raises(ValueError):
            static_features(OriginatorObservation(originator=1), FrozenDirectory([]))


class TestDynamicFeatures:
    def _context(self, window, directory):
        return WindowContext.from_window(window, directory)

    def test_queries_per_querier(self):
        directory = make_directory({1: ("a.x.com", 1, "us"), 2: ("b.x.com", 1, "us")})
        obs = observation(9, [(0.0, 1), (100.0, 1), (200.0, 2), (300.0, 2)])
        window = window_with([obs])
        vector = dict(zip(DYNAMIC_FEATURE_NAMES, dynamic_features(obs, directory, self._context(window, directory))))
        assert vector["dyn_queries_per_querier"] == pytest.approx(2.0)

    def test_persistence_counts_periods(self):
        directory = make_directory({1: ("a.x.com", 1, "us")})
        # Queries in three distinct 10-minute periods of a 1-hour window.
        obs = observation(9, [(0.0, 1), (650.0, 1), (1250.0, 1)])
        window = window_with([obs], start=0.0, end=3600.0)
        context = self._context(window, directory)
        vector = dict(zip(DYNAMIC_FEATURE_NAMES, dynamic_features(obs, directory, context)))
        assert vector["dyn_persistence"] == pytest.approx(3 / 6)

    def test_local_entropy_zero_when_same_slash24(self):
        directory = make_directory({
            0x0A000001: ("a.x.com", 1, "us"),
            0x0A000002: ("b.x.com", 1, "us"),
        })
        obs = observation(9, [(0.0, 0x0A000001), (40.0, 0x0A000002)])
        window = window_with([obs])
        vector = dict(zip(DYNAMIC_FEATURE_NAMES, dynamic_features(obs, directory, self._context(window, directory))))
        assert vector["dyn_local_entropy"] == 0.0

    def test_global_entropy_max_when_spread(self):
        specs = {(i << 24) | 1: (f"q{i}.x.com", i, "us") for i in range(1, 9)}
        directory = make_directory(specs)
        obs = observation(9, [(float(i), a) for i, a in enumerate(specs)])
        window = window_with([obs])
        vector = dict(zip(DYNAMIC_FEATURE_NAMES, dynamic_features(obs, directory, self._context(window, directory))))
        assert vector["dyn_global_entropy"] == pytest.approx(1.0)

    def test_unique_as_normalized_by_window(self):
        directory = make_directory({
            1: ("a.x.com", 10, "us"),
            2: ("b.x.com", 20, "jp"),
            3: ("c.x.com", 30, "de"),
        })
        big = observation(8, [(0.0, 1), (40.0, 2), (80.0, 3)])
        small = observation(9, [(0.0, 1)])
        window = window_with([big, small])
        context = self._context(window, directory)
        big_vector = dict(zip(DYNAMIC_FEATURE_NAMES, dynamic_features(big, directory, context)))
        small_vector = dict(zip(DYNAMIC_FEATURE_NAMES, dynamic_features(small, directory, context)))
        assert big_vector["dyn_unique_as"] == pytest.approx(1.0)
        assert small_vector["dyn_unique_as"] == pytest.approx(1 / 3)

    def test_single_querier_entropies_are_zero(self):
        directory = make_directory({1: ("a.x.com", 1, "us")})
        obs = observation(9, [(0.0, 1)])
        window = window_with([obs])
        vector = dict(zip(DYNAMIC_FEATURE_NAMES, dynamic_features(obs, directory, self._context(window, directory))))
        assert vector["dyn_local_entropy"] == 0.0
        assert vector["dyn_global_entropy"] == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 86000), st.integers(1, 2**32 - 1)), min_size=1, max_size=40))
    def test_all_features_finite_and_bounded(self, queries):
        addrs = {q for _, q in queries}
        directory = make_directory({a: (f"host{a}.x.com", a % 50, "us") for a in addrs})
        obs = observation(9, sorted(queries))
        window = window_with([obs])
        context = WindowContext.from_window(window, directory)
        vector = dynamic_features(obs, directory, context)
        assert np.isfinite(vector).all()
        named = dict(zip(DYNAMIC_FEATURE_NAMES, vector))
        assert 0.0 <= named["dyn_persistence"] <= 1.0
        assert 0.0 <= named["dyn_local_entropy"] <= 1.0
        assert 0.0 <= named["dyn_global_entropy"] <= 1.0
        assert named["dyn_queries_per_querier"] >= 1.0


class TestExtractFeatures:
    def test_threshold_filters(self):
        directory = make_directory(
            {i: (f"q{i}.x.com", i, "us") for i in range(1, 40)}
        )
        big = observation(100, [(float(i), i) for i in range(1, 25)])
        small = observation(200, [(0.0, 1), (1.0, 2)])
        window = window_with([big, small])
        features = extract_features(window, directory, min_queriers=20)
        assert list(features.originators) == [100]
        assert features.matrix.shape == (1, len(FEATURE_NAMES))

    def test_empty_window(self):
        features = extract_features(window_with([]), FrozenDirectory([]))
        assert len(features) == 0
        assert features.matrix.shape == (0, len(FEATURE_NAMES))

    def test_row_of_and_subset_and_top(self):
        directory = make_directory({i: (f"q{i}.x.com", i, "us") for i in range(1, 60)})
        a = observation(1000, [(float(i), i) for i in range(1, 31)])
        b = observation(2000, [(float(i), i) for i in range(1, 22)])
        window = window_with([a, b])
        features = extract_features(window, directory)
        assert features.row_of(1000) is not None
        assert features.row_of(3000) is None
        subset = features.subset({2000})
        assert list(subset.originators) == [2000]
        top = features.top(1)
        assert list(top.originators) == [1000]

    def test_feature_names_cover_matrix(self):
        assert len(FEATURE_NAMES) == len(STATIC_FEATURE_NAMES) + len(DYNAMIC_FEATURE_NAMES)


class TestPersistenceBoundary:
    """Regression: a timestamp exactly at window.end must not mint a period."""

    def test_timestamp_at_window_end_clamps_to_last_period(self):
        directory = make_directory({1: ("a.x.com", 1, "us")})
        # 3590 and 3600 both belong to the final 600 s period of [0, 3600):
        # before the clamp, 3600 indexed a phantom 7th period.
        obs = observation(9, [(3590.0, 1), (3600.0, 1)])
        window = window_with([obs], start=0.0, end=3600.0)
        context = WindowContext.from_window(window, directory)
        vector = dict(
            zip(DYNAMIC_FEATURE_NAMES, dynamic_features(obs, directory, context))
        )
        assert vector["dyn_persistence"] == pytest.approx(1 / 6)

    def test_persistence_never_exceeds_one(self):
        directory = make_directory({1: ("a.x.com", 1, "us")})
        # Single-period window with a query at both bounds: before the
        # clamp this produced persistence 2/1 = 2.0.
        obs = observation(9, [(0.0, 1), (600.0, 1)])
        window = window_with([obs], start=0.0, end=600.0)
        context = WindowContext.from_window(window, directory)
        vector = dict(
            zip(DYNAMIC_FEATURE_NAMES, dynamic_features(obs, directory, context))
        )
        assert vector["dyn_persistence"] == pytest.approx(1.0)

    def test_vectorized_matches_scalar_at_boundary(self):
        directory = make_directory({i: (f"q{i}.x.com", i, "us") for i in range(1, 4)})
        obs = observation(9, [(0.0, 1), (3599.0, 2), (3600.0, 3)])
        window = window_with([obs], start=0.0, end=3600.0)
        features = features_from_selected(window, [obs], directory)
        context = features.context
        scalar = feature_vector(obs, directory, context)
        np.testing.assert_allclose(features.matrix[0], scalar, atol=1e-12)


class TestEmptyObservationSkip:
    def test_features_from_selected_skips_empty(self):
        directory = make_directory({1: ("a.x.com", 1, "us"), 2: ("b.x.com", 2, "jp")})
        full = observation(100, [(0.0, 1), (1.0, 2)])
        empty = OriginatorObservation(originator=200)
        window = window_with([full, empty])
        features = features_from_selected(window, [full, empty], directory)
        assert list(features.originators) == [100]
        assert features.matrix.shape == (1, len(FEATURE_NAMES))

    def test_engine_counts_empty_as_featurize_drop(self, monkeypatch):
        from repro.sensor import engine as engine_mod
        from repro.sensor.engine import SensorConfig, SensorEngine

        directory = make_directory({1: ("a.x.com", 1, "us"), 2: ("b.x.com", 2, "jp")})
        full = observation(100, [(0.0, 1), (1.0, 2)])
        empty = OriginatorObservation(originator=200)
        window = window_with([full, empty])
        # min_queriers >= 1 means selection can't normally pass an empty
        # observation, but degenerate serialized inputs can: simulate one
        # slipping through selection.
        monkeypatch.setattr(engine_mod, "analyzable", lambda w, n: [full, empty])
        engine = SensorEngine(directory, SensorConfig(min_queriers=1))
        features = engine.featurize(window)
        assert list(features.originators) == [100]
        assert engine.stats["featurize"].dropped == 1
        assert engine.stats["featurize"].items_out == 1

    def test_scalar_paths_still_raise(self):
        empty = OriginatorObservation(originator=1)
        window = window_with([empty])
        directory = FrozenDirectory([])
        context = WindowContext.from_window(window, directory)
        with pytest.raises(ValueError):
            static_features(empty, directory)
        with pytest.raises(ValueError):
            dynamic_features(empty, directory, context)


class TestFeatureSetOrdering:
    def _features(self, sizes: dict[int, int]):
        all_addrs = range(1, 200)
        directory = make_directory(
            {a: (f"q{a}.x.com", a % 7, "us") for a in all_addrs}
        )
        observations = [
            observation(orig, [(float(i), i) for i in range(1, n + 1)])
            for orig, n in sizes.items()
        ]
        window = window_with([o for o in observations])
        return extract_features(window, directory, min_queriers=1)

    def test_subset_returns_matrix_row_order(self):
        # Insertion order 300, 100, 200: subset must preserve row order,
        # not the iteration order of the argument set.
        features = self._features({300: 5, 100: 6, 200: 7})
        assert list(features.originators) == [300, 100, 200]
        subset = features.subset({100, 300})
        assert list(subset.originators) == [300, 100]
        np.testing.assert_array_equal(subset.matrix[0], features.matrix[0])
        np.testing.assert_array_equal(subset.matrix[1], features.matrix[1])

    def test_top_breaks_footprint_ties_by_originator(self):
        # Three originators with identical footprints, inserted in
        # descending-address order: top() must sort ties ascending.
        features = self._features({900: 4, 500: 4, 700: 4})
        top = features.top(2)
        assert list(top.originators) == [500, 700]

    def test_top_prefers_larger_footprints(self):
        features = self._features({10: 3, 20: 9, 30: 6})
        assert list(features.top(2).originators) == [20, 30]


class TestParallelFeaturize:
    def test_cache_is_window_scoped_not_global(self):
        # A second directory that renames querier 1 must be picked up:
        # each call builds a fresh window-scoped cache, and no state
        # outlives it.
        obs = observation(50, [(0.0, 1), (1.0, 2)])
        window = window_with([obs])
        before = features_from_selected(
            window, [obs], make_directory({1: ("mail.a.com", 1, "us"), 2: ("mx.b.com", 2, "jp")})
        )
        after = features_from_selected(
            window, [obs], make_directory({1: ("firewall.a.com", 1, "us"), 2: ("mx.b.com", 2, "jp")})
        )
        names = dict(zip(FEATURE_NAMES, before.matrix[0]))
        renames = dict(zip(FEATURE_NAMES, after.matrix[0]))
        assert names["static_mail"] == pytest.approx(1.0)
        assert renames["static_mail"] == pytest.approx(0.5)
        assert renames["static_fw"] == pytest.approx(0.5)

    def test_explicit_cache_snapshot_ignores_mutation(self):
        # A directory copies its rows when built: changing the rows it
        # was built from, between two featurize calls that share one
        # cache, changes nothing, and its columns refuse writes.
        rows = [QuerierInfo(addr=1, name="mail.a.com", status=NameStatus.OK, asn=1, country="us")]
        directory = FrozenDirectory(rows)
        cache = EnrichmentCache(directory)
        obs = observation(50, [(0.0, 1)])
        window = window_with([obs])
        before = features_from_selected(window, [obs], cache)
        hits = cache.hits
        rows[0] = QuerierInfo(
            addr=1, name="firewall.a.com", status=NameStatus.OK, asn=1, country="us"
        )
        _, categories, _, _ = directory.columns
        with pytest.raises(ValueError):
            categories[0] = 0
        after = features_from_selected(window, [obs], cache)
        np.testing.assert_array_equal(before.matrix, after.matrix)
        assert cache.hits == 2 * hits > 0


_NAME_PATTERNS = (
    "mail{}.a.com", "ns{}.b.net", "www{}.c.org", "fw{}.d.jp",
    "x{}.cloudapp.net", "plain{}.example", None,
)


def named_window(sketch: bool):
    """A directory of 400 named queriers and one hour of their traffic:
    ``(directory, window, selected)``."""
    rng = np.random.default_rng(3)
    queriers = range(1000, 1400)
    patterns = [_NAME_PATTERNS[q % len(_NAME_PATTERNS)] for q in queriers]
    directory = make_directory(
        {
            q: (pattern and pattern.format(q), 1 + q % 7, ("jp", "us", "de")[q % 3])
            for q, pattern in zip(queriers, patterns)
        }
    )
    entries = [
        QueryLogEntry(timestamp=float(t), querier=int(q), originator=int(o))
        for t, q, o in sorted(
            zip(
                rng.uniform(0.0, 3600.0, size=4000),
                rng.choice(queriers, size=4000),
                rng.integers(1, 60, size=4000),
            )
        )
    ]
    config = SensorConfig(
        window_seconds=3600.0, min_queriers=20, sketch_enabled=sketch,
        sketch_capacity=len(entries),
    )
    window = SensorEngine(directory, config).windows(entries, 0.0, 3600.0)[0]
    assert (window.prestage is not None) == sketch
    selected = analyzable(window, config.min_queriers)
    assert selected
    return directory, window, selected


def frozen_copy(directory: FrozenDirectory, addrs, tmp_path) -> FrozenDirectory:
    """*directory*'s rows for *addrs*, written and read back as a file."""
    path = tmp_path / "queriers.jsonl"
    write_directory(path, (directory.lookup(addr) for addr in addrs))
    return read_directory(path)


class TestFrozenDirectory:
    """A directory is enriched once, when built, wherever its rows come from."""

    @pytest.mark.parametrize("sketch", [False, True], ids=["exact", "sketch"])
    def test_features_equal_a_static_directory_of_the_same_rows(self, sketch, tmp_path):
        # The same rows, built in memory and read back from a file,
        # featurize byte-identically.  A few queriers are left out of
        # both: they read the NXDOMAIN row in each.
        directory, window, selected = named_window(sketch)
        listed = [q for q in range(1000, 1400) if q % 50]
        frozen = frozen_copy(directory, listed, tmp_path)
        in_memory = FrozenDirectory(directory.lookup(q) for q in listed)
        static = features_from_selected(window, selected, in_memory)
        loaded = features_from_selected(window, selected, frozen)
        assert static.matrix.tobytes() == loaded.matrix.tobytes()
        assert np.array_equal(static.originators, loaded.originators)
        assert static.context == loaded.context

    @pytest.mark.parametrize("sketch", [False, True], ids=["exact", "sketch"])
    def test_a_file_featurizes_like_the_scalar_reference(self, sketch, tmp_path):
        directory, window, selected = named_window(sketch)
        # Leave a few queriers out of the file: they read the NXDOMAIN
        # row in the columns, and look up as NXDOMAIN in the reference.
        frozen = frozen_copy(directory, [q for q in range(1000, 1400) if q % 50], tmp_path)
        features = features_from_selected(window, selected, frozen)
        assert len(features) == len(selected)
        reference = np.vstack([feature_vector(o, frozen, features.context) for o in selected])
        np.testing.assert_allclose(features.matrix, reference, atol=1e-12)

    def test_fresh_cache_makes_no_lookup_for_listed_queriers(self, monkeypatch):
        from repro.sensor import directory as directory_mod

        directory, window, selected = named_window(False)
        called = []
        monkeypatch.setattr(
            FrozenDirectory, "lookup", lambda self, addr: called.append(addr)
        )
        monkeypatch.setattr(
            directory_mod, "classify_querier", lambda *args: called.append(args)
        )
        cache = EnrichmentCache(directory)
        context = WindowContext.from_window(window, cache)
        features = features_from_selected(window, selected, cache, context=context)
        assert len(features) == len(selected)
        assert called == []
        assert cache.misses == 0 and cache.hits > 0

    def test_an_unlisted_address_reads_the_nxdomain_row(self):
        directory, _, _ = named_window(False)
        cache = EnrichmentCache(directory)
        categories, asns, countries = cache.codes(np.array([99, 1002, 5000]))
        assert [STATIC_CATEGORIES[c] for c in categories] == ["nxdomain", "ns", "nxdomain"]
        assert asns.tolist() == [-1, 1 + 1002 % 7, -1]
        assert directory.countries[countries[1]] == ("jp", "us", "de")[1002 % 3]
        assert countries[0] == countries[2] == -1
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.lookup(99) == QuerierInfo(99, None, NameStatus.NXDOMAIN, None, None)

    def test_an_address_listed_twice_keeps_its_last_row(self):
        first = QuerierInfo(7, "mail.a.com", NameStatus.OK, 1, "us")
        last = QuerierInfo(7, "fw.a.com", NameStatus.OK, 2, "jp")
        directory = FrozenDirectory([first, QuerierInfo(3, None, NameStatus.NXDOMAIN, None, None), last])
        assert len(directory) == 2
        assert directory.lookup(7) == last
        categories, asns, countries = EnrichmentCache(directory).codes(np.array([7]))
        assert STATIC_CATEGORIES[categories[0]] == "fw"
        assert asns.tolist() == [2]
        assert directory.countries[countries[0]] == "jp"

    def test_lookup_returns_the_rows_it_was_built_from(self, tmp_path):
        directory, _, _ = named_window(False)
        frozen = frozen_copy(directory, range(1000, 1400), tmp_path)
        assert len(frozen) == 400
        for addr in range(990, 1410):
            assert frozen.lookup(addr) == directory.lookup(addr)
        for column in frozen.columns:
            assert not column.flags.writeable

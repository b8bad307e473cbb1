"""Micro-benchmarks: throughput of the pipeline's hot components.

Unlike the table/figure benches (one-shot regenerations), these use
pytest-benchmark's normal timing loops on the inner building blocks, so
regressions in the substrate show up directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnssim import PtrRecordSpec, TtlCache
from repro.dnssim.message import QueryLogEntry
from repro.ml import ForestConfig, RandomForestClassifier
from repro.netmodel import QuerierRole, World, WorldConfig
from repro.sensor import SensorEngine
from repro.sensor.collection import dedup_entries
from repro.sensor.directory import world_directory
from repro.sensor.features import extract_features


@pytest.fixture(scope="module")
def perf_world():
    return World(WorldConfig(seed=1, scale=0.5))


def test_perf_ttl_cache(benchmark):
    cache: TtlCache[int, int] = TtlCache()

    def churn():
        for i in range(1000):
            cache.put(i % 128, i, ttl=50.0, now=float(i))
            cache.get((i * 7) % 128, now=float(i))

    benchmark(churn)


def test_perf_resolve_ptr(benchmark, perf_world):
    from repro.dnssim import Authority, AuthorityLevel, DnsHierarchy

    hierarchy = DnsHierarchy(perf_world, seed=2)
    hierarchy.attach_root(
        Authority(name="b", level=AuthorityLevel.ROOT, root_letter="b")
    )
    originator = (1 << 24) | 42
    hierarchy.register_originator(originator, PtrRecordSpec(ttl=30.0))
    indices = perf_world.indices_for_role(QuerierRole.MAIL)[:500]
    queriers = [perf_world.queriers[i] for i in indices]
    clock = iter(range(10**9))

    def resolve_batch():
        for querier in queriers:
            hierarchy.resolve_ptr(querier, originator, float(next(clock)))

    benchmark(resolve_batch)


def test_perf_dedup(benchmark):
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0, 86400, 20_000))
    entries = [
        QueryLogEntry(timestamp=float(t), querier=int(rng.integers(500)), originator=7)
        for t in times
    ]
    benchmark(dedup_entries, entries)


def test_perf_feature_extraction(benchmark, perf_world):
    rng = np.random.default_rng(3)
    directory = world_directory(perf_world)
    entries = []
    queriers = [q.addr for q in perf_world.queriers[:2000]]
    for originator in range(50):
        picks = rng.choice(len(queriers), size=60, replace=False)
        for k, pick in enumerate(picks):
            entries.append(
                QueryLogEntry(
                    timestamp=float(k * 137 + originator),
                    querier=queriers[int(pick)],
                    originator=(2 << 24) | originator,
                )
            )
    entries.sort(key=lambda e: e.timestamp)
    window = SensorEngine().collect(entries, 0.0, 86400.0)
    benchmark(extract_features, window, directory, 20)


def test_perf_forest_fit_predict(benchmark):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(250, 22))
    y = rng.integers(0, 12, size=250)

    def fit_predict():
        forest = RandomForestClassifier(ForestConfig(n_trees=30), seed=0)
        forest.fit(X, y)
        return forest.predict(X)

    benchmark(fit_predict)

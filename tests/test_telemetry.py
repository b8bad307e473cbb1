"""Tests for repro.telemetry: instruments, spans, export, and the
engine's end-to-end metric emission."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.netmodel.world import NameStatus
from repro.sensor.directory import FrozenDirectory, QuerierInfo
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    current_span_path,
    format_for_path,
    get_registry,
    observe,
    set_gauge,
    span,
    use_registry,
    write_metrics,
)


def jsonl_series(registry: MetricsRegistry) -> dict[str, dict]:
    """``{family: {sorted label items: JSON-lines record}}``."""
    out: dict[str, dict] = {}
    for line in registry.to_jsonl().splitlines():
        record = json.loads(line)
        labels = tuple(sorted(record["labels"].items()))
        out.setdefault(record["name"], {})[labels] = record
    return out


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("c_total", labels=("stage",))
        counter.inc(stage="ingest")
        counter.inc(3, stage="window")
        assert counter.value(stage="ingest") == 1
        assert counter.value(stage="window") == 3
        assert counter.value(stage="select") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("c_total").inc(-1)

    def test_label_mismatch_rejected(self):
        counter = Counter("c_total", labels=("stage",))
        with pytest.raises(ValueError, match="label mismatch"):
            counter.inc(1)
        with pytest.raises(ValueError, match="label mismatch"):
            counter.inc(1, stage="x", extra="y")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("7bad name")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value() == 3
        gauge.dec(10)  # gauges may go negative
        assert gauge.value() == -7


class TestHistogram:
    def test_bucket_bounds_are_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(1.0, 2.0))
        hist.observe(1.0)   # on the bound -> le="1" bucket
        hist.observe(1.5)
        hist.observe(99.0)  # beyond the last bound -> +Inf only
        (record,) = jsonl_series(registry)["h_seconds"].values()
        assert record["buckets"] == {"1": 1, "2": 2, "+Inf": 3}
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(101.5)

    def test_unobserved_histogram_renders_no_series(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", buckets=(1.0,))
        assert registry.to_jsonl() == ""
        assert registry.to_prometheus() == "# TYPE h_seconds histogram\n"

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_default_buckets_cover_ms_to_minutes(self):
        assert DEFAULT_TIME_BUCKETS[0] == 0.001
        assert DEFAULT_TIME_BUCKETS[-1] == 300.0
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)


class TestRegistry:
    def test_idempotent_registration(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", labels=("stage",))
        second = registry.counter("c_total", "other help", labels=("stage",))
        assert first is second
        assert len(registry) == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("m")

    def test_label_schema_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("a",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("m", labels=("b",))

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("h", buckets=(2.0,))

    def test_jsonl_record_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "things", labels=("stage",)).inc(2, stage="x")
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        series = jsonl_series(registry)
        assert series["c_total"][(("stage", "x"),)] == {
            "name": "c_total", "kind": "counter", "labels": {"stage": "x"}, "value": 2,
        }
        assert series["h_seconds"][()] == {
            "name": "h_seconds", "kind": "histogram", "labels": {},
            "sum": 0.5, "count": 1, "buckets": {"1": 1, "+Inf": 1},
        }


class TestPrometheusText:
    def test_golden_exposition(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs done.", labels=("stage",)).inc(
            3, stage="featurize"
        )
        registry.gauge("depth", "Queue depth.").set(2)
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        assert registry.to_prometheus() == (
            "# HELP depth Queue depth.\n"
            "# TYPE depth gauge\n"
            "depth 2\n"
            "# HELP jobs_total Jobs done.\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{stage="featurize"} 3\n'
            "# HELP lat_seconds Latency.\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 3\n'
            "lat_seconds_sum 5.55\n"
            "lat_seconds_count 3\n"
        )

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("k",)).inc(1, k='a"b\\c\nd')
        assert 'c_total{k="a\\"b\\\\c\\nd"} 1' in registry.to_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
        assert MetricsRegistry().to_jsonl() == ""


class TestJsonl:
    def test_one_object_per_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("stage",)).inc(1, stage="a")
        registry.counter("c_total", labels=("stage",)).inc(2, stage="b")
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        lines = [json.loads(line) for line in registry.to_jsonl().splitlines()]
        assert len(lines) == 3
        kinds = {(obj["name"], obj["kind"]) for obj in lines}
        assert kinds == {("c_total", "counter"), ("h_seconds", "histogram")}


class TestExport:
    def test_format_inference(self):
        assert format_for_path("m.prom") == "prom"
        assert format_for_path("m.txt") == "prom"
        assert format_for_path("m.jsonl") == "jsonl"
        assert format_for_path("m.json") == "jsonl"
        assert format_for_path("m.ndjson") == "jsonl"
        assert format_for_path("m.jsonl", "prom") == "prom"
        with pytest.raises(ValueError):
            format_for_path("m.prom", "xml")

    def test_prom_overwrites_jsonl_appends(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(1)
        prom = tmp_path / "m.prom"
        write_metrics(registry, prom)
        write_metrics(registry, prom)
        assert prom.read_text().count("# TYPE c_total") == 1
        jsonl = tmp_path / "m.jsonl"
        write_metrics(registry, jsonl)
        write_metrics(registry, jsonl)
        assert len(jsonl.read_text().splitlines()) == 2


class TestSpans:
    def test_elapsed_measured_without_registry(self):
        assert get_registry() is None
        with span("outer") as sp:
            time.sleep(0.01)
        assert sp.elapsed >= 0.005
        assert current_span_path() == ""

    def test_nesting_records_parent(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with span("outer"):
                assert current_span_path() == "outer"
                with span("inner"):
                    assert current_span_path() == "outer.inner"
        hist = registry.get("repro_span_seconds")
        assert hist.count(span="inner", parent="outer") == 1
        assert hist.count(span="outer", parent="") == 1

    def test_outcome_error_on_exception(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
        counter = registry.get("repro_span_total")
        assert counter.value(span="doomed", outcome="error") == 1
        assert counter.value(span="doomed", outcome="ok") == 0

    def test_use_registry_none_keeps_current(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with use_registry(None):
                assert get_registry() is registry
            assert get_registry() is registry
        assert get_registry() is None

    def test_helpers_noop_without_registry(self):
        count("c_total", 5)
        set_gauge("g", 1)
        observe("h_seconds", 0.5)  # nothing to assert beyond "no crash"

    def test_count_creates_the_series_at_zero(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            count("c_total", 0, kind="a")
        assert registry.to_prometheus().splitlines()[-1] == 'c_total{kind="a"} 0'

    def test_threads_do_not_share_scope_or_span_stack(self):
        # The service's model-fit thread opens spans while the pump thread
        # enters and leaves use_registry; with one process-wide stack a
        # span entered inside the other thread's scope and exited outside
        # it was never popped.
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def worker():
            with use_registry(theirs):
                with span("classifier.fit"):
                    inside.set()
                    assert release.wait(timeout=10.0)
                    seen["open"] = current_span_path()
            seen["closed"] = current_span_path()
            seen["registry"] = get_registry()

        thread = threading.Thread(target=worker)
        with use_registry(mine):
            thread.start()
            assert inside.wait(timeout=10.0)
            assert current_span_path() == ""
            with span("stage.classify"):
                assert current_span_path() == "stage.classify"
        assert get_registry() is None
        release.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert seen == {"open": "classifier.fit", "closed": "", "registry": None}
        assert current_span_path() == ""
        assert theirs.get("repro_span_seconds").count(span="classifier.fit", parent="") == 1
        assert mine.get("repro_span_seconds").count(span="stage.classify", parent="") == 1
        assert mine.get("repro_span_seconds").count(span="classifier.fit", parent="") == 0

    def test_span_opened_without_registry_stays_unrecorded(self):
        # The scope opens inside one span and closes inside the next.
        registry = MetricsRegistry()
        scope = use_registry(registry)
        with span("early"):
            scope.__enter__()
        assert current_span_path() == ""
        with span("late"):
            scope.__exit__(None, None, None)
        assert current_span_path() == ""
        assert registry.get("repro_span_seconds").count(span="late", parent="") == 1
        assert registry.get("repro_span_seconds").count(span="early", parent="") == 0

    def test_noop_span_is_cheap(self):
        started = time.perf_counter()
        for _ in range(10_000):
            with span("hot"):
                pass
        # Generous bound: ~10k no-op spans must be far under a second.
        assert time.perf_counter() - started < 1.0


def _tiny_sensed_run(registry):
    # Every 25th querier is unlisted, so both enrichment counters count.
    directory = FrozenDirectory(
        QuerierInfo(addr=q, name=f"ns{q}.isp{q % 5}.example.net",
                    status=NameStatus.OK, asn=q % 7,
                    country=["jp", "us", "de"][q % 3])
        for q in range(1, 200) if q % 25
    )
    rng = np.random.default_rng(0)
    entries = []
    t = 0.0
    for _ in range(3000):
        t += float(rng.exponential(0.05))
        entries.append(QueryLogEntry(
            timestamp=t, querier=int(rng.integers(1, 200)),
            originator=int(rng.integers(1, 20)),
        ))
    engine = SensorEngine(
        directory,
        SensorConfig(window_seconds=60.0, min_queriers=3),
        registry=registry,
    )
    return engine, engine.process(entries, 0.0, t + 1.0, classify=False)


class TestEngineEmission:
    """End-to-end: a batch run emits the documented metric families."""

    def test_expected_families_present(self):
        registry = MetricsRegistry()
        engine, sensed = _tiny_sensed_run(registry)
        assert len(sensed) >= 2
        text = registry.to_prometheus()
        for family in (
            "repro_stage_items_total",
            "repro_span_seconds",
            "repro_span_total",
            "repro_enrichment_cache_hits_total",
            "repro_enrichment_cache_misses_total",
        ):
            assert f"# TYPE {family}" in text, family
        # A duration lives in its span, a count in the stage ledger:
        # no family re-records either.
        for family in (
            "repro_stage_seconds",
            "repro_window_seconds",
            "repro_windows_sensed_total",
            "repro_select_originators_total",
        ):
            assert family not in registry, family

    def test_stage_items_match_stage_stats(self):
        registry = MetricsRegistry()
        engine, _ = _tiny_sensed_run(registry)
        items = registry.get("repro_stage_items_total")
        for stage in engine.accounting():
            if stage.items_in:
                assert items.value(
                    stage=stage.name, direction="in"
                ) == stage.items_in
            if stage.items_out:
                assert items.value(
                    stage=stage.name, direction="out"
                ) == stage.items_out

    def test_windows_counted_by_their_span(self):
        registry = MetricsRegistry()
        _, sensed = _tiny_sensed_run(registry)
        counter = registry.get("repro_span_total")
        assert counter.value(span="window.sense", outcome="ok") == len(sensed)
        hist = registry.get("repro_span_seconds")
        assert hist.count(span="window.sense", parent="engine.run") == len(sensed)

    def test_stage_ledger_kept_without_registry(self):
        engine, sensed = _tiny_sensed_run(None)  # no registry: still populated
        stats = {stage.name: stage for stage in engine.accounting()}
        assert stats["window"].items_out == len(sensed)
        assert stats["select"].items_in == sum(len(item.window) for item in sensed)
        assert stats["featurize"].items_out == sum(len(item.features) for item in sensed)
        assert all(stats[name].seconds > 0.0 for name in ("ingest", "window", "select"))

    def test_no_registry_no_emission(self):
        engine, sensed = _tiny_sensed_run(None)
        assert get_registry() is None
        assert len(sensed) >= 2  # pipeline output unaffected

    def test_streaming_counters(self):
        registry = MetricsRegistry()
        engine = SensorEngine(
            config=SensorConfig(window_seconds=10.0, reorder_slack=1.0),
            registry=registry,
        )
        entries = [
            QueryLogEntry(timestamp=float(ts), querier=1, originator=2)
            for ts in (0.0, 5.0, 4.5, 25.0, 1.0)  # 4.5 reordered, 1.0 late
        ]
        engine.ingest_block(EntryBlock.from_entries(entries))
        engine.finish()
        # The live ledger is current without reading accounting().
        text = registry.to_prometheus()
        assert "repro_stream_late_dropped_total 1" in text
        assert "repro_stream_reordered_total 1" in text
        assert "repro_stream_windows_total" in text

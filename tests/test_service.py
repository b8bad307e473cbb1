"""Unit tests for `repro.service`: config, feed decoding, retraining,
window hooks, and alert wiring."""

from __future__ import annotations

import asyncio
import json
import struct
import threading

import numpy as np
import pytest

from repro.datasets.dnstap import MAGIC, VERSION
from repro.dnssim.message import QueryLogEntry
from repro.federation import FederatedSensor
from repro.logstore import EntryBlock
from repro.netmodel.world import NameStatus
from repro.sensor.collection import ObservationWindow
from repro.sensor.curation import LabeledSet
from repro.sensor.directory import FrozenDirectory, QuerierInfo
from repro.sensor.engine import (
    ClassifiedOriginator,
    SensedWindow,
    SensorConfig,
    SensorEngine,
)
from repro.sensor.training import Strategy
from repro.service import BackscatterService, FeedReader, ModelManager, ServiceConfig
from repro.service.config import FEED_FORMATS


def entry(ts: float, querier: int = 1, originator: int = 2) -> QueryLogEntry:
    return QueryLogEntry(timestamp=ts, querier=querier, originator=originator)


COUNTRIES = ("jp", "us", "de")


def directory_for(queriers: range) -> FrozenDirectory:
    return FrozenDirectory(
        QuerierInfo(
            addr=q,
            name=f"host{q}.example.net",
            status=NameStatus.OK,
            asn=q % 5 + 1,
            country=COUNTRIES[q % len(COUNTRIES)],
        )
        for q in queriers
    )


def synthetic_entries(
    n_originators: int = 8,
    queriers_per: int = 12,
    windows: int = 3,
    width: float = 100.0,
) -> list[QueryLogEntry]:
    rng = np.random.default_rng(7)
    out: list[QueryLogEntry] = []
    for w in range(windows):
        for o in range(1, n_originators + 1):
            for k in range(queriers_per):
                q = 100 + (o * 13 + k * 7) % 40
                t = w * width + float(rng.uniform(0.0, width - 1.0))
                out.append(entry(t, querier=q, originator=o))
    out.sort(key=lambda e: e.timestamp)
    return out


def rbsc_bytes(block: EntryBlock) -> bytes:
    out = struct.pack(">4sH", MAGIC, VERSION)
    for ts, q, o in zip(block.timestamps, block.queriers, block.originators):
        out += struct.pack(">H", 16) + struct.pack(">dII", float(ts), int(q), int(o))
    return out


class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.port == 8053
        assert config.feed_format in FEED_FORMATS
        assert config.retrain is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"port": -1},
            {"port": 70000},
            {"feed_port": 70000},
            {"feed_format": "csv"},
            {"feed_chunk": 0},
            {"feed_poll_seconds": 0.0},
            {"shards": 0},
            {"retrain": "hourly"},
            {"retrain_min_per_class": 0},
            {"retrain_min_total": 0},
            {"verdict_history": 0},
            {"alert_window": 1},
            {"alert_threshold": 0.0},
            {"alert_min_relative": -0.1},
            {"sensor": "not-a-config"},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            ServiceConfig(**overrides)

    def test_window_hook_is_the_engines_alone(self):
        # ``service.engine.on_window`` is the one window-close hook.
        with pytest.raises(TypeError):
            ServiceConfig(on_window=print)

    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, None),
            ("once", Strategy.TRAIN_ONCE),
            ("daily", Strategy.TRAIN_DAILY),
            ("grow", Strategy.AUTO_GROW),
            ("train-daily", Strategy.TRAIN_DAILY),
            (Strategy.AUTO_GROW, Strategy.AUTO_GROW),
        ],
    )
    def test_retrain_coercion(self, value, expected):
        assert ServiceConfig(retrain=value).retrain is expected

    def test_frozen_and_replaced(self):
        config = ServiceConfig()
        with pytest.raises(AttributeError):
            config.port = 80
        variant = config.replaced(port=0, retrain="daily")
        assert variant.port == 0
        assert variant.retrain is Strategy.TRAIN_DAILY
        assert config.port == 8053
        with pytest.raises(ValueError):
            config.replaced(shards=-1)


class TestFeedReader:
    LINE = "%s 192.0.2.9 4.3.2.10.in-addr.arpa\n"

    def test_text_lines_with_partial_tail(self):
        reader = FeedReader("text")
        first = reader.feed((self.LINE % "10.0").encode() + b"20")
        assert len(first) == 1
        assert first.timestamps[0] == 10.0
        second = reader.feed((".5 192.0.2.9 4.3.2.10.in-addr.arpa\n").encode())
        assert len(second) == 1
        assert second.timestamps[0] == 20.5
        assert len(reader.close()) == 0
        assert reader.entries_decoded == 2

    def test_text_comments_and_blanks_skipped(self):
        reader = FeedReader("text")
        block = reader.feed(b"# header\n\n" + (self.LINE % "1.0").encode())
        assert len(block) == 1

    def test_text_final_unterminated_line_flushed_at_close(self):
        reader = FeedReader("text")
        assert len(reader.feed((self.LINE % "3.0").encode()[:-1])) == 0
        tail = reader.close()
        assert len(tail) == 1 and tail.timestamps[0] == 3.0

    def test_text_malformed_lines_skipped_and_counted(self):
        good = (self.LINE % "1.0").encode()
        reader = FeedReader("text")
        block = reader.feed(good + b"GARBAGE\n1.0 onlytwo\n" + good)
        assert len(block) == 2
        assert reader.bad_lines == 2
        # Three fields that do not parse, and bytes that are not ASCII.
        block = reader.feed(b"x 192.0.2.9 4.3.2.10.in-addr.arpa\n\xff\xfe\n" + good)
        assert len(block) == 1
        assert reader.bad_lines == 4
        assert reader.entries_decoded == 3

    def test_auto_resolves_text(self):
        reader = FeedReader("auto")
        assert reader.format == "auto"
        reader.feed((self.LINE % "1.0").encode())
        assert reader.format == "text"

    def test_auto_short_stream_closes_as_text(self):
        reader = FeedReader("auto")
        assert len(reader.feed(b"#a")) == 0
        assert len(reader.close()) == 0

    @pytest.mark.parametrize("chunk", [1, 7, 18, 100])
    def test_rbsc_across_odd_chunk_boundaries(self, chunk):
        block = EntryBlock.from_entries(
            [entry(float(i), querier=50 + i, originator=9) for i in range(6)]
        )
        payload = rbsc_bytes(block)
        reader = FeedReader("auto")
        decoded = []
        for lo in range(0, len(payload), chunk):
            got = reader.feed(payload[lo : lo + chunk])
            if len(got):
                decoded.append(got)
        assert len(reader.close()) == 0
        assert reader.format == "rbsc"
        total = sum(len(b) for b in decoded)
        assert total == 6
        assert reader.entries_decoded == 6
        stitched = np.concatenate([b.timestamps for b in decoded])
        assert np.array_equal(stitched, block.timestamps)

    def test_rbsc_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            FeedReader("rbsc").feed(b"NOPE" + b"\x00" * 20)

    def test_rbsc_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            FeedReader("rbsc").feed(struct.pack(">4sH", MAGIC, 99))

    def test_rbsc_bad_frame_length(self):
        payload = struct.pack(">4sH", MAGIC, VERSION)
        payload += struct.pack(">H", 12) + b"\x00" * 16
        with pytest.raises(ValueError, match="frame length"):
            FeedReader("rbsc").feed(payload)

    def test_rbsc_truncated_at_close_raises(self):
        block = EntryBlock.from_entries([entry(1.0)])
        reader = FeedReader("rbsc")
        reader.feed(rbsc_bytes(block)[:-5])
        with pytest.raises(ValueError, match="truncated"):
            reader.close()

    def test_feed_after_close_raises(self):
        reader = FeedReader("text")
        reader.close()
        with pytest.raises(ValueError, match="close"):
            reader.feed(b"x")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            FeedReader("csv")


class TestOnWindowHook:
    def _trained(self, config):
        directory = directory_for(range(100, 140))
        trainer = SensorEngine(directory, config)
        entries = synthetic_entries()
        window = trainer.process(entries, 0.0, 100.0, classify=False)[0]
        labeled = LabeledSet.from_pairs(
            (int(o), "scan" if int(o) % 2 else "dns")
            for o in window.features.originators
        )
        trainer.fit(window.features, labeled)
        return directory, trainer, entries, labeled

    def test_engine_hook_fires_in_emission_order(self):
        config = SensorConfig(window_seconds=100.0, min_queriers=3, majority_runs=3)
        directory, trainer, entries, _ = self._trained(config)
        engine = SensorEngine(directory, config).fit_from(trainer)
        block = EntryBlock.from_entries(entries)
        seen: list[SensedWindow] = []
        unsubscribe = engine.on_window(seen.append)
        returned = []
        for lo in range(0, len(block), 300):
            engine.ingest_block(block[lo : lo + 300])
            returned.extend(engine.poll())
        returned.extend(engine.finish())
        assert len(seen) == len(returned) == 3
        assert all(a is b for a, b in zip(seen, returned))
        assert all(w.verdicts for w in seen)
        # Unsubscribed hooks stay silent.
        unsubscribe()
        unsubscribe()  # idempotent
        engine2 = SensorEngine(directory, config).fit_from(trainer)
        count = []
        remove = engine2.on_window(count.append)
        remove()
        engine2.ingest_block(block)
        engine2.poll()
        engine2.finish()
        assert count == []

    def test_federated_hook_fires_with_merged_windows(self):
        config = SensorConfig(window_seconds=100.0, min_queriers=3, majority_runs=3)
        directory, trainer, entries, _ = self._trained(config)
        block = EntryBlock.from_entries(entries)
        seen = []
        with FederatedSensor(
            directory, config, n_shards=2
        ) as federated:
            federated.fit_from(trainer)
            federated.on_window(seen.append)
            federated.ingest_block(block)
            federated.poll()
            federated.finish()
        assert len(seen) == 3
        assert all(w.verdicts for w in seen)
        assert all(isinstance(w, SensedWindow) for w in seen)


class _Recorder:
    """Stands in for an engine on the receiving end of a hot-swap."""

    def __init__(self):
        self.adopted = []

    def adopt_training(self, X, y, encoder):
        self.adopted.append((X, y, encoder))


class _ExplodingClassifier:
    def fit(self, X, y):
        raise RuntimeError("boom")

    def predict(self, X):  # pragma: no cover
        raise RuntimeError("boom")


class TestModelManager:
    def _window(self, config=None):
        config = config or SensorConfig(
            window_seconds=100.0, min_queriers=3, majority_runs=3
        )
        directory = directory_for(range(100, 140))
        engine = SensorEngine(directory, config)
        sensed = engine.process(synthetic_entries(), 0.0, 100.0, classify=False)[0]
        labeled = LabeledSet.from_pairs(
            (int(o), "scan" if int(o) % 2 else "dns")
            for o in sensed.features.originators
        )
        return sensed, labeled

    def test_inactive_strategies_do_nothing(self):
        sensed, labeled = self._window()
        for strategy in (None, Strategy.TRAIN_ONCE):
            with ModelManager(labeled, strategy) as manager:
                assert not manager.active
                assert manager.observe_window(sensed) == "none"
                assert manager.apply_pending(_Recorder()) == "none"

    def test_train_daily_swaps(self):
        sensed, labeled = self._window()
        with ModelManager(
            labeled, Strategy.TRAIN_DAILY, min_per_class=2, min_total=4
        ) as manager:
            assert manager.observe_window(sensed) == "scheduled"
            manager.wait_pending()
            recorder = _Recorder()
            assert manager.apply_pending(recorder) == "swapped"
            assert manager.version == 1
            (X, y, encoder) = recorder.adopted[0]
            assert len(X) == len(y) == len(labeled)
            assert set(encoder.decode(y)) == {"scan", "dns"}
            # Nothing further pending.
            assert manager.apply_pending(recorder) == "none"

    def test_auto_grow_trains_on_own_verdicts(self):
        sensed, labeled = self._window()
        sensed.verdicts = [
            ClassifiedOriginator(int(o), "scan" if i % 2 else "dns", 10)
            for i, o in enumerate(sensed.features.originators)
        ]
        with ModelManager(
            labeled, Strategy.AUTO_GROW, min_per_class=2, min_total=4
        ) as manager:
            assert manager.observe_window(sensed) == "scheduled"
            manager.wait_pending()
            recorder = _Recorder()
            assert manager.apply_pending(recorder) == "swapped"
            X, y, encoder = recorder.adopted[0]
            assert len(y) == len(sensed.verdicts)

    def test_auto_grow_without_verdicts_is_none(self):
        sensed, labeled = self._window()
        sensed.verdicts = []
        with ModelManager(labeled, Strategy.AUTO_GROW) as manager:
            assert manager.observe_window(sensed) == "none"

    def test_candidate_failing_gate_is_rejected(self):
        sensed, labeled = self._window()
        with ModelManager(
            labeled, Strategy.TRAIN_DAILY, min_per_class=1000, min_total=1000
        ) as manager:
            manager.observe_window(sensed)
            manager.wait_pending()
            assert manager.apply_pending(_Recorder()) == "rejected"
            assert manager.version == 0

    def test_fit_error_is_failed_not_fatal(self):
        sensed, labeled = self._window()
        with ModelManager(
            labeled,
            Strategy.TRAIN_DAILY,
            factory=lambda seed: _ExplodingClassifier(),
            min_per_class=2,
            min_total=4,
        ) as manager:
            manager.observe_window(sensed)
            manager.wait_pending()
            assert manager.apply_pending(_Recorder()) == "failed"

    def test_slow_fit_skips_next_window(self):
        sensed, labeled = self._window()
        release = threading.Event()

        class _SlowClassifier:
            def fit(self, X, y):
                release.wait(timeout=10.0)
                return self

            def predict(self, X):
                return np.zeros(len(X), dtype=int)

        sensor = SensorConfig(
            window_seconds=100.0, min_queriers=3, majority_runs=1,
            classifier_factory=lambda seed: _SlowClassifier(),
        )
        config = ServiceConfig(
            port=0, sensor=sensor, retrain="daily",
            retrain_min_per_class=2, retrain_min_total=4,
        )
        service = BackscatterService(directory_for(range(100, 140)), config)
        service.fit(sensed.features, labeled)
        manager = service.manager
        try:
            assert manager.observe_window(sensed) == "scheduled"
            service._handle_window(sensed)  # closes while the fit still runs
        finally:
            release.set()
            manager.wait_pending()
        service._step(EntryBlock.empty())  # installed between steps
        manager.close()
        # The skipped fit is a swap outcome, counted once, read by /healthz.
        swaps = service.registry.get("repro_service_swap_total")
        assert swaps.value(outcome="skipped") == swaps.value(outcome="swapped") == 1
        assert service.health()["swaps"] == {"skipped": 1, "swapped": 1}
        assert service.model_version == 1


def _sensed(start: float, end: float, verdicts) -> SensedWindow:
    return SensedWindow(
        window=ObservationWindow(start=start, end=end), verdicts=list(verdicts)
    )


class TestAlertWiring:
    def test_surge_alert_fires_and_zero_windows_skipped(self):
        config = ServiceConfig(
            port=0,
            alert_classes=("scan",),
            alert_window=6,
            alert_threshold=3.0,
            alert_min_relative=0.2,
        )
        service = BackscatterService(None, config)
        width = 100.0
        # Six calm windows build the baseline...
        for w in range(6):
            verdicts = [
                ClassifiedOriginator(o, "scan", 10) for o in range(1, 5)
            ] + [ClassifiedOriginator(99, "dns", 10)]
            service._handle_window(_sensed(w * width, (w + 1) * width, verdicts))
        # ...an empty window must not poison the baseline with a zero...
        service._handle_window(_sensed(600.0, 700.0, []))
        # ...and a 5x scan surge alerts.
        surge = [ClassifiedOriginator(o, "scan", 10) for o in range(1, 21)]
        service._handle_window(_sensed(700.0, 800.0, surge))
        alerts = service.alerts()
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["app_class"] == "scan"
        assert alert["observed"] == 20
        assert alert["score"] >= 3.0
        # The window records retain the verdict stream.
        assert len(service.windows()) == 8
        assert service.windows()[-1]["verdicts"][0]["app_class"] == "scan"

    def test_alert_history_is_bounded_but_the_count_is_not(self):
        classes = ("scan", "dns", "spam")
        config = ServiceConfig(
            port=0, verdict_history=2, alert_classes=classes, alert_window=6
        )
        service = BackscatterService(None, config)

        def window(w, per_class):
            verdicts = [
                ClassifiedOriginator(100 * k + o, app_class, 10)
                for k, app_class in enumerate(classes)
                for o in range(per_class)
            ]
            return _sensed(w * 100.0, (w + 1) * 100.0, verdicts)

        for w in range(6):
            service._handle_window(window(w, 4))
        service._handle_window(window(6, 20))  # all three classes surge at once
        # /alerts keeps the newest verdict_history; /healthz the true total.
        assert [a["app_class"] for a in service.alerts()] == ["dns", "spam"]
        assert service.health()["alerts"] == 3

    def test_extra_on_window_callback_runs(self):
        seen = []
        service = BackscatterService(None, ServiceConfig(port=0))
        engine = service.engine
        engine.on_window(seen.append)
        block = EntryBlock.from_entries(
            [entry(float(t), querier=1 + t, originator=5) for t in range(5)]
        )
        engine.ingest_block(block)
        engine.poll()
        engine.finish()
        assert len(seen) == 1  # both the service's hook and the extra ran
        assert len(service.windows()) == service.health()["windows"] == 1


class TestVerdictsEncoding:
    def test_body_is_compact_and_encoded_once_per_window(self):
        service = BackscatterService(None, ServiceConfig(port=0, verdict_history=2))
        status, ctype, empty = service._verdicts_response()
        assert (status, ctype, empty) == (200, "application/json", b'{"windows":[]}\n')
        assert service._verdicts_response()[2] is empty
        for w in range(3):
            service._handle_window(
                _sensed(w * 100.0, (w + 1) * 100.0, [ClassifiedOriginator(7, "scan", 10)])
            )
            body = service._verdicts_response()[2]
            assert service._verdicts_response()[2] is body
            assert json.loads(body) == {"windows": service.windows()}
            assert b"\n" not in body[:-1] and b": " not in body
        # The history is full, so its length no longer moves; its newest
        # record does, and that is what the cache is keyed on.
        assert [r["start"] for r in json.loads(body)["windows"]] == [100.0, 200.0]


async def _get_metrics(host: str, port: int) -> dict[str, float]:
    """``GET /metrics`` as ``{'name{labels}': value}``."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, body = raw.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 200")
    samples = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return samples


class TestLiveLedgerOnMetrics:
    """``/metrics`` shows the stage ledger while serving, not only at exit."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_ingest_and_window_counts_are_current(self, shards):
        directory = directory_for(range(100, 140))
        sensor = SensorConfig(window_seconds=100.0, min_queriers=3)
        block = EntryBlock.from_entries(synthetic_entries(windows=3))

        async def run():
            service = BackscatterService(
                directory, ServiceConfig(port=0, shards=shards, sensor=sensor)
            )
            await service.start()
            try:
                service.submit_block(block)
                await service.drain()
                metrics = await _get_metrics(*service.http_address)
                return metrics, service.health()["windows"]
            finally:
                await service.stop()

        metrics, windows_total = asyncio.run(run())
        assert windows_total >= 2  # closed live, before stop() flushes the last
        ingest_in = 'repro_stage_items_total{stage="ingest",direction="in"}'
        assert metrics[ingest_in] == len(block)
        assert metrics["repro_stream_windows_total"] == windows_total
        window_out = 'repro_stage_items_total{stage="window",direction="out"}'
        assert metrics[window_out] == windows_total


class TestEachFactRecordedOnce:
    """``/healthz`` reads the stage ledger and the service's instruments."""

    def test_service_instruments_export_zero_from_the_start(self):
        service = BackscatterService(None, ServiceConfig(port=0))
        text = service.registry.to_prometheus()
        for series in (
            "repro_service_pump_steps_total 0",
            "repro_service_step_errors_total 0",
            "repro_service_feed_bad_lines_total 0",
            'repro_service_feed_errors_total{reason="frame"} 0',
            'repro_service_swap_total{outcome="skipped"} 0',
            'repro_service_alerts_total{app_class="scan"} 0',
            "repro_service_feed_lag_seconds 0",
        ):
            assert series in text.splitlines(), series
        health = service.health()
        assert health["status"] == "ok" and health["swaps"] == {}
        assert health["events"] == health["windows"] == health["alerts"] == 0

    def test_healthz_lag_is_the_gauge_after_stop(self):
        directory = directory_for(range(100, 140))
        sensor = SensorConfig(window_seconds=100.0, min_queriers=3)
        block = EntryBlock.from_entries(synthetic_entries(windows=3))
        service = BackscatterService(directory, ServiceConfig(port=0, sensor=sensor))

        async def run():
            await service.start()
            service.submit_block(block[: len(block) - 5])
            await service.drain()
            live = service.health()["feed_lag_seconds"]
            service.submit_block(block[len(block) - 5 :])
            await service.stop()
            return live

        live = asyncio.run(run())
        gauge = service.registry.get("repro_service_feed_lag_seconds").value()
        health = service.health()
        assert live > 0.0  # ingest ran ahead of the last closed window
        assert health["feed_lag_seconds"] == gauge == 0.0  # the flush closed it
        stats = service.engine.stats
        assert health["events"] == stats["ingest"].items_in == len(block)
        assert health["windows"] == stats["window"].items_out == len(service.windows())
        for family in ("repro_service_events_total", "repro_service_windows_total"):
            assert family not in service.registry, family

"""End-to-end service tests: socket feed parity with the offline
streaming path, hot-swap atomicity, surge alerts, and the CLI.

The load-bearing property (the PR's acceptance criterion): a chunked
live feed through `BackscatterService` produces the *same verdict
stream* as the offline `repro classify --stream` path, and an online
retrain-daily hot-swap completes with zero dropped events — every
window present, every window classified by exactly one model version.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import re
import signal
import socket
import struct
import threading

import numpy as np
import pytest

from repro.datasets import write_directory
from repro.datasets.dnstap import MAGIC, VERSION
from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock, save_block
from repro.ml import ForestConfig, RandomForestClassifier
from repro.netmodel.addressing import ip_to_reverse_name, ip_to_str
from repro.netmodel.world import NameStatus
from repro.sensor.curation import LabeledSet
from repro.sensor.directory import FrozenDirectory, QuerierInfo
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.service import BackscatterService, ServiceConfig
from repro.service.service import _InitialFit
from repro.telemetry import MetricsRegistry

WIDTH = 100.0


def entry(ts: float, querier: int, originator: int) -> QueryLogEntry:
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
    n_originators: int = 8, queriers_per: int = 12, windows: int = 3
) -> list[QueryLogEntry]:
    rng = np.random.default_rng(7)
    out: list[QueryLogEntry] = []
    for w in range(windows):
        for o in range(1, n_originators + 1):
            for k in range(queriers_per):
                q = 100 + (o * 13 + k * 7) % 40
                t = w * WIDTH + float(rng.uniform(0.0, WIDTH - 1.0))
                out.append(entry(t, querier=q, originator=o))
    out.sort(key=lambda e: e.timestamp)
    return out


def rbsc_bytes(block: EntryBlock) -> bytes:
    out = struct.pack(">4sH", MAGIC, VERSION)
    for ts, q, o in zip(block.timestamps, block.queriers, block.originators):
        out += struct.pack(">H", 16) + struct.pack(">dII", float(ts), int(q), int(o))
    return out


def trained_world():
    """Directory, a span-trained trainer engine, labels, and the log."""
    directory = directory_for(range(100, 140))
    config = SensorConfig(window_seconds=WIDTH, min_queriers=3, majority_runs=3)
    entries = synthetic_entries()
    trainer = SensorEngine(directory, config)
    window = trainer.process(entries, 0.0, WIDTH, classify=False)[0]
    labeled = LabeledSet.from_pairs(
        (int(o), "scan" if int(o) % 2 else "dns")
        for o in window.features.originators
    )
    trainer.fit(window.features, labeled)
    return directory, config, trainer, labeled, EntryBlock.from_entries(entries)


def offline_reference(directory, config, trainer, block, chunk=400):
    """The `repro classify --stream` path: same engine, chunked replay."""
    engine = SensorEngine(directory, config).fit_from(trainer)
    windows = []
    unsubscribe = engine.on_window(windows.append)
    for lo in range(0, len(block), chunk):
        engine.ingest_block(block[lo : lo + chunk])
        engine.poll()
    engine.finish()
    unsubscribe()
    return windows


def verdict_records(windows):
    """Offline SensedWindows in the service's /verdicts record shape."""
    return [
        {
            "start": float(w.window.start),
            "end": float(w.window.end),
            "verdicts": [
                {
                    "originator": ip_to_str(int(v.originator)),
                    "app_class": v.app_class,
                    "footprint": int(v.footprint),
                }
                for v in w.verdicts
            ],
        }
        for w in windows
    ]


async def http_get(host: str, port: int, path: str):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class TestSocketFeedParity:
    def test_chunked_socket_feed_matches_offline_stream(self):
        directory, config, trainer, _, block = trained_world()
        expected = verdict_records(
            offline_reference(directory, config, trainer, block)
        )
        payload = rbsc_bytes(block)

        async def run():
            service = BackscatterService(
                directory, ServiceConfig(port=0, feed_port=0, sensor=config)
            )
            service.fit_from(trainer)
            await service.start()
            fhost, fport = service.feed_address
            _, writer = await asyncio.open_connection(fhost, fport)
            # Deliberately awkward chunk size: frames split mid-record.
            for lo in range(0, len(payload), 1013):
                writer.write(payload[lo : lo + 1013])
                await writer.drain()
            writer.close()
            await writer.wait_closed()
            # EOF flushes the decoder; wait for the pump to see it all.
            while service.health()["events"] < len(block):
                await asyncio.sleep(0.01)
            await service.drain()
            host, port = service.http_address
            status, body = await http_get(host, port, "/verdicts")
            assert status == 200
            live = json.loads(body)["windows"]
            status, body = await http_get(host, port, "/healthz")
            health = json.loads(body)
            await service.stop()
            return service, live, health

        service, live_before_finish, health = asyncio.run(run())
        assert health["events"] == len(block)
        # After stop() the final window has been flushed too.
        final = service.windows()
        assert len(final) == len(expected) == 3
        for got, want in zip(final, expected):
            assert got["start"] == want["start"]
            assert got["end"] == want["end"]
            assert got["verdicts"] == want["verdicts"]
            assert got["model_version"] == 0
        # No event was lost anywhere in the live path.
        ingest = {s.name: s for s in service.engine.accounting()}["ingest"]
        assert ingest.items_in == len(block)
        assert ingest.dropped == 0

    def test_garbage_text_lines_are_skipped_not_fatal(self):
        directory, config, trainer, _, block = trained_world()
        expected = verdict_records(
            offline_reference(directory, config, trainer, block)
        )
        lines = [
            f"{float(t)!r} {ip_to_str(int(q))} {ip_to_reverse_name(int(o))}\n".encode()
            for t, q, o in zip(block.timestamps, block.queriers, block.originators)
        ]
        middle = len(lines) // 2
        payload = b"".join(
            lines[:middle] + [b"GARBAGE\n", b"1.0 onlytwo\n"] + lines[middle:]
        )

        async def run():
            service = BackscatterService(
                directory,
                ServiceConfig(port=0, feed_port=0, feed_format="text", sensor=config),
            )
            service.fit_from(trainer)
            await service.start()
            _, writer = await asyncio.open_connection(*service.feed_address)
            for lo in range(0, len(payload), 1013):
                writer.write(payload[lo : lo + 1013])
                await writer.drain()
            writer.close()
            await writer.wait_closed()
            # At the parent the connection died at the first bad line.
            await asyncio.wait_for(_until(lambda: service.health()["events"] == len(block)), 10.0)
            await service.drain()
            health = service.health()
            await service.stop()
            return service, health

        service, health = asyncio.run(run())
        assert health["feed_bad_lines"] == 2 and health["status"] == "ok"
        assert _counter(service, "repro_service_feed_bad_lines_total") == 2
        final = service.windows()
        assert len(final) == len(expected) == 3
        for got, want in zip(final, expected):
            assert (got["start"], got["end"]) == (want["start"], want["end"])
            assert got["verdicts"] == want["verdicts"]


async def _until(predicate) -> None:
    while not predicate():
        await asyncio.sleep(0.01)


class TestHotSwap:
    def test_retrain_daily_swap_drops_nothing_and_keeps_prefix(self):
        directory, config, trainer, labeled, block = trained_world()
        expected = verdict_records(
            offline_reference(directory, config, trainer, block)
        )

        async def run():
            service = BackscatterService(
                directory,
                ServiceConfig(
                    port=0,
                    sensor=config,
                    retrain="daily",
                    retrain_min_per_class=2,
                    retrain_min_total=4,
                ),
            )
            service.fit_from(trainer, labeled=labeled)
            await service.start()
            loop = asyncio.get_running_loop()
            # One submission per window; between them, wait for the
            # background fit so the next step performs a hot-swap.
            for w in range(3):
                lo = int(np.searchsorted(block.timestamps, w * WIDTH))
                hi = int(np.searchsorted(block.timestamps, (w + 1) * WIDTH))
                service.submit_block(block[lo:hi])
                await service.drain()
                await loop.run_in_executor(None, service.manager.wait_pending)
            await service.stop()
            return service

        service = asyncio.run(run())
        # The mid-run swaps happened...
        assert service.health()["swaps"].get("swapped", 0) >= 1
        assert service.model_version >= 1
        # ...and cost nothing: every event ingested, every window emitted.
        assert service.health()["events"] == len(block)
        ingest = {s.name: s for s in service.engine.accounting()}["ingest"]
        assert ingest.items_in == len(block)
        assert ingest.dropped == 0
        final = service.windows()
        assert len(final) == 3
        assert [w["start"] for w in final] == [w["start"] for w in expected]
        # Windows classified by the initial model are bit-identical to
        # the no-retrain offline stream: the swap changed no in-flight
        # window, only later ones.
        v0 = [w for w in final if w["model_version"] == 0]
        assert v0, "at least the first window must predate the first swap"
        for got in v0:
            want = expected[final.index(got)]
            assert got["verdicts"] == want["verdicts"]
        # Every window was classified by exactly one model version, and
        # versions only move forward.
        versions = [w["model_version"] for w in final]
        assert versions == sorted(versions)


class _ConstantScan:
    """Deterministic classifier: everything is label code 0 ('scan')."""

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.zeros(len(X), dtype=int)


def _constant_scan_factory(seed: int) -> _ConstantScan:
    return _ConstantScan()


class TestSurgeAlertE2E:
    def test_injected_surge_raises_alert_through_the_feed(self):
        # Six calm windows with 4 scanners, then a 20-scanner surge.
        directory = directory_for(range(100, 200))
        entries: list[QueryLogEntry] = []
        for w in range(7):
            population = 20 if w == 6 else 4
            for o in range(1, population + 1):
                for k in range(4):
                    entries.append(
                        entry(
                            w * WIDTH + o + k * 10.0,
                            querier=100 + (o * 7 + k) % 90,
                            originator=o,
                        )
                    )
        entries.sort(key=lambda e: e.timestamp)
        block = EntryBlock.from_entries(entries)
        config = SensorConfig(
            window_seconds=WIDTH,
            min_queriers=3,
            majority_runs=3,
            classifier_factory=_constant_scan_factory,
        )
        trainer = SensorEngine(directory, config)
        window = trainer.process(entries, 0.0, WIDTH, classify=False)[0]
        # "scan" first so the constant code 0 decodes to it.
        labeled = LabeledSet.from_pairs([(1, "scan"), (2, "dns"), (3, "scan"), (4, "dns")])
        trainer.fit(window.features, labeled)

        async def run():
            service = BackscatterService(
                directory,
                ServiceConfig(
                    port=0,
                    sensor=config,
                    alert_classes=("scan",),
                    alert_window=6,
                    alert_threshold=3.0,
                ),
            )
            service.fit_from(trainer)
            await service.start()
            for lo in range(0, len(block), 97):
                service.submit_block(block[lo : lo + 97])
            await service.drain()
            await service.stop()
            return service

        service = asyncio.run(run())
        assert service.health()["windows"] == 7
        alerts = service.alerts()
        assert len(alerts) == 1
        assert alerts[0]["app_class"] == "scan"
        assert alerts[0]["observed"] == 20
        assert alerts[0]["score"] >= 3.0


class TestServeCli:
    @pytest.fixture()
    def serialized_world(self, tmp_path):
        directory = directory_for(range(100, 140))
        entries = synthetic_entries()
        block = EntryBlock.from_entries(entries)
        log_path = tmp_path / "feed.npz"
        save_block(log_path, block)
        dir_path = tmp_path / "queriers.jsonl"
        write_directory(
            dir_path, (directory.lookup(q) for q in range(100, 140))
        )
        labels = {
            ip_to_str(o): ("scan" if o % 2 else "dns") for o in range(1, 9)
        }
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps(labels))
        return log_path, dir_path, labels_path

    def test_serve_once_replays_and_exits_cleanly(self, serialized_world, capsys):
        from repro.cli import main

        log_path, dir_path, labels_path = serialized_world
        served = []
        for shards in ("1", "2"):
            code = main(
                [
                    "serve",
                    "-l", str(log_path),
                    "-d", str(dir_path),
                    "-t", str(labels_path),
                    "--port", "0",
                    "--window", "100",
                    "--min-queriers", "3",
                    "--chunk", "400",
                    "--retrain", "daily",
                    "--once",
                    "--shards", shards,
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "serving http on 127.0.0.1:" in out
            served.append(re.search(r"served 3 windows, \d+ verdicts", out))
        # Forked shard workers or one engine: same windows, same verdicts.
        assert served[0] and served[1] and served[1][0] == served[0][0]

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_busy_port_exits_1_in_one_line(self, serialized_world, capsys, shards):
        from repro.cli import main

        log_path, dir_path, labels_path = serialized_world
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            code = main(
                [
                    "serve",
                    "-l", str(log_path),
                    "-d", str(dir_path),
                    "-t", str(labels_path),
                    "--port", str(port),
                    "--window", "100",
                    "--min-queriers", "3",
                    "--once",
                    "--shards", shards,
                ]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and str(port) in lines[0]
        assert "serving http" not in captured.out
        # The service's engine was closed: no shard worker outlives main().
        assert multiprocessing.active_children() == []


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestStartUnwinds:
    def test_busy_feed_port_unwinds_and_start_can_be_retried(self):
        directory, config, trainer, _, _ = trained_world()

        async def run():
            with socket.socket() as busy:
                busy.bind(("127.0.0.1", 0))
                busy.listen()
                http_port = _free_port()
                service = BackscatterService(
                    directory,
                    ServiceConfig(
                        port=http_port,
                        feed_port=busy.getsockname()[1],
                        sensor=config,
                    ),
                )
                service.fit_from(trainer)
                with pytest.raises(OSError):
                    await service.start()
                # Unwound: no listener, no pump task left behind.
                assert service.http_address is None
                assert asyncio.all_tasks() == {asyncio.current_task()}
                with socket.socket() as rebind:
                    rebind.bind(("127.0.0.1", http_port))
                # A retry fails on the still-busy feed port, not with
                # "service already started".
                with pytest.raises(OSError):
                    await service.start()
            service.engine.close()

        asyncio.run(run())


class _Counted(RandomForestClassifier):
    """A small forest that logs, in its factory, the thread each ``fit`` ran
    on (a fit in a worker process logs in the worker's copy)."""

    def __init__(self, factory: "_CountingFactory", seed: int) -> None:
        super().__init__(ForestConfig(n_trees=5), seed=seed)
        self.factory = factory

    def fit(self, X, y):
        self.factory.fit_threads.append(threading.current_thread().name)
        if self.factory.explode:
            raise RuntimeError("boom")
        return super().fit(X, y)


class _CountingFactory:
    def __init__(self) -> None:
        self.fit_threads: list[str] = []
        self.explode = False

    def __call__(self, seed: int) -> _Counted:
        return _Counted(self, seed)


class TestPredictOnlyClose:
    """Window close trains nothing once the first window has been classified."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_no_fit_on_the_pump_thread_across_hot_swaps(self, shards):
        factory = _CountingFactory()
        n_windows = 7
        directory = directory_for(range(100, 140))
        config = SensorConfig(
            window_seconds=WIDTH, min_queriers=3, majority_runs=3,
            classifier_factory=factory, seed=4,
        )
        block = EntryBlock.from_entries(synthetic_entries(windows=n_windows))
        trainer = SensorEngine(directory, config)
        first = trainer.process(block, 0.0, WIDTH, classify=False)[0]
        labeled = LabeledSet.from_pairs(
            (int(o), "scan" if int(o) % 2 else "dns")
            for o in first.features.originators
        )
        trainer.fit(first.features, labeled)
        sensed_windows = []
        models = {0: (trainer._train_X, trainer._train_y, trainer.encoder)}

        async def run():
            service = BackscatterService(
                directory,
                ServiceConfig(
                    port=0, sensor=config, shards=shards,
                    retrain="daily", retrain_min_per_class=2, retrain_min_total=4,
                ),
            )
            service.engine.on_window(sensed_windows.append)
            service.fit_from(trainer, labeled=labeled)
            merge = service.engine
            adopt = merge.adopt_training

            def recording_adopt(X, y, encoder):
                models[service.manager.version + 1] = (X, y, encoder)
                return adopt(X, y, encoder)

            merge.adopt_training = recording_adopt
            await service.start()
            loop = asyncio.get_running_loop()
            for w in range(n_windows):
                lo = int(np.searchsorted(block.timestamps, w * WIDTH))
                hi = int(np.searchsorted(block.timestamps, (w + 1) * WIDTH))
                # Window 4 closes in step 5; the candidate it starts must fail.
                factory.explode = w == 5
                service.submit_block(block[lo:hi])
                await service.drain()
                await loop.run_in_executor(None, service.manager.wait_pending)
                if w == 5:
                    serving = (merge._voter, service.model_version)
            # Step 6 met the failed candidate and kept serving version 4.
            assert service.health()["swaps"] == {"swapped": 4, "failed": 1}
            assert (merge._voter, service.model_version) == serving
            assert serving[0] is not None and serving[1] == 4
            await service.stop()
            return service

        service = asyncio.run(run())
        assert service.health()["swaps"] == {"swapped": 5, "failed": 1}
        # The initial model's vote was fitted in the worker process; every
        # later fit ran on the manager's thread.
        assert _counter(service, "repro_service_initial_fit_total", outcome="worker") == 1
        assert all(t.startswith("model-fit") for t in factory.fit_threads)
        # One candidate per closed window: six fitted (the last one after the
        # final close, never installed), the exploding one stopped at fit one.
        assert len(factory.fit_threads) == 6 * config.majority_runs + 1
        records = service.windows()
        assert [r["model_version"] for r in records] == [0, 1, 2, 3, 4, 4, 5]
        assert len(sensed_windows) == n_windows
        for record, sensed in zip(records, sensed_windows):
            fresh = SensorEngine(directory, config)
            fresh.adopt_training(*models[record["model_version"]])
            assert fresh.classify(sensed.features) == sensed.verdicts
            assert [v["app_class"] for v in record["verdicts"]] == [
                v.app_class for v in sensed.verdicts
            ]


def _counter(service, name: str, **labels) -> float:
    instrument = service.registry.get(name)
    return 0.0 if instrument is None else instrument.value(**labels)


def _serve(directory, config, trainer, blocks, *, drain_each, shards=1):
    """Push *blocks* through a service; ``drain_each`` = one step per block."""

    async def run():
        service = BackscatterService(
            directory, ServiceConfig(port=0, sensor=config, shards=shards)
        )
        service.fit_from(trainer)
        await service.start()
        for block in blocks:
            service.submit_block(block)
            if drain_each:
                await service.drain()
        await service.drain()
        assert service.health()["queued_events"] == 0
        await service.stop()
        return service

    return asyncio.run(run())


def _locally_shuffled(block: EntryBlock) -> EntryBlock:
    """Same events, reversed inside each 1.5 s bucket (inside the 2 s slack)."""
    ts = block.timestamps
    order = np.lexsort((-ts, np.floor(ts / 1.5)))
    return EntryBlock(block.data[order])


class TestNaturalBatching:
    """The pump steps on what is queued; what it emits does not depend on it.

    ``submit_block`` is synchronous, so blocks submitted before the first
    ``await`` are all queued when the pump wakes: no sleeps, no timing.
    """

    @pytest.mark.parametrize(
        "shards,shuffle", [(1, False), (2, False), (1, True)]
    )
    def test_queued_burst_matches_one_step_per_block(self, shards, shuffle):
        directory, config, trainer, _, block = trained_world()
        blocks = [block[lo : lo + 97] for lo in range(0, len(block), 97)]
        if shuffle:
            blocks = [_locally_shuffled(b) for b in blocks]
        stepped = _serve(directory, config, trainer, blocks, drain_each=True, shards=shards)
        burst = _serve(directory, config, trainer, blocks, drain_each=False, shards=shards)
        assert len(burst.windows()) == 3
        assert burst.windows() == stepped.windows()
        for key in ("events", "windows", "verdicts"):
            assert burst.health()[key] == stepped.health()[key]
        assert burst.engine.collector.stats == stepped.engine.collector.stats
        assert (burst.engine.collector.stats.reordered > 0) == shuffle
        # The two runs differ only in how many steps they took.
        assert _counter(stepped, "repro_service_pump_steps_total") == len(blocks)
        assert _counter(burst, "repro_service_pump_steps_total") == 1
        for service in (stepped, burst):
            assert _counter(service, "repro_service_pump_blocks_total") == len(blocks)

    @staticmethod
    def _flood(n_blocks: int, per_block: int):
        """Queue *n_blocks* at once on an untrained service; return what the pump did."""
        n = n_blocks * per_block
        rng = np.random.default_rng(3)
        block = EntryBlock.from_arrays(
            np.sort(rng.uniform(0.0, 250.0, n)),
            rng.integers(1, 6, n),
            rng.integers(1, 400, n),
        )

        async def run():
            service = BackscatterService(
                None, ServiceConfig(port=0, sensor=SensorConfig(window_seconds=WIDTH))
            )
            sizes = []
            step = service._step

            def recording_step(joined):
                sizes.append(len(joined))
                step(joined)

            service._step = recording_step
            await service.start()
            for lo in range(0, n, per_block):
                service.submit_block(block[lo : lo + per_block])
            assert service.health()["queued_events"] == n
            await asyncio.wait_for(service.drain(), 60.0)
            assert service._queue.qsize() == 0
            health = service.health()
            await service.stop()
            return service, sizes, health

        return asyncio.run(run())

    def test_step_size_is_bounded_and_every_block_is_accounted(self):
        from repro.logstore.block import DEFAULT_CHUNK_EVENTS

        n_blocks, per_block = 70, 2000
        service, sizes, health = self._flood(n_blocks, per_block)
        events = n_blocks * per_block
        assert sum(sizes) == health["events"] == events
        assert health["queued_events"] == 0 and health["status"] == "ok"
        assert max(sizes) < DEFAULT_CHUNK_EVENTS + per_block
        steps = _counter(service, "repro_ingest_blocks_total", path="stream")
        assert 1 <= steps <= -(-events // DEFAULT_CHUNK_EVENTS) + 1
        assert steps == len(sizes) == _counter(service, "repro_service_pump_steps_total")
        assert _counter(service, "repro_service_pump_blocks_total") == n_blocks

    def test_trickle_of_tiny_blocks_drains_in_a_few_steps(self):
        _, sizes, health = self._flood(2000, 25)
        assert len(sizes) <= 3
        assert health["events"] == 50_000 and health["windows"] == 2

    def test_retrain_daily_under_a_burst_keeps_one_model_per_window(self):
        directory, config, trainer, labeled, _ = trained_world()
        block = EntryBlock.from_entries(synthetic_entries(windows=7))
        cut = int(np.searchsorted(block.timestamps, 4 * WIDTH))
        bursts = [
            [part[lo : lo + 97] for lo in range(0, len(part), 97)]
            for part in (block[:cut], block[cut:])
        ]
        sensed_windows = []
        models = {0: (trainer._train_X, trainer._train_y, trainer.encoder)}

        async def run():
            service = BackscatterService(
                directory,
                ServiceConfig(
                    port=0, sensor=config, retrain="daily",
                    retrain_min_per_class=2, retrain_min_total=4,
                ),
            )
            service.engine.on_window(sensed_windows.append)
            service.fit_from(trainer, labeled=labeled)
            adopt = service.engine.adopt_training

            def recording_adopt(X, y, encoder):
                models[service.manager.version + 1] = (X, y, encoder)
                return adopt(X, y, encoder)

            service.engine.adopt_training = recording_adopt
            await service.start()
            loop = asyncio.get_running_loop()
            for burst in bursts:
                for part in burst:
                    service.submit_block(part)
                await service.drain()
                await loop.run_in_executor(None, service.manager.wait_pending)
            await service.stop()
            return service

        service = asyncio.run(run())
        assert _counter(service, "repro_service_pump_steps_total") == len(bursts)
        swaps = service.health()["swaps"]
        assert "failed" not in swaps and swaps["swapped"] >= 1
        records = service.windows()
        versions = [r["model_version"] for r in records]
        assert len(records) == 7 and versions == sorted(versions)
        assert versions[0] == 0 and versions[-1] >= 1
        # Each window's verdicts are what the one version it names predicts.
        for record, sensed in zip(records, sensed_windows):
            fresh = SensorEngine(directory, config)
            fresh.adopt_training(*models[record["model_version"]])
            assert fresh.classify(sensed.features) == sensed.verdicts


class TestRaisingStep:
    def test_pump_survives_a_raising_hook_and_drain_returns(self):
        directory, config, trainer, _, _ = trained_world()
        block = EntryBlock.from_entries(synthetic_entries(windows=5))
        cut = int(np.searchsorted(block.timestamps, 3 * WIDTH))

        def hook(sensed):
            raise RuntimeError("hook exploded")

        async def run():
            service = BackscatterService(directory, ServiceConfig(port=0, sensor=config))
            service.engine.on_window(hook)
            service.fit_from(trainer)
            await service.start()
            for lo in range(0, cut, 50):
                service.submit_block(block[lo : min(lo + 50, cut)])
            # At the parent the pump task died here and join() never returned.
            await asyncio.wait_for(service.drain(), 10.0)
            assert not service._pump_task.done()
            first = service.health()
            service.submit_block(block[cut:])
            await asyncio.wait_for(service.drain(), 10.0)
            host, port = service.http_address
            status, body = await http_get(host, port, "/healthz")
            await asyncio.wait_for(service.stop(), 10.0)
            return service, first, status, json.loads(body)

        service, first, status, health = asyncio.run(run())
        assert first["status"] == "degraded" and first["step_errors"] == 1
        assert first["queued_events"] == 0
        assert status == 200 and health["status"] == "degraded"
        assert health["step_errors"] == 2 and health["events"] == len(block)
        assert "hook exploded" in health["last_step_error"]
        # stop()'s final flush hit the hook too, and still unwound.
        assert service.health()["step_errors"] == 3
        assert _counter(service, "repro_service_step_errors_total") == 3
        assert service.http_address is None


def _fit_workers() -> list[str]:
    """Live initial-fit worker processes of this process."""
    return [p.name for p in multiprocessing.active_children() if p.name.startswith("repro-fit")]


def _raise_in_worker(self):
    raise ValueError("boom")


def _die_in_worker(self):
    os.kill(os.getpid(), signal.SIGKILL)


class TestInitialFitWorker:
    """The initial vote is fitted in a worker forked by ``fit_from`` and
    collected by the first window that needs it."""

    def _serve_windows(self, *, start_fit=True, feed=True):
        directory, config, trainer, _, block = trained_world()
        seen = {}

        async def run():
            service = BackscatterService(directory, ServiceConfig(port=0, sensor=config))
            service.fit_from(trainer)
            seen["forked"] = _fit_workers()
            await service.start()
            if start_fit:
                service.start_fit()
            if feed:
                first = int(np.searchsorted(block.timestamps, WIDTH + 50.0))
                service.submit_block(block[:first])  # closes the first window
                await service.drain()
                seen["after_hand_over"] = (len(service.windows()), _fit_workers())
                service.submit_block(block[first:])
            await service.stop()
            return service

        service = asyncio.run(run())
        expected = verdict_records(offline_reference(directory, config, trainer, block))
        return service, expected, seen

    def test_served_verdicts_equal_an_in_process_fit(self):
        service, expected, seen = self._serve_windows()
        assert seen["forked"] == ["repro-fit-0"]
        assert seen["after_hand_over"] == (1, [])
        final = service.windows()
        assert [(w["start"], w["end"], w["verdicts"]) for w in final] == [
            (w["start"], w["end"], w["verdicts"]) for w in expected
        ]
        # The vote was rebuilt around the engine's own training arrays.
        engine = service.engine
        assert engine._voter.fitted_on(*engine.vote_args)
        assert _counter(service, "repro_service_initial_fit_total", outcome="worker") == 1
        assert _counter(service, "repro_service_initial_fit_total", outcome="failed") == 0
        assert _counter(service, "repro_service_initial_fit_seconds") > 0
        assert _counter(service, "repro_service_initial_vote_wait_seconds") > 0
        text = service.registry.to_prometheus()
        # The worker's own spans die with its registry copy; the service
        # holds no fit span for the initial vote.
        assert 'span="classifier.fit"' not in text
        assert "repro_service_initial_fit_seconds " in text

    @pytest.mark.parametrize("start_fit", [True, False])
    def test_stop_before_any_window_reaps_the_worker(self, start_fit):
        service, _, seen = self._serve_windows(start_fit=start_fit, feed=False)
        assert seen["forked"] == ["repro-fit-0"]
        assert _fit_workers() == []
        assert service.windows() == []
        assert _counter(service, "repro_service_initial_fit_total", outcome="worker") == 0

    @pytest.mark.parametrize("fault", [_raise_in_worker, _die_in_worker])
    def test_a_failed_worker_leaves_the_in_process_fit(self, fault, monkeypatch):
        monkeypatch.setattr(_InitialFit, "fit", fault)  # inherited through fork
        service, expected, seen = self._serve_windows()
        assert seen["after_hand_over"] == (1, [])
        final = service.windows()
        assert [w["verdicts"] for w in final] == [w["verdicts"] for w in expected]
        assert _counter(service, "repro_service_initial_fit_total", outcome="failed") == 1
        assert _counter(service, "repro_service_initial_fit_total", outcome="worker") == 0
        assert _counter(service, "repro_service_initial_fit_seconds") == 0
        assert service.engine._voter.fitted_on(*service.engine.vote_args)


def test_engine_fit_records_no_fit_span():
    """``fit`` selects the training rows; only a vote's model fits are
    ``classifier.fit`` spans."""
    directory, config, trainer, labeled, block = trained_world()
    registry = MetricsRegistry()
    engine = SensorEngine(directory, config, registry=registry)
    window = engine.process(block, 0.0, WIDTH, classify=False)[0]
    engine.fit(window.features, labeled)
    assert 'span="classifier.fit"' not in registry.to_prometheus()
    engine.classify(window.features)
    fits = registry.get("repro_span_total").value(span="classifier.fit", outcome="ok")
    assert fits == config.majority_runs

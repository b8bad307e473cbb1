"""Live side of bench-e2e: spawn ``repro serve``, feed it, watch it.

One *cycle* is one service process: spawn → ready line → (optionally)
stream the feed over one TCP connection while a poller thread watches
``/healthz`` and ``/verdicts`` from outside → SIGTERM → reap.  The load
generator is this process: one sender thread, one poller thread.

Every wait has a deadline.  A service that never becomes ready, stops
making progress, or exits non-zero is killed and reaped, and the cycle
is returned with ``error`` set so the caller counts everything it still
owed as failed.
"""

from __future__ import annotations

import json
import mmap
import os
import queue
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.service import ServiceConfig

from workloads import MIN_QUERIERS, Feed, Workload, World

__all__ = [
    "VERDICT_HISTORY", "Cycle", "PagePool", "ServiceProcess", "hi_percentile",
    "run_cycle", "serve_argv",
]

VERDICT_HISTORY = ServiceConfig().verdict_history
"""Windows ``/verdicts`` retains (``repro serve`` has no flag for it): a
cycle can be checked only while it closes no more than this many."""

READY_TIMEOUT_S = 60.0
FEED_TIMEOUT_S = 60.0
"""Allowed beyond the feed's own scheduled duration."""
STOP_TIMEOUT_S = 30.0
POLL_INTERVAL_S = 0.02
SEND_SLICE = 1 << 20
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


class PagePool:
    """Touched memory, held between cycles and freed just before a spawn.

    This guest's hypervisor takes back pages the guest has left free for
    a few seconds (balloon free-page reporting), and the first touch of
    such a page costs ~5 ms per MB: a service growing to 200 MB paid
    0.05-0.95 s for it depending on what ran in the seconds before, which
    was a fifth of a firehose cycle and a quarter of ``setup_s`` (README,
    "Noise").  Pages freed a moment ago are still backed and the kernel
    hands those out first, so every cycle starts from the same state.
    On a host without the balloon this is one cheap allocation.
    """

    def __init__(self, megabytes: int) -> None:
        self._size = megabytes << 20
        self._map: mmap.mmap | None = None
        self.fill()

    def fill(self) -> None:
        if self._map is None:
            self._map = mmap.mmap(-1, self._size)
            np.frombuffer(self._map, dtype=np.uint8)[::_PAGE] = 1

    def release(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None


def serve_argv(world: World, spec: Workload) -> list[str]:
    """The ``repro serve`` command line for one workload."""
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "-l", str(world.log_path), "-d", str(world.directory_path),
        "-t", str(world.labels_path),
        "--port", "0", "--feed-port", "0",
        "--window", repr(spec.window_seconds),
        "--min-queriers", str(MIN_QUERIERS),
        "--retrain", spec.retrain,
    ]
    if spec.sketch:
        argv.append("--sketch")
    return argv


class ServiceProcess:
    """A spawned service whose stdout is drained on a thread."""

    def __init__(self, argv: list[str], src_dir: Path) -> None:
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            env={**os.environ, "PYTHONPATH": str(src_dir)},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()
        self.http_port: int | None = None
        self.feed_port: int | None = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._queue.put(line.rstrip("\n"))
        self._queue.put(None)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float) -> float:
        """Seconds from spawn to the ``replayed … events`` line."""
        deadline = self.spawned_at + timeout
        while True:
            try:
                line = self._queue.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise TimeoutError(
                    f"no ready line within {timeout:.0f} s; last output: "
                    f"{self.lines[-3:]}"
                ) from None
            if line is None:
                raise RuntimeError(
                    f"service exited (rc {self.proc.wait()}) before it was "
                    f"ready; last output: {self.lines[-5:]}"
                )
            self.lines.append(line)
            if line.startswith("serving http on "):
                self.http_port = int(line.rsplit(":", 1)[1])
            elif line.startswith("accepting "):
                self.feed_port = int(line.rsplit(":", 1)[1])
            elif line.startswith("replayed "):
                if self.http_port is None or self.feed_port is None:
                    raise RuntimeError(f"ready without ports: {self.lines}")
                return time.perf_counter() - self.spawned_at

    def get(self, path: str, timeout: float = 10.0) -> bytes:
        """Body of ``GET path`` (the server closes after one response)."""
        with socket.create_connection(("127.0.0.1", self.http_port), timeout) as conn:
            conn.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
            chunks = []
            while True:
                data = conn.recv(1 << 20)
                if not data:
                    break
                chunks.append(data)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 200"):
            raise RuntimeError(f"GET {path}: {head[:60]!r}")
        return body

    def cpu_seconds(self) -> float:
        """utime + stime of the service and its reaped children."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = STOP_TIMEOUT_S) -> int:
        """SIGTERM, wait, and reap; SIGKILL if it will not go."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            rc = self.kill()
        self._drain.join(5.0)
        return rc

    def kill(self) -> int:
        if self.proc.poll() is None:
            self.proc.kill()
        rc = self.proc.wait()
        self._drain.join(5.0)
        return rc


@dataclass(slots=True)
class Cycle:
    """What one service process showed from outside."""

    setup_s: float = float("nan")
    wall_s: float = float("nan")
    """First byte offered → every event counted and every window visible."""
    cpu_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    latencies_s: list[float] = field(default_factory=list)
    """Per expected window: closing event due → record visible."""
    records: list[dict] = field(default_factory=list)
    """The last ``/verdicts`` body's windows."""
    health: dict = field(default_factory=dict)
    lag_max_s: float = 0.0
    send_s: float = float("nan")
    backlog_peak_events: int = 0
    backlog_end_events: int = 0
    error: str | None = None


class _Sender(threading.Thread):
    """Offers the feed: all at once, or each event when it is due."""

    def __init__(self, port: int, feed: Feed) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.feed = feed
        self.started_at: float | None = None
        self.ready = threading.Event()
        self.sent_events = 0
        self.lag_max_s = 0.0
        self.send_s = float("nan")
        self.error: OSError | None = None
        self.abort = threading.Event()

    def run(self) -> None:
        try:
            with socket.create_connection(("127.0.0.1", self.port), 10.0) as conn:
                conn.settimeout(FEED_TIMEOUT_S)
                self.started_at = time.perf_counter()
                self.ready.set()
                if self.feed.due_s is None:
                    self._firehose(conn)
                else:
                    self._paced(conn)
                self.send_s = time.perf_counter() - self.started_at
        except OSError as error:  # the poll loop reports it and ends the cycle
            self.error = error
            self.ready.set()

    def _firehose(self, conn: socket.socket) -> None:
        payload = memoryview(self.feed.payload)
        total = len(payload)
        for offset in range(0, total, SEND_SLICE):
            if self.abort.is_set():
                return
            conn.sendall(payload[offset : offset + SEND_SLICE])
            self.sent_events = self.feed.events * min(total, offset + SEND_SLICE) // total

    def _paced(self, conn: socket.socket) -> None:
        payload = memoryview(self.feed.payload)
        due = self.feed.due_s
        ends = self.feed.byte_ends
        sent = 0
        offset = 0
        while sent < due.size and not self.abort.is_set():
            now = time.perf_counter() - self.started_at
            upto = int(np.searchsorted(due, now, side="right"))
            if upto > sent:
                end = int(ends[upto - 1])
                conn.sendall(payload[offset:end])
                done = time.perf_counter() - self.started_at
                self.lag_max_s = max(self.lag_max_s, done - float(due[sent]))
                offset, sent = end, upto
                self.sent_events = sent
            else:
                time.sleep(max(0.0, float(due[sent]) - now))


def run_cycle(
    world: World,
    feed: Feed | None,
    spec: Workload,
    src_dir: Path,
    argv: list[str] | None = None,
    probe=None,
    pool: PagePool | None = None,
    ready_timeout: float = READY_TIMEOUT_S,
    feed_timeout: float = FEED_TIMEOUT_S,
) -> Cycle:
    """One service lifetime.  ``feed=None`` measures set-up only.

    *probe*, when given, is called as ``probe(service, cycle)`` after
    the feed completes and before SIGTERM (the traced run's live reads).
    *pool* is released for the service to grow into and refilled once
    the service is reaped.
    """
    cycle = Cycle()
    if pool is not None:
        pool.release()
    service = ServiceProcess(argv or serve_argv(world, spec), src_dir)
    try:
        cycle.setup_s = service.wait_ready(ready_timeout)
        if feed is not None:
            _feed_and_watch(service, world, feed, cycle, feed_timeout)
            if probe is not None and cycle.error is None:
                probe(service, cycle)
    except (TimeoutError, RuntimeError, OSError, ValueError) as error:
        cycle.error = f"{type(error).__name__}: {error}"
    finally:
        if cycle.error is not None or feed is None:
            # Nothing to flush after a spawn-only cycle: skip the clean
            # shutdown (it would classify the still-open training window).
            service.kill()
        else:
            rc = service.stop()
            if rc != 0:
                cycle.error = f"service exited with rc {rc}: {service.lines[-3:]}"
        if pool is not None:
            pool.fill()
    return cycle


def _count_windows(body: bytes) -> int:
    # Every window record has exactly one "model_version" key; counting
    # it avoids parsing a multi-megabyte body on the poller thread.
    return body.count(b'"model_version"')


def _feed_and_watch(
    service: ServiceProcess, world: World, feed: Feed, cycle: Cycle, timeout: float
) -> None:
    expected_events = world.train_events + feed.events
    expected_windows = len(feed.window_bounds)
    scheduled = 0.0 if feed.due_s is None else float(feed.due_s[-1])
    cpu_before = service.cpu_seconds()
    sender = _Sender(service.feed_port, feed)
    sender.start()
    if not sender.ready.wait(15.0) or sender.error is not None:
        raise RuntimeError(f"feed connection failed: {sender.error}")
    started = sender.started_at
    deadline = started + scheduled + timeout
    visible_at: list[float] = []
    counted_at = float("inf")
    body = b""
    health: dict = {}
    try:
        while True:
            if time.perf_counter() > deadline:
                raise TimeoutError(
                    f"feed not absorbed within {scheduled + timeout:.0f} s: "
                    f"{health.get('events', 0)}/{expected_events} events, "
                    f"{len(visible_at)}/{expected_windows} windows"
                )
            if service.proc.poll() is not None:
                raise RuntimeError(
                    f"service died mid-feed (rc {service.proc.returncode}): "
                    f"{service.lines[-3:]}"
                )
            if sender.error is not None:
                raise RuntimeError(f"sender failed: {sender.error}")
            sent = sender.sent_events
            health = json.loads(service.get("/healthz"))
            backlog = world.train_events + sent - health["events"]
            cycle.backlog_peak_events = max(cycle.backlog_peak_events, backlog)
            if health["windows"] > len(visible_at):
                body = service.get("/verdicts", timeout=30.0)
                seen_at = time.perf_counter()
                visible_at.extend([seen_at] * (_count_windows(body) - len(visible_at)))
            if health["events"] >= expected_events:
                counted_at = min(counted_at, time.perf_counter())
                if len(visible_at) >= expected_windows:
                    break
            time.sleep(POLL_INTERVAL_S)
    finally:
        sender.abort.set()
        sender.join(5.0)
        cycle.health = health
        cycle.records = json.loads(body)["windows"] if body else []
    finished = max(counted_at, visible_at[expected_windows - 1])
    cycle.wall_s = finished - started
    cycle.cpu_s = service.cpu_seconds() - cpu_before
    cycle.peak_rss_mb = service.peak_rss_mb()
    cycle.lag_max_s = sender.lag_max_s
    cycle.send_s = sender.send_s
    cycle.backlog_end_events = expected_events - health["events"]
    due = np.zeros(expected_windows) if feed.due_s is None else feed.due_s[feed.closing_event]
    cycle.latencies_s = [
        visible_at[k] - (started + float(due[k])) for k in range(expected_windows)
    ]


def hi_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ≥ 10 samples beyond it.

    Returns ``(50.0, median)`` when fewer than 20 samples leave no
    percentile above the median with ten beyond it.
    """
    n = len(samples)
    if n == 0:
        return float("nan"), float("nan")
    if n < 20:
        return 50.0, statistics.median(samples)
    index = n - 11
    return 100.0 * (index + 1) / n, sorted(samples)[index]

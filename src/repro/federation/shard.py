"""Shard-side worker: one originator partition's full sensing pipeline.

A :class:`ShardWorker` owns a :class:`~repro.sensor.engine.SensorEngine`
configured with ``reorder_slack=0`` (the
:class:`~repro.federation.driver.ShardedCollector`'s
:class:`~repro.sensor.reorder.ReorderFront` resolves reordering
globally).  It exposes exactly the calls the two overridden
stages of :class:`~repro.federation.driver.FederatedSensor` need:

1. **feed/close** (window stage) — ingest released arrays, advance to
   the global watermark, and return a :class:`WindowSummary` per newly
   closed window: the shard's querier roster, AS set and country set
   (directory codes), which ``featurize`` unions into the merged
   :class:`~repro.sensor.dynamic.WindowContext`.
2. **featurize** — select + featurize the stored partial window under
   the merged context broadcast back, returning the rows as
   :class:`ShardRows`.  Because every feature row depends only on its
   own observation plus the shared context, shard rows are bit-identical
   to the rows a single engine computes for the same originators.  The
   window's enrichment counts and sketch pre-stage counters (``--sketch``)
   ride back with them, for the driver to publish.

Process fan-out: :class:`ShardPool` forks one process per shard behind
one duplex pipe; the parent sends ``(method, args)`` — flat arrays and
index/context tuples — and the shard replies ``(ok, value)``.  A shard
holds no parent end of any pipe, so it exits on EOF when the parent
closes the pool, exits or dies.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Sequence

import numpy as np

from repro.logstore import EntryBlock
from repro.sensor.collection import ObservationWindow
from repro.sensor.directory import EnrichmentCache, QuerierDirectory
from repro.sensor.dynamic import WindowContext
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.features import features_from_selected
from repro.sensor.selection import analyzable

__all__ = ["WindowSummary", "ShardRows", "ShardWorker", "ShardPool"]


@dataclass(slots=True)
class WindowSummary:
    """One shard's context contribution for one closed window."""

    index: int
    start: float
    end: float
    originators: int
    """Distinct originators materialized by this shard (partition-local)."""
    addrs: np.ndarray
    """Sorted distinct querier addresses this shard saw in the window."""
    asns: np.ndarray
    """Sorted distinct known ASNs over those addresses."""
    countries: np.ndarray
    """Sorted distinct known country codes over those addresses (every
    shard reads the one directory inherited through fork)."""


@dataclass(slots=True)
class ShardRows:
    """One shard's featurize output for one window."""

    shard: int
    index: int
    originators: np.ndarray
    matrix: np.ndarray
    footprints: np.ndarray
    select_in: int
    select_out: int
    rows: int
    seconds: float
    hits: int
    misses: int
    """The window's featurize enrichment reads (:class:`EnrichmentCache`)."""
    sketch: dict[str, int] | None = None
    """The window's pre-stage counters
    (:meth:`~repro.sketch.prestage.SketchPreStage.counters`), if it has one."""


class ShardWorker:
    """The per-shard pipeline: window/dedup/sketch + context partials + rows."""

    def __init__(
        self,
        shard_id: int,
        directory: QuerierDirectory,
        config: SensorConfig,
    ) -> None:
        self.shard_id = shard_id
        self.config = config.replaced(reorder_slack=0.0)
        self.directory = directory
        self.engine = SensorEngine(self.directory, self.config)
        self._windows: dict[int, ObservationWindow] = {}

    # -- batch ----------------------------------------------------------

    def run_batch(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
        start: float,
        end: float,
        width: float,
    ) -> tuple[list[WindowSummary], int, float]:
        """Window this shard's slice of a batch span.

        Returns the summaries of traffic-bearing windows, the
        window-stage drop delta (dedup + sketch-gated events), and the
        worker-side wall time.
        """
        started = time.perf_counter()
        block = EntryBlock.from_arrays(timestamps, queriers, originators)
        dropped_before = self.engine.stats["window"].dropped
        windows = self.engine.windows(block, start, end, window_seconds=width)
        dropped_delta = self.engine.stats["window"].dropped - dropped_before
        summaries = []
        for index, window in enumerate(windows):
            summary = self._store(index, window)
            if summary is not None:
                summaries.append(summary)
        return summaries, dropped_delta, time.perf_counter() - started

    # -- streaming ------------------------------------------------------

    def feed_and_advance(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
        watermark: float,
    ) -> tuple[list[WindowSummary], int, float]:
        """Ingest released arrays, then close windows at the global watermark.

        Returns newly closed window summaries, the shard collector's
        cumulative dedup count, and the worker-side wall time.
        """
        started = time.perf_counter()
        collector = self.engine.collector
        if len(timestamps):
            collector.ingest_arrays(timestamps, queriers, originators)
        collector.advance_watermark(watermark)
        summaries = self._store_completed(collector.completed_windows())
        return summaries, collector.stats.deduplicated, time.perf_counter() - started

    def finish(self) -> tuple[list[WindowSummary], int, float]:
        """End of stream: flush still-open windows."""
        started = time.perf_counter()
        collector = self.engine.collector
        summaries = self._store_completed(collector.flush())
        return summaries, collector.stats.deduplicated, time.perf_counter() - started

    # -- featurize ------------------------------------------------------

    def featurize_window(self, index: int, context: WindowContext) -> ShardRows:
        """Select + featurize a stored window under the merged context."""
        started = time.perf_counter()
        window = self._windows.pop(index)
        selected = analyzable(window, self.config.min_queriers)
        prestage = window.prestage
        items_in = len(window) if prestage is None else prestage.originators_seen
        cache = EnrichmentCache(self.directory)
        features = features_from_selected(window, selected, cache, context=context)
        return ShardRows(
            shard=self.shard_id,
            index=index,
            originators=features.originators,
            matrix=features.matrix,
            footprints=features.footprints,
            select_in=items_in,
            select_out=len(selected),
            rows=len(features),
            seconds=time.perf_counter() - started,
            hits=cache.hits,
            misses=cache.misses,
            sketch=None if prestage is None else prestage.counters(),
        )

    # -- internals ------------------------------------------------------

    def _store_completed(
        self, completed: list[ObservationWindow]
    ) -> list[WindowSummary]:
        origin = self.config.origin
        width = self.config.window_seconds
        summaries = []
        for window in completed:
            index = int(round((window.start - origin) / width))
            summary = self._store(index, window)
            if summary is not None:
                summaries.append(summary)
        return summaries

    def _store(self, index: int, window: ObservationWindow) -> WindowSummary | None:
        """Keep a window for the featurize phase; summarize its context.

        Windows with neither observations nor a pre-stage contribute
        nothing to any stage and are skipped (the driver gap-fills).
        """
        if len(window) == 0 and window.prestage is None:
            return None
        self._windows[index] = window
        addrs = window.querier_addrs()
        _, asns, countries = self.directory.codes(addrs)
        return WindowSummary(
            index=index,
            start=window.start,
            end=window.end,
            originators=len(window),
            addrs=addrs,
            asns=np.unique(asns[asns >= 0]),
            countries=np.unique(countries[countries >= 0]),
        )


# -- process fan-out ------------------------------------------------------

#: Parent ends of every live shard pipe in this process.  A forked shard
#: closes its copies first, so the parent's exit or death is its EOF.
_PARENT_ENDS: weakref.WeakSet[Connection] = weakref.WeakSet()


def _serve(conn: Connection, worker: ShardWorker) -> None:
    """A shard process: answer each ``(method, args)`` with ``(ok, value)``."""
    for end in list(_PARENT_ENDS):
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    try:
        while True:
            method, args = conn.recv()
            try:
                reply = (True, getattr(worker, method)(*args))
            except Exception as exc:  # handed to the parent, which raises it
                reply = (False, (exc, traceback.format_exc()))
            conn.send(reply)
    except (EOFError, BrokenPipeError):
        return  # the parent closed its end, exited or died


class ShardPool:
    """One process per shard, forked here, behind one duplex pipe each.

    A shard inherits its :class:`ShardWorker` (never pickled) and answers
    requests in arrival order, which the driver's feed → close →
    featurize sequencing relies on.
    """

    def __init__(self, workers: Sequence[ShardWorker]) -> None:
        context = multiprocessing.get_context("fork")
        self._shards: list[tuple[Connection, BaseProcess]] = []
        # Ctrl-C stays blocked in a new shard until it has ignored it.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for worker in workers:
                parent_end, child_end = context.Pipe()
                _PARENT_ENDS.add(parent_end)
                process = context.Process(target=_serve, args=(child_end, worker), daemon=True,
                                          name=f"repro-shard-{worker.shard_id}")
                process.start()
                child_end.close()  # the shard's death is then this end's EOF
                self._shards.append((parent_end, process))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def __len__(self) -> int:
        return len(self._shards)

    def call(self, requests: Sequence[tuple[int, str, tuple]]) -> list[object]:
        """Run ``(shard, method, args)`` requests, at most one per shard.

        Every request is sent before any reply is read, so shards work
        concurrently.  A shard's exception re-raises here once every
        reply is in; a shard that is gone closes the pool and raises
        :class:`RuntimeError` naming it.
        """
        for shard, method, args in requests:
            self._transfer(shard, "send", (method, args))
        replies = [self._transfer(shard, "recv") for shard, _, _ in requests]
        for ok, value in replies:
            if not ok:
                exc, remote = value
                raise exc from RuntimeError(f"raised in a shard process:\n{remote}")
        return [value for _, value in replies]

    def _transfer(self, shard: int, op: str, *payload: object) -> object:
        conn, process = self._shards[shard]
        try:
            return getattr(conn, op)(*payload)
        except (EOFError, OSError) as exc:
            self.close()
            raise RuntimeError(
                f"shard {shard} (pid {process.pid}) is gone: exit code {process.exitcode}"
            ) from exc

    def close(self) -> None:
        """End every shard (idempotent): close its pipe, then reap it."""
        for conn, _ in self._shards:
            _PARENT_ENDS.discard(conn)
            conn.close()
        for _, process in self._shards:
            process.join(5.0)
            if process.exitcode is None:  # it ignored its EOF
                process.terminate()
                process.join()

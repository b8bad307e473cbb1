"""Sharding is a collector: N shard pipelines behind one ``SensorEngine``.

Everything in the staged pipeline partitions by originator except the
two places that are window-global — the dynamic-feature normalizers and
the seeded majority vote.  So :class:`FederatedSensor` *is* a
:class:`~repro.sensor.engine.SensorEngine` and swaps exactly two stages:

* **window** — its collector is a :class:`ShardedCollector`: one
  :class:`~repro.sensor.reorder.ReorderFront` resolves lateness and
  reordering once, released events are hash-partitioned to the
  :class:`~repro.federation.shard.ShardPool`, whose collectors run in
  lockstep behind the global watermark, and closed windows come back as
  :class:`ShardedWindow`\\ s — per-shard context partials, the
  observations themselves stay in the shards.  (Batch :meth:`windows`
  fans a whole span out the same way.)
* **select + featurize** — :meth:`FederatedSensor.featurize` fuses the
  partials into the merged :class:`~repro.sensor.dynamic.WindowContext`,
  broadcasts it back, and interleaves the shards' rows in first-appearance
  order, so the normalizers are window-global exactly as in one engine.

Ingest accounting, ``poll``/``finish``/``process``, window hooks,
the classify stage (run once, in this process,
over the merged rows) and the accounting report are the base class's.
Rows, verdicts and stage stats are **bit-identical** to a single engine
over the unpartitioned input (property-tested; the one documented
exception is streaming sketch mode, where the single engine's row
*order* follows promotion order while the federation's canonical order
is first appearance — row contents and per-originator verdicts match).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.dnssim.message import QueryLogEntry
from repro.federation.merge import merge_rows, merged_context
from repro.federation.partition import note_first_appearance, partition_arrays
from repro.federation.shard import ShardPool, ShardWorker, WindowSummary
from repro.logstore import EntryBlock
from repro.sensor.directory import QuerierDirectory
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.features import FeatureSet
from repro.sensor.reorder import Columns, ReorderFront
from repro.sensor.streaming import StreamingStats
from repro.telemetry import MetricsRegistry, count, get_registry, observe, span

__all__ = ["ShardedWindow", "ShardedCollector", "FederatedSensor", "sensor_for"]

Parts = list[tuple[int, WindowSummary]]


@dataclass(slots=True)
class ShardedWindow:
    """One observation interval held as per-shard partial windows.

    Stands where an :class:`~repro.sensor.collection.ObservationWindow`
    does in a :class:`~repro.sensor.engine.SensedWindow`: it has the
    interval and the originator count, while the observations stay in
    the shards until :meth:`FederatedSensor.featurize` asks for rows.
    """

    index: int
    start: float
    end: float
    parts: Parts = field(default_factory=list)
    """``(shard id, context partial)`` of every shard that saw traffic."""
    ranks: dict[int, int] = field(default_factory=dict)
    """Originator → first-appearance rank, the canonical row order."""

    prestage = None  # pre-stages stay in the shards

    def __len__(self) -> int:
        """Distinct originators materialized across all shards."""
        return sum(summary.originators for _, summary in self.parts)


def _observe_shard(shard: int, op: str, seconds: float, events: int = 0) -> None:
    if get_registry() is None:
        return
    if seconds > 0.0:
        observe("repro_federation_shard_seconds", seconds,
                help="Worker-side wall time per shard task.",
                shard=str(shard), op=op)
    if events:
        count("repro_federation_events_total", events,
              help="Events partitioned to each shard.", shard=str(shard))


class ShardedCollector:
    """The collector of a sharded run.

    Same surface the engine uses on a
    :class:`~repro.sensor.streaming.StreamingCollector` —
    ``ingest_block``, ``completed_windows``, ``flush``, ``stats``,
    ``pending_entries``, ``pending_windows`` — with the windowing done
    by the pool's shard collectors (zero slack, advanced to this front's
    watermark after every block).
    """

    def __init__(
        self,
        pool: ShardPool,
        window_seconds: float,
        origin: float,
        reorder_slack: float,
    ) -> None:
        self._pool = pool
        self._n_shards = len(pool)
        self._origin = origin
        self._width = window_seconds
        self._front = ReorderFront(origin=origin, reorder_slack=reorder_slack)
        self._ranks: dict[int, dict[int, int]] = {}
        self._closed: dict[int, Parts] = {}
        self._shard_dropped = [0] * self._n_shards
        self._windows_emitted = 0

    def ingest_block(self, block: EntryBlock) -> None:
        released = self._front.push(
            block.timestamps, block.queriers, block.originators
        )
        self.scatter("feed_and_advance", "feed", released, self._front.watermark)

    def scatter(self, method: str, op: str, events: Columns, *args: object) -> None:
        """Run *method* on every shard over its partition of time-ordered
        *events*; buffer the window summaries that come back."""
        note_first_appearance(
            events[0], events[2], self._origin, self._width, self._ranks
        )
        parts = partition_arrays(*events, self._n_shards)
        self._gather(
            method, op,
            [(*columns, *args) for columns in parts],
            [len(columns[0]) for columns in parts],
        )

    def _gather(
        self, method: str, op: str, shard_args: list[tuple], events: list[int]
    ) -> None:
        replies = self._pool.call([(shard, method, args) for shard, args in enumerate(shard_args)])
        for shard, (summaries, dropped, elapsed) in enumerate(replies):
            # dropped: the shard's window-stage drops so far (cumulative
            # on the streaming calls, the span's on ``run_batch``).
            self._shard_dropped[shard] = dropped
            _observe_shard(shard, op, elapsed, events[shard])
            for summary in summaries:
                # Counted when the shards close it (they close in
                # lockstep), as a single collector counts at close.
                if summary.index not in self._closed:
                    self._windows_emitted += 1
                self._closed.setdefault(summary.index, []).append((shard, summary))

    def completed_windows(self) -> list[ShardedWindow]:
        """Windows the shards have closed, merged by index (drains)."""
        out = []
        for index in sorted(self._closed):
            parts = self._closed.pop(index)
            # A shard's bounds are the single engine's, float for float.
            first = parts[0][1]
            out.append(
                ShardedWindow(
                    index, first.start, first.end, parts, self._ranks.pop(index, {})
                )
            )
        return out

    def flush(self) -> list[ShardedWindow]:
        """End of stream: release the front, close every shard's windows."""
        self.scatter(
            "feed_and_advance", "feed", self._front.flush(), self._front.watermark
        )
        self._gather("finish", "finish", [()] * self._n_shards, [0] * self._n_shards)
        return self.completed_windows()

    @property
    def stats(self) -> StreamingStats:
        front = self._front
        return StreamingStats(
            ingested=front.ingested,
            deduplicated=sum(self._shard_dropped),
            late_dropped=front.late_dropped,
            reordered=front.reordered,
            windows_emitted=self._windows_emitted,
        )

    @property
    def pending_entries(self) -> int:
        return self._front.pending_entries

    @property
    def pending_windows(self) -> int:
        """Windows some released event fell in that are not handed out yet."""
        return len(self._ranks)


class FederatedSensor(SensorEngine):
    """N-shard deployment of the staged sensing pipeline.

    Parameters
    ----------
    directory:
        Querier metadata provider, shared by every shard (inherited
        through fork) and by the classify stage.
    config:
        The deployment's :class:`~repro.sensor.engine.SensorConfig`.
        Shards run it with ``reorder_slack=0`` (this process owns the
        reorder front).
    n_shards:
        Shard processes, forked here (1 is allowed and useful for
        testing); :meth:`close`, or this process's exit or death, ends them.
    registry:
        Optional metrics registry; receives everything a single engine
        publishes plus the per-shard ``repro_federation_*`` instruments.
    """

    def __init__(
        self,
        directory: QuerierDirectory,
        config: SensorConfig | None = None,
        n_shards: int = 2,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        if directory is None:
            raise ValueError("federation needs a querier directory")
        super().__init__(directory, config, registry=registry)
        self.n_shards = n_shards
        workers = [ShardWorker(k, directory, self.config) for k in range(n_shards)]
        self._pool = ShardPool(workers)

    def close(self) -> None:
        """Shut the shard processes down (idempotent)."""
        self._pool.close()

    def _new_collector(self, origin: float) -> ShardedCollector:
        config = self.config
        return ShardedCollector(
            self._pool, config.window_seconds, origin, config.reorder_slack
        )

    # -- batch window stage ---------------------------------------------

    def windows(
        self,
        entries: Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
        window_seconds: float | None = None,
    ) -> list[ShardedWindow]:
        """Slice a time-ordered log into consecutive windows, sharded.

        Same contract as ``SensorEngine.windows`` (contiguous indexes,
        gap windows empty, last one clipped to *end*); each shard windows
        its originators' slice of the in-range events with its own
        engine, sketch gate included.
        """
        width, grid = self._window_grid(start, end, window_seconds)
        collector = ShardedCollector(self._pool, width, start, 0.0)
        with self._scope():
            with span("stage.ingest") as ingest_span:
                offered, sub = self._block_in_range(entries, start, end)
            self._record_stage(
                "ingest",
                items_in=offered,
                items_out=len(sub),
                seconds=ingest_span.elapsed,
            )
            with span("stage.window") as window_span:
                collector.scatter(
                    "run_batch", "window",
                    (sub.timestamps, sub.queriers, sub.originators),
                    start, end, width,
                )
                emitted = {w.index: w for w in collector.completed_windows()}
                # Only a gap window takes the loop's bounds.
                windows = [
                    emitted.get(index, ShardedWindow(index, lo, hi))
                    for index, lo, hi in grid
                ]
            self._record_stage(
                "window",
                items_in=len(sub),
                items_out=len(windows),
                dropped=collector.stats.deduplicated,
                seconds=window_span.elapsed,
            )
        return windows

    # -- select + featurize (the merge) ---------------------------------

    def featurize(self, window: ShardedWindow) -> FeatureSet:
        """Merged context → per-shard select + featurize → merged rows.

        Select/featurize counts are summed over shards (originator
        partitioning makes the sums equal the single engine's), and so
        are the shards' enrichment and sketch pre-stage counters,
        published once per window.
        """
        with self._scope():
            with span("stage.window") as merge_span:
                context = merged_context(
                    window.start, window.end, [s for _, s in window.parts]
                )
            self.stats["window"].seconds += merge_span.elapsed
            shard_rows = self._pool.call(
                [(shard, "featurize_window", (window.index, context)) for shard, _ in window.parts]
            )
            sketch: Counter[str] = Counter()
            for rows in shard_rows:
                sketch.update(rows.sketch or {})
                self._record_stage(
                    "select",
                    items_in=rows.select_in,
                    items_out=rows.select_out,
                )
                self._record_stage(
                    "featurize",
                    items_in=rows.select_out,
                    items_out=rows.rows,
                    seconds=rows.seconds,
                )
                if get_registry() is not None:
                    count("repro_federation_rows_total", rows.rows,
                          help="Merged feature rows contributed per shard.",
                          shard=str(rows.shard))
                    _observe_shard(rows.shard, "featurize", rows.seconds)
            self._emit_enrichment(
                sum(r.hits for r in shard_rows), sum(r.misses for r in shard_rows)
            )
            if sketch and get_registry() is not None:
                self._emit_sketch_metrics(sketch)
            return merge_rows(context, window.ranks, shard_rows)


def sensor_for(
    directory: QuerierDirectory | None,
    config: SensorConfig | None = None,
    shards: int = 1,
    registry: MetricsRegistry | None = None,
) -> SensorEngine:
    """The engine for a shard count: the one place that picks the class.

    ``shards=1`` is exactly a :class:`~repro.sensor.engine.SensorEngine`;
    more is a :class:`FederatedSensor`.  Both are context managers —
    ``with sensor_for(...) as engine:`` reaps shard processes on exit.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    if shards == 1:
        return SensorEngine(directory, config, registry=registry)
    return FederatedSensor(directory, config, n_shards=shards, registry=registry)

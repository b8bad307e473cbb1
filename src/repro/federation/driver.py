"""The federation driver: N shard engines behaving as one sensor.

:class:`FederatedSensor` hash-partitions incoming events by originator
across N :class:`~repro.federation.shard.ShardWorker`\\ s (each a full
window/dedup/sketch/featurize pipeline on its own process), then merges
the partial windows back into feature rows, verdicts, and stage stats
that are **bit-identical** to a single
:class:`~repro.sensor.engine.SensorEngine` over the unpartitioned input
(property-tested; the one documented exception is streaming sketch mode,
where the single engine's row *order* follows promotion order while the
federation's canonical order is first appearance — row contents and
per-originator verdicts still match).

Both engine paths are supported and mirror the single-engine surface:

* **batch** — :meth:`process` slices ``[start, end)`` into config-width
  windows exactly like ``SensorEngine.process``;
* **streaming** — :meth:`ingest_block` / :meth:`poll` / :meth:`finish`,
  with the driver-owned :class:`~repro.federation.partition.ReorderFront`
  resolving lateness/reordering once and shard collectors running in
  lockstep behind the global watermark (via
  ``StreamingCollector.advance_watermark``).

Each merged window follows a two-phase protocol: shards return their
context partials (querier roster, AS set, country names) when a window
closes, the driver fuses them into the merged
:class:`~repro.sensor.dynamic.WindowContext` and broadcasts it back, and
shards featurize under that shared context — so the dynamic-feature
normalizers are window-global exactly as in a single engine.

Classification runs once, at the driver, over the merged rows — the
classify stage is not partition-friendly (majority voting is seeded over
the whole row set), and running it centrally keeps it exactly the single
engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.dnssim.message import QueryLogEntry
from repro.federation.merge import merge_rows, merged_context
from repro.federation.partition import ReorderFront, note_first_appearance, shard_of
from repro.federation.shard import ShardPool, ShardRows, ShardWorker, WindowSummary
from repro.logstore import EntryBlock
from repro.sensor.curation import LabeledSet
from repro.sensor.directory import QuerierDirectory
from repro.sensor.engine import (
    STAGE_NAMES,
    ClassifiedOriginator,
    SensorConfig,
    SensorEngine,
    StageStats,
)
from repro.sensor.features import FeatureSet
from repro.telemetry import (
    MetricsRegistry,
    count,
    get_registry,
    observe,
    span,
    use_registry,
)

__all__ = ["FederatedWindow", "FederatedSensor"]


@dataclass(slots=True)
class FederatedWindow:
    """One merged observation interval after every federated stage."""

    index: int
    start: float
    end: float
    originators: int
    """Distinct originators materialized across all shards."""
    features: FeatureSet
    verdicts: list[ClassifiedOriginator] = field(default_factory=list)
    shard_rows: dict[int, int] = field(default_factory=dict)
    """Feature rows contributed per shard id."""

    @property
    def classification(self) -> dict[int, str]:
        return {v.originator: v.app_class for v in self.verdicts}


class FederatedSensor:
    """N-shard federated deployment of the staged sensing pipeline.

    Parameters
    ----------
    directory:
        Querier metadata provider, shared by every shard (inherited
        through fork in process mode) and by the driver's classify
        stage.
    config:
        The deployment's :class:`~repro.sensor.engine.SensorConfig`.
        Shards run it with ``featurize_workers=1`` and
        ``reorder_slack=0`` (the driver owns both fan-out and reorder).
    n_shards:
        Shard worker count (1 is allowed and useful for testing).
    registry:
        Optional metrics registry; the driver emits the per-shard
        ``repro_federation_*`` instruments and the standard stage
        counters into it.
    processes:
        With True (default) each shard runs on its own fork-context
        process; False — or a platform without fork — runs shards
        inline, bit-identically.
    partition_seed:
        Seed for the originator → shard hash.
    """

    def __init__(
        self,
        directory: QuerierDirectory,
        config: SensorConfig | None = None,
        n_shards: int = 2,
        registry: MetricsRegistry | None = None,
        processes: bool = True,
        partition_seed: int = 0,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        if directory is None:
            raise ValueError("federation needs a querier directory")
        self.config = config or SensorConfig()
        self.directory = directory
        self.n_shards = n_shards
        self.registry = registry
        self.partition_seed = partition_seed
        self.stats: dict[str, StageStats] = {
            name: StageStats(name) for name in STAGE_NAMES
        }
        # The merge engine holds the trained classify stage and runs it
        # over merged rows; its classify StageStats are the federation's.
        self._merge_engine = SensorEngine(directory, self.config, registry=registry)
        workers = [ShardWorker(k, directory, self.config) for k in range(n_shards)]
        self._pool = ShardPool(workers, processes=processes)
        self._front = ReorderFront(
            origin=self.config.origin, reorder_slack=self.config.reorder_slack
        )
        self._ranks: dict[int, dict[int, int]] = {}
        self._closed: dict[int, list[tuple[int, WindowSummary]]] = {}
        self._shard_dedup = [0] * n_shards
        self._stream_windows = 0
        self._absorbed = {"ingested": 0, "late": 0, "windows": 0, "dedup": 0}
        self._window_callbacks: list[Callable[[FederatedWindow], None]] = []

    # -- window-close hooks ---------------------------------------------

    def on_window(
        self, callback: Callable[[FederatedWindow], None]
    ) -> Callable[[], None]:
        """Register a hook invoked with each merged streaming window.

        Mirrors :meth:`repro.sensor.engine.SensorEngine.on_window`: the
        callback fires once per :class:`FederatedWindow`, in emission
        order, from inside :meth:`poll` / :meth:`finish` after the
        two-phase merge and (when fitted) classification.  Returns an
        unsubscribe callable.
        """
        self._window_callbacks.append(callback)

        def unsubscribe() -> None:
            try:
                self._window_callbacks.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the shard processes down (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "FederatedSensor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- telemetry ------------------------------------------------------

    def _scope(self):
        return use_registry(self.registry)

    def _record_stage(
        self,
        name: str,
        items_in: int = 0,
        items_out: int = 0,
        dropped: int = 0,
        seconds: float = 0.0,
    ) -> None:
        stage = self.stats[name]
        stage.items_in += items_in
        stage.items_out += items_out
        stage.dropped += dropped
        stage.seconds += seconds
        if get_registry() is None:
            return
        help_items = "Items through each sensing stage, by direction."
        count("repro_stage_items_total", items_in,
              help=help_items, stage=name, direction="in")
        count("repro_stage_items_total", items_out,
              help=help_items, stage=name, direction="out")
        count("repro_stage_items_total", dropped,
              help=help_items, stage=name, direction="dropped")
        if seconds > 0.0:
            observe("repro_stage_seconds", seconds,
                    help="Wall time per unit of stage work.", stage=name)

    def _observe_shard(
        self, shard: int, op: str, seconds: float, events: int = 0
    ) -> None:
        if get_registry() is None:
            return
        if seconds > 0.0:
            observe("repro_federation_shard_seconds", seconds,
                    help="Worker-side wall time per shard task.",
                    shard=str(shard), op=op)
        if events:
            count("repro_federation_events_total", events,
                  help="Events partitioned to each shard.", shard=str(shard))

    # -- batch ----------------------------------------------------------

    def process(
        self,
        entries: Sequence[QueryLogEntry] | Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
        classify: bool | None = None,
    ) -> list[FederatedWindow]:
        """Run a whole time-ordered log through every stage, sharded.

        The federated counterpart of ``SensorEngine.process``: slices
        ``[start, end)`` into config-width windows (gap-filling quiet
        intervals), fans the in-range events out by originator, and
        merges each window back.  Merged rows, verdicts, and stage
        counts are bit-identical to the single engine's.
        """
        if end <= start:
            raise ValueError("end must be after start")
        width = self.config.window_seconds
        block = (
            entries
            if isinstance(entries, EntryBlock)
            else EntryBlock.from_entries(entries)
        )
        with self._scope(), span("engine.run"):
            with span("stage.ingest") as ingest_span:
                ingested = len(block)
                sub = block.slice_time(start, end)
                if not sub.is_sorted:
                    raise ValueError("entries are not time-ordered")
                accepted = len(sub)
                if get_registry() is not None:
                    count("repro_federation_blocks_total", 1,
                          help="Blocks fed to the federation driver.",
                          path="batch")
            self._record_stage(
                "ingest",
                items_in=ingested,
                items_out=accepted,
                dropped=ingested - accepted,
                seconds=ingest_span.elapsed,
            )
            bounds: list[tuple[float, float]] = []
            window_start = start
            while window_start < end:
                bounds.append((window_start, min(window_start + width, end)))
                window_start = window_start + width
            ranks_by_index: dict[int, dict[int, int]] = {}
            note_first_appearance(
                sub.timestamps, sub.originators, start, width, ranks_by_index
            )
            with span("stage.window") as window_span:
                assignments = shard_of(
                    sub.originators, self.n_shards, self.partition_seed
                )
                futures = []
                for shard in range(self.n_shards):
                    mask = assignments == shard
                    args = (
                        sub.timestamps[mask],
                        sub.queriers[mask],
                        sub.originators[mask],
                        start,
                        end,
                        width,
                    )
                    self._observe_shard(
                        shard, "feed", 0.0, events=int(np.count_nonzero(mask))
                    )
                    futures.append(self._pool.submit(shard, "run_batch", args))
                grouped: dict[int, list[tuple[int, WindowSummary]]] = {}
                dedup_dropped = 0
                for shard, future in enumerate(futures):
                    summaries, dropped_delta, elapsed = future.result()
                    dedup_dropped += dropped_delta
                    self._observe_shard(shard, "window", elapsed)
                    for summary in summaries:
                        grouped.setdefault(summary.index, []).append(
                            (shard, summary)
                        )
            self._record_stage(
                "window",
                items_in=accepted,
                items_out=len(bounds),
                dropped=dedup_dropped,
                seconds=window_span.elapsed,
            )
            return [
                self._merge_and_sense(
                    index,
                    grouped.get(index, []),
                    ranks_by_index.get(index, {}),
                    classify,
                    fallback_span=span_bounds,
                )
                for index, span_bounds in enumerate(bounds)
            ]

    # -- streaming ------------------------------------------------------

    def ingest_block(self, block: EntryBlock) -> None:
        """Feed one columnar block of live entries (streaming path)."""
        with self._scope():
            if get_registry() is not None:
                count("repro_federation_blocks_total", 1,
                      help="Blocks fed to the federation driver.",
                      path="stream")
            self.ingest_arrays(block.timestamps, block.queriers, block.originators)

    def ingest_arrays(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
    ) -> None:
        """Feed parallel event columns (streaming path)."""
        with self._scope():
            with span("stage.ingest") as ingest_span:
                released = self._front.push(timestamps, queriers, originators)
                watermark = self._front.watermark
                self._dispatch(
                    released, watermark if watermark > float("-inf") else None
                )
            self.stats["ingest"].seconds += ingest_span.elapsed

    def poll(self, classify: bool | None = None) -> list[FederatedWindow]:
        """Merged windows the global watermark has closed since last poll."""
        with self._scope():
            return self._sense_closed(classify)

    def finish(self, classify: bool | None = None) -> list[FederatedWindow]:
        """End of stream: flush the front and every shard, then merge."""
        with self._scope():
            with span("stage.ingest") as ingest_span:
                released = self._front.flush()
                self._dispatch(released, None)
            self.stats["ingest"].seconds += ingest_span.elapsed
            with span("stage.window") as window_span:
                futures = [
                    (shard, self._pool.submit(shard, "finish", ()))
                    for shard in range(self.n_shards)
                ]
                for shard, future in futures:
                    summaries, dedup_total, elapsed = future.result()
                    self._shard_dedup[shard] = dedup_total
                    self._observe_shard(shard, "finish", elapsed)
                    self._buffer(shard, summaries)
            self.stats["window"].seconds += window_span.elapsed
            return self._sense_closed(classify)

    def _dispatch(
        self,
        released: tuple[np.ndarray, np.ndarray, np.ndarray],
        watermark: float | None,
    ) -> None:
        """Partition released events to shards; advance shard watermarks."""
        ts, qs, os_ = released
        if ts.size:
            note_first_appearance(
                ts, os_, self.config.origin, self.config.window_seconds, self._ranks
            )
        assignments = (
            shard_of(os_, self.n_shards, self.partition_seed) if ts.size else None
        )
        futures = []
        for shard in range(self.n_shards):
            if assignments is not None:
                mask = assignments == shard
                args = (ts[mask], qs[mask], os_[mask], watermark)
                events = int(np.count_nonzero(mask))
            else:
                args = (None, None, None, watermark)
                events = 0
            futures.append(
                (shard, events, self._pool.submit(shard, "feed_and_advance", args))
            )
        for shard, events, future in futures:
            summaries, dedup_total, elapsed = future.result()
            self._shard_dedup[shard] = dedup_total
            self._observe_shard(shard, "feed", elapsed, events=events)
            self._buffer(shard, summaries)

    def _buffer(self, shard: int, summaries: list[WindowSummary]) -> None:
        for summary in summaries:
            self._closed.setdefault(summary.index, []).append((shard, summary))

    def _sense_closed(self, classify: bool | None) -> list[FederatedWindow]:
        out = []
        for index in sorted(self._closed):
            pairs = self._closed.pop(index)
            out.append(
                self._merge_and_sense(
                    index, pairs, self._ranks.pop(index, {}), classify
                )
            )
        self._stream_windows += len(out)
        for merged in out:
            for callback in list(self._window_callbacks):
                callback(merged)
        return out

    # -- the merge stage ------------------------------------------------

    def _merge_and_sense(
        self,
        index: int,
        pairs: list[tuple[int, WindowSummary]],
        ranks: dict[int, int],
        classify: bool | None,
        fallback_span: tuple[float, float] | None = None,
    ) -> FederatedWindow:
        """Phase B+C for one window: merge context, featurize, merge rows."""
        summaries = [summary for _, summary in pairs]
        if summaries:
            start, end = summaries[0].start, summaries[0].end
        else:
            assert fallback_span is not None
            start, end = fallback_span
        with span("stage.window") as merge_span:
            context = merged_context(start, end, summaries)
        self.stats["window"].seconds += merge_span.elapsed
        context_fields = (
            context.start,
            context.end,
            context.total_ases,
            context.total_countries,
            context.total_queriers,
        )
        futures = [
            self._pool.submit(shard, "featurize_window", (index, context_fields))
            for shard, _ in pairs
        ]
        shard_rows: list[ShardRows] = []
        for future in futures:
            rows = future.result()
            shard_rows.append(rows)
            self._record_stage(
                "select",
                items_in=rows.select_in,
                items_out=rows.select_out,
                dropped=rows.select_in - rows.select_out,
            )
            self._record_stage(
                "featurize",
                items_in=rows.select_out,
                items_out=rows.rows,
                dropped=rows.select_out - rows.rows,
                seconds=rows.seconds,
            )
            if get_registry() is not None:
                count("repro_federation_rows_total", rows.rows,
                      help="Merged feature rows contributed per shard.",
                      shard=str(rows.shard))
                self._observe_shard(rows.shard, "featurize", rows.seconds)
        features = merge_rows(context, ranks, shard_rows)
        run_classify = self.is_fitted if classify is None else classify
        verdicts: list[ClassifiedOriginator] = []
        if run_classify:
            verdicts = self._merge_engine.classify(features)
        if get_registry() is not None:
            count("repro_federation_windows_total", 1,
                  help="Observation windows merged across shards.")
        return FederatedWindow(
            index=index,
            start=start,
            end=end,
            originators=sum(s.originators for s in summaries),
            features=features,
            verdicts=verdicts,
            shard_rows={rows.shard: rows.rows for rows in shard_rows},
        )

    # -- classify + training -------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._merge_engine.is_fitted

    def fit(self, features: FeatureSet, labeled: LabeledSet) -> "FederatedSensor":
        """Train the driver's classify stage (shared by every window)."""
        self._merge_engine.fit(features, labeled)
        return self

    def fit_from(self, other: SensorEngine) -> "FederatedSensor":
        """Adopt a span-trained single engine's classify stage."""
        self._merge_engine.fit_from(other)
        return self

    def adopt_training(self, X, y, encoder) -> "FederatedSensor":
        """Hot-swap the driver's classify-stage model (see the engine's
        :meth:`~repro.sensor.engine.SensorEngine.adopt_training`)."""
        self._merge_engine.adopt_training(X, y, encoder)
        return self

    def adopt_voter(self, voter) -> "FederatedSensor":
        """Hand the merge engine the fitted vote for that model (see
        :meth:`~repro.sensor.engine.SensorEngine.adopt_voter`)."""
        self._merge_engine.adopt_voter(voter)
        return self

    def classify(self, features: FeatureSet) -> list[ClassifiedOriginator]:
        return self._merge_engine.classify(features)

    def classify_map(self, features: FeatureSet) -> dict[int, str]:
        return self._merge_engine.classify_map(features)

    # -- accounting -----------------------------------------------------

    def _absorb_front(self) -> None:
        """Fold streaming front/shard counters into ingest/window stats."""
        current = {
            "ingested": self._front.ingested,
            "late": self._front.late_dropped,
            "windows": self._stream_windows,
            "dedup": sum(self._shard_dedup),
        }
        delta = {key: current[key] - self._absorbed[key] for key in current}
        self._absorbed = current
        accepted = delta["ingested"] - delta["late"]
        self._record_stage(
            "ingest",
            items_in=delta["ingested"],
            items_out=accepted,
            dropped=delta["late"],
        )
        self._record_stage(
            "window",
            items_in=accepted,
            items_out=delta["windows"],
            dropped=delta["dedup"],
        )

    def accounting(self) -> list[StageStats]:
        """Per-stage stats for everything this federation has processed.

        Composition mirrors the single engine's: ingest/window from the
        driver's front plus the shard collectors' counters,
        select/featurize summed over shards (originator partitioning
        makes the sums equal the single engine's counts), classify from
        the merge engine.
        """
        with self._scope():
            self._absorb_front()
        stats = [self.stats[name] for name in STAGE_NAMES]
        stats[STAGE_NAMES.index("classify")] = self._merge_engine.stats["classify"]
        return stats

    def format_accounting(self) -> str:
        """The per-run accounting report, as an aligned text table."""
        rows = self.accounting()
        headers = ("stage", "in", "out", "dropped", "seconds")
        table = [headers] + [
            (s.name, f"{s.items_in:,}", f"{s.items_out:,}", f"{s.dropped:,}",
             f"{s.seconds:.3f}")
            for s in rows
        ]
        widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
        lines = []
        for index, row in enumerate(table):
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

"""The staged sensing engine: one canonical ingestion path (Figure 2).

The paper's sensor is a single conceptual pipeline — authority log →
30 s dedup + windowing → analyzable-originator selection → static/
dynamic features → classifier — and this module is where that pipeline
lives.  Everything the repo senses (the CLI, the experiment harness, the
longitudinal analyses, the examples) routes through here, in batch or
streaming form, so sensing semantics are defined exactly once.

Stages, mapped to the paper:

========== ============================================================
ingest     § III-A — accept (timestamp, querier, originator) tuples,
           validate ordering / drop strictly-late arrivals
window     § III-A/B — 30 s per-(querier, originator) dedup + grouping
           into observation intervals (:class:`StreamingCollector` is
           the single implementation, fed :class:`EntryBlock` chunks —
           live by :meth:`SensorEngine.ingest_block`; the batch calls
           convert a ``QueryLogEntry`` list to one block, once)
select     § III-B — keep analyzable originators (>= ``min_queriers``
           unique queriers)
featurize  § III-C/D — the 14 static + 8 dynamic features per selected
           originator
classify   § III-D/E — majority-vote classification with the configured
           learner over a curated labeled set
========== ============================================================

Every stage records :class:`StageStats` (items in/out, dropped, wall
time), so an engine run can report exactly where volume and time went.
Each fact is recorded once, when it happens.  A duration lives in its
:mod:`repro.telemetry` span: each stage's wall time is measured exactly
once (feeding entries is *ingest* time, closing/assembling windows is
*window* time, and so on), so the per-stage seconds sum to
approximately the run's wall time, and with a
:class:`~repro.telemetry.MetricsRegistry` in scope (passed to the
engine, or ambient via :func:`repro.telemetry.use_registry`) every span
lands in ``repro_span_seconds`` / ``repro_span_total``
(``stage.*``, ``window.sense``).  A stage count lives in
:class:`StageStats` and is mirrored to ``repro_stage_items_total`` as it
changes — the streaming collector's counts included, folded in after
every live block and at the end-of-stream flush, so the ledger a
running service exposes is current.  A window's sketch counters live on
``window.prestage``.  With no registry in scope the instrumentation is a
near-no-op.

Configuration that used to be scattered across call sites (window
length, dedup horizon, reorder slack, analyzability threshold, majority
runs, classifier factory) is gathered into one frozen
:class:`SensorConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.ml.forest import ForestConfig, RandomForestClassifier
from repro.ml.validation import (
    Classifier,
    LabelEncoder,
    MajorityVoter,
    fit_majority_vote,
)
from repro.sensor.collection import DEDUP_WINDOW_SECONDS, ObservationWindow
from repro.sensor.curation import LabeledSet
from repro.sensor.directory import EnrichmentCache, QuerierDirectory
from repro.sensor.features import FeatureSet, features_from_selected
from repro.sensor.selection import ANALYZABLE_THRESHOLD, analyzable
from repro.sensor.streaming import StreamingCollector, StreamingStats
from repro.sensor.training import labeled_rows
from repro.sketch.prestage import SketchParams, SketchPreStage
from repro.telemetry import (
    MetricsRegistry,
    count,
    get_registry,
    set_gauge,
    span,
    use_registry,
)

if TYPE_CHECKING:
    from repro.federation.driver import ShardedWindow

__all__ = [
    "SECONDS_PER_DAY",
    "STAGE_NAMES",
    "SensorConfig",
    "StageStats",
    "SensedWindow",
    "SensorEngine",
    "ClassifiedOriginator",
    "default_forest_factory",
]

SECONDS_PER_DAY = 86400.0

STAGE_NAMES: tuple[str, ...] = ("ingest", "window", "select", "featurize", "classify")

#: One-sided error margin of the approximate § III-B gate: the HLL
#: estimate is held to ``(1 - margin) * min_queriers`` so underestimation
#: cannot silently drop analyzable originators (the exact
#: ``min_queriers`` gate still applies at the select stage).
_SKETCH_MARGIN = 0.5
#: Streaming promotion bar cap: an originator materializes exact state
#: once its estimate reaches ``min(_SKETCH_PROMOTE_CAP, gate)``.
_SKETCH_PROMOTE_CAP = 4


def default_forest_factory(seed: int) -> RandomForestClassifier:
    """The paper's preferred classifier (RF wins Table III)."""
    return RandomForestClassifier(ForestConfig(n_trees=60), seed=seed)


@dataclass(frozen=True, slots=True)
class SensorConfig:
    """Everything that parameterizes one sensor deployment, in one place.

    Previously these knobs were repeated as loose kwargs and module
    constants across the CLI, the experiment cache-builders, and the
    longitudinal analyses; a frozen config makes a deployment's
    semantics explicit and hashable-by-eye.
    """

    window_seconds: float = 7 * SECONDS_PER_DAY
    """Observation interval length (§ III-B's d; the paper uses 1-7 days)."""
    origin: float = 0.0
    """Timestamp where window 0 begins."""
    dedup_window: float = DEDUP_WINDOW_SECONDS
    """Per-(querier, originator) duplicate suppression horizon (§ III-A)."""
    reorder_slack: float = 2.0
    """Accepted input disorder; later arrivals are dropped as late."""
    min_queriers: int = ANALYZABLE_THRESHOLD
    """Analyzability threshold (§ III-B; 20 at Internet scale)."""
    majority_runs: int = 10
    """Stochastic-classifier reruns per prediction (§ III-D; paper uses 10)."""
    classifier_factory: Callable[[int], Classifier] = default_forest_factory
    """Builds a classifier from a seed; defaults to the paper's RF."""
    seed: int = 0
    """Base seed for the majority-vote classifier runs."""
    sketch_enabled: bool = False
    """Run the probabilistic pre-select stage (:mod:`repro.sketch`).

    Batch paths gate originators on an HLL unique-querier estimate and
    materialize exact observations for survivors only (two passes —
    survivor features are bit-identical to the exact path); the
    streaming path promotes originators to exact state once their
    estimate reaches the promote threshold (single pass).  Gate and
    promote bars follow from ``min_queriers`` (:meth:`sketch_params`).
    """
    sketch_capacity: int = 1 << 20
    """Distinct (originator, querier, 30 s bucket) events the dedup
    filter is sized for."""

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.dedup_window < 0:
            raise ValueError("dedup_window must be non-negative")
        if self.reorder_slack < 0:
            raise ValueError("reorder_slack must be non-negative")
        if self.min_queriers < 1:
            raise ValueError("min_queriers must be positive")
        if self.majority_runs < 1:
            raise ValueError("majority_runs must be positive")
        # SketchParams owns the capacity check.
        self.sketch_params()

    @property
    def window_days(self) -> float:
        return self.window_seconds / SECONDS_PER_DAY

    @property
    def sketch_gate_queriers(self) -> int:
        """The approximate gate threshold the HLL estimate is held to."""
        return max(1, math.ceil((1.0 - _SKETCH_MARGIN) * self.min_queriers))

    def sketch_params(self) -> SketchParams:
        """The :class:`~repro.sketch.prestage.SketchParams` this config
        implies: HLL precision and Bloom FP budget at their defaults."""
        gate = self.sketch_gate_queriers
        return SketchParams(
            capacity=self.sketch_capacity,
            gate_queriers=gate,
            promote_queriers=min(_SKETCH_PROMOTE_CAP, gate),
            dedup_seconds=self.dedup_window,
            seed=self.seed,
        )

    def replaced(self, **overrides: object) -> "SensorConfig":
        """A copy with the given fields overridden (validated again)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(slots=True)
class StageStats:
    """Accounting for one engine stage."""

    name: str
    items_in: int = 0
    items_out: int = 0
    dropped: int = 0
    seconds: float = 0.0


@dataclass(frozen=True, slots=True)
class ClassifiedOriginator:
    """One classify-stage verdict."""

    originator: int
    app_class: str
    footprint: int


@dataclass(slots=True)
class SensedWindow:
    """One observation interval after every engine stage that applies."""

    window: "ObservationWindow | ShardedWindow"
    """The interval sensed; from a sharded engine, a
    :class:`repro.federation.ShardedWindow` (same ``start`` / ``end`` /
    ``len``, the observations stay in the shards)."""
    features: FeatureSet | None = None
    """Feature rows of the analyzable originators (``None`` when the
    engine has no directory to featurize with)."""
    verdicts: list[ClassifiedOriginator] = field(default_factory=list)
    """Classify-stage verdicts (empty when the engine did not classify).

    A window carries no telemetry of its own: its counts are in the
    engine's :class:`StageStats`, its wall time in the ``window.sense``
    span, and its sketch counters on ``window.prestage``."""

    @property
    def classification(self) -> dict[int, str]:
        return {v.originator: v.app_class for v in self.verdicts}


class SensorEngine:
    """Staged sensor: ingest → window/dedup → select → featurize → classify.

    One engine instance is one sensor deployment: a
    :class:`~repro.sensor.directory.FrozenDirectory` (metadata for the
    featurize stage; may be omitted when only windowing is needed), a
    :class:`SensorConfig`, and — after :meth:`fit` — a trained classify
    stage.

    Batch and streaming are the same pipeline.  Batch calls
    (:meth:`process`, :meth:`windows`, :meth:`collect`) run a whole
    time-ordered log through a fresh collector; streaming calls
    (:meth:`ingest_block`, :meth:`poll`, :meth:`finish`) feed a
    persistent one and hand back windows as the watermark closes them.  Both paths use
    :class:`~repro.sensor.streaming.StreamingCollector` as the single
    windowing/dedup implementation and record per-stage
    :class:`StageStats` (see :meth:`accounting`).
    """

    def __init__(
        self,
        directory: QuerierDirectory | None = None,
        config: SensorConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.directory = directory
        self.config = config or SensorConfig()
        self.registry = registry
        self.stats: dict[str, StageStats] = {
            name: StageStats(name) for name in STAGE_NAMES
        }
        self.encoder = LabelEncoder()
        self._train_X: np.ndarray | None = None
        self._train_y: np.ndarray | None = None
        self._voter: MajorityVoter | None = None
        self._collector: StreamingCollector | None = None
        self._absorbed = StreamingStats()
        self._window_callbacks: list[Callable[[SensedWindow], None]] = []

    # -- window-close hooks ---------------------------------------------

    def on_window(
        self, callback: Callable[[SensedWindow], None]
    ) -> Callable[[], None]:
        """Register a hook invoked with each streaming-sensed window.

        The supported way for long-running callers (the service, the CLI
        stream report) to observe window closes without polling return
        values or reaching into collector internals.  Callbacks fire
        once per :class:`SensedWindow`, in emission order, after the
        window has run through every applicable stage — from inside
        :meth:`poll` / :meth:`finish` on the streaming path.  Exceptions
        propagate to the poller.  Returns an unsubscribe callable.
        """
        self._window_callbacks.append(callback)

        def unsubscribe() -> None:
            try:
                self._window_callbacks.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def _notify_window(self, sensed: SensedWindow) -> None:
        for callback in list(self._window_callbacks):
            callback(sensed)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release worker processes (idempotent).

        A single engine has none; a sharded one
        (:class:`repro.federation.FederatedSensor`) reaps its shards.
        The trained classify stage and the accounting stay readable.
        """

    def __enter__(self) -> "SensorEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- telemetry ------------------------------------------------------

    def _scope(self):
        """Ambient-registry scope for one engine operation.

        Makes an explicitly-passed registry visible to the instrumented
        internals (enrichment cache, featurize fan-out, classifier)
        without widening their signatures; with ``registry=None`` the
        scope keeps whatever is ambient (possibly nothing).
        """
        return use_registry(self.registry)

    def _record_stage(
        self,
        name: str,
        items_in: int = 0,
        items_out: int = 0,
        dropped: int | None = None,
        seconds: float = 0.0,
    ) -> None:
        """Fold one unit of stage work into StageStats + metrics.

        StageStats always updates; ``repro_stage_items_total`` mirrors
        the counts when a registry is in scope.  The seconds are the
        span's, already recorded by the span itself.  *dropped* defaults
        to ``items_in - items_out``; only the window stage, whose outputs
        are windows, not items, says otherwise.
        """
        if dropped is None:
            dropped = items_in - items_out
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

    def _emit_enrichment(self, hits: int, misses: int) -> None:
        """Publish one window's featurize enrichment reads (registry in scope)."""
        if get_registry() is None:
            return
        count("repro_enrichment_cache_hits_total", hits,
              help="Enrichment lookups of listed queriers.")
        count("repro_enrichment_cache_misses_total", misses,
              help="Enrichment lookups of unlisted queriers (read as NXDOMAIN).")

    def _emit_sketch_metrics(self, counters: dict[str, int]) -> None:
        """Publish one window's pre-stage counters (registry in scope).

        *counters* is :meth:`~repro.sketch.prestage.SketchPreStage.counters`
        of the window's pre-stage, or their sum over a sharded window's
        shards.  The gate counts are batch-only (see there).
        """
        results = ("unique", "duplicate", "deferred")
        if "gate_kept" in counters:
            help_gate = "Originators through the approximate analyzability gate."
            for result in ("kept", "dropped"):
                count("repro_sketch_gate_originators_total", counters[f"gate_{result}"],
                      help=help_gate, result=result)
            results += ("gated",)
        help_events = "Events through the sketch pre-stage, by outcome."
        for result in results:
            count("repro_sketch_events_total", counters[f"events_{result}"],
                  help=help_events, result=result)
        help_resolver = ("Streaming promotion-resolver outcomes per "
                         "(originator, chunk), vectorized path only.")
        for outcome in ("wholesale", "replayed"):
            count("repro_sketch_resolver_originators_total", counters[f"resolver_{outcome}"],
                  help=help_resolver, outcome=outcome)
        for structure in ("bloom", "hll", "roster"):
            set_gauge("repro_sketch_memory_bytes", counters[f"memory_{structure}"],
                      help="Bytes held by each pre-stage structure.",
                      structure=structure)

    # -- ingest + window/dedup (streaming) ------------------------------

    @property
    def collector(self) -> StreamingCollector:
        """The persistent streaming collector (created on first use)."""
        if self._collector is None:
            self._collector = self._new_collector(self.config.origin)
        return self._collector

    def _new_collector(self, origin: float) -> StreamingCollector:
        factory = None
        if self.config.sketch_enabled:
            params = self.config.sketch_params()
            factory = lambda: SketchPreStage(params)  # noqa: E731
        return StreamingCollector(
            window_seconds=self.config.window_seconds,
            origin=origin,
            dedup_window=self.config.dedup_window,
            reorder_slack=self.config.reorder_slack,
            prestage_factory=factory,
        )

    def ingest_block(self, block: EntryBlock) -> None:
        """Feed one columnar block of live entries (streaming path).

        Feed time — validation, dedup, and windowing work triggered by
        the entries' arrival — is ingest-stage time; window-stage time is
        only accrued when windows are closed (:meth:`poll` /
        :meth:`finish`), so no wall second is counted twice.
        """
        with self._scope():
            with span("stage.ingest") as sp:
                self.collector.ingest_block(block)
            self.stats["ingest"].seconds += sp.elapsed
            self._absorb_collector_stats()
            self._emit_block_metrics(block, path="stream")

    def _emit_block_metrics(self, block: EntryBlock, path: str) -> None:
        """Publish ``repro_ingest_*`` block telemetry (registry in scope)."""
        if get_registry() is None:
            return
        count("repro_ingest_blocks_total", 1,
              help="Columnar blocks fed to the ingest plane.", path=path)
        count("repro_ingest_block_events_total", len(block),
              help="Events ingested via columnar blocks.", path=path)
        set_gauge("repro_ingest_block_bytes", block.nbytes,
                  help="Bytes in the most recently ingested block.", path=path)

    def poll(self, classify: bool | None = None) -> list[SensedWindow]:
        """Windows the watermark has closed since the last poll.

        Each is run through select/featurize (and classify, when the
        engine :attr:`is_fitted` or *classify* is forced true).
        """
        with self._scope():
            with span("stage.window") as sp:
                completed = self.collector.completed_windows()
            self.stats["window"].seconds += sp.elapsed
            if get_registry() is not None:
                set_gauge(
                    "repro_stream_pending_entries",
                    self.collector.pending_entries,
                    help="Entries buffered awaiting the reorder watermark.",
                )
                set_gauge(
                    "repro_stream_pending_windows",
                    self.collector.pending_windows,
                    help="Observation windows still open at the collector.",
                )
            sensed = [self._sense(window, classify) for window in completed]
            for item in sensed:
                self._notify_window(item)
            return sensed

    def finish(self, classify: bool | None = None) -> list[SensedWindow]:
        """End of stream: flush still-open windows and sense them."""
        with self._scope():
            with span("stage.window") as sp:
                flushed = self.collector.flush()
            self.stats["window"].seconds += sp.elapsed
            self._absorb_collector_stats()
            sensed = [self._sense(window, classify) for window in flushed]
            for item in sensed:
                self._notify_window(item)
            return sensed

    def _absorb_collector_stats(self) -> None:
        """Fold the collector's new counts into the ingest/window ledger.

        Called where those counts change — after every live block and
        after the end-of-stream flush (a collector counts a window when
        it closes it) — so :attr:`stats` and the ``repro_stage_items_total``
        / ``repro_stream_*_total`` series a running service exposes are
        current, not folded in only when :meth:`accounting` is read.
        """
        current = self.collector.stats
        if current == self._absorbed:
            return
        delta = StreamingStats(
            ingested=current.ingested - self._absorbed.ingested,
            deduplicated=current.deduplicated - self._absorbed.deduplicated,
            late_dropped=current.late_dropped - self._absorbed.late_dropped,
            reordered=current.reordered - self._absorbed.reordered,
            windows_emitted=current.windows_emitted - self._absorbed.windows_emitted,
        )
        self._absorbed = replace(current)
        accepted = delta.ingested - delta.late_dropped
        self._record_stage("ingest", items_in=delta.ingested, items_out=accepted)
        self._record_stage(
            "window",
            items_in=accepted,
            items_out=delta.windows_emitted,
            dropped=delta.deduplicated,
        )
        if get_registry() is not None:
            count("repro_stream_late_dropped_total", delta.late_dropped,
                  help="Entries dropped as later than the reorder slack.")
            count("repro_stream_deduplicated_total", delta.deduplicated,
                  help="Entries suppressed by the 30s per-pair dedup.")
            count("repro_stream_reordered_total", delta.reordered,
                  help="Out-of-order entries accepted within the reorder slack.")
            count("repro_stream_windows_total", delta.windows_emitted,
                  help="Observation windows emitted by the collector.")

    # -- batch adapters -------------------------------------------------

    def _block_in_range(
        self,
        entries: Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
    ) -> tuple[int, EntryBlock]:
        """Batch input as (events offered, the in-range sub-block).

        Order-validated before any state is built: only the entries
        inside ``[start, end)`` must be time-ordered, and a failed
        validation raises before a collector sees anything.
        """
        if not isinstance(entries, EntryBlock):
            entries = EntryBlock.from_entries(entries)
        sub = entries.slice_time(start, end)
        if not sub.is_sorted:
            raise ValueError("entries are not time-ordered")
        self._emit_block_metrics(sub, path="batch")
        return len(entries), sub

    def _window_grid(
        self, start: float, end: float, window_seconds: float | None
    ) -> tuple[float, list[tuple[int, float, float]]]:
        """Validated batch geometry: the window width (default: the
        config's) and ``(index, start, end)`` of every window covering
        ``[start, end)``, the last one clipped to *end*."""
        if end <= start:
            raise ValueError("end must be after start")
        width = self.config.window_seconds if window_seconds is None else window_seconds
        if width <= 0:
            raise ValueError("window_seconds must be positive")
        grid: list[tuple[int, float, float]] = []
        while start < end:
            grid.append((len(grid), start, min(start + width, end)))
            start = start + width
        return width, grid

    def windows(
        self,
        entries: Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
        window_seconds: float | None = None,
    ) -> list[ObservationWindow]:
        """Slice a time-ordered log into consecutive observation windows.

        Covers ``[start, end)`` with windows of ``window_seconds``
        (default: the config's), aligned to *start*; the final window is
        clipped to *end* and intervals without traffic still yield empty
        windows, so indexes are contiguous — what the longitudinal
        analyses expect.  Out-of-order input raises (batch logs are
        append-ordered); use the streaming path for live reordering.

        *entries* is an :class:`~repro.logstore.EntryBlock`; anything
        else is converted to one first.  The in-range slice is fed to a
        fresh collector in bounded chunks.  With ``sketch_enabled`` the
        approximate gate (:meth:`_sketch_gate`) runs first and only
        survivor events reach the collector, so survivor observations —
        and their feature rows — are bit-identical to the exact run.
        """
        width, grid = self._window_grid(start, end, window_seconds)
        sketch = self.config.sketch_enabled
        collector = StreamingCollector(
            window_seconds=width,
            origin=start,
            dedup_window=self.config.dedup_window,
            reorder_slack=0.0,
        )

        def feed(block: EntryBlock) -> None:
            # Bounded chunks keep the collector's list temporaries off
            # the log-sized scale (chunk invariance makes it free).
            for chunk in block.iter_chunks():
                collector.ingest_block(chunk)

        with self._scope():
            # Feeding entries (validation + dedup as they arrive) is
            # ingest time; closing and assembling windows is window
            # time — each wall second lands in exactly one stage.  Sketch
            # mode feeds survivors only, after the gate, as window time.
            with span("stage.ingest") as ingest_span:
                offered, sub = self._block_in_range(entries, start, end)
                accepted = len(sub)
                if not sketch:
                    feed(sub)
            prestages: dict[int, SketchPreStage] = {}
            if sketch:
                with span("stage.select") as select_span:
                    prestages, survivors = self._sketch_gate(sub, start, width)
                    sub = sub[survivors]
            gated_events = accepted - len(sub)
            with span("stage.window") as window_span:
                if sketch:
                    feed(sub)
                emitted = {
                    self._index_of(window.start, start, width): window
                    for window in collector.flush()
                }
                windows: list[ObservationWindow] = []
                for index, lo, hi in grid:
                    window = emitted.get(index, ObservationWindow(start=lo, end=hi))
                    window.end = hi
                    prestage = prestages.get(index)
                    if prestage is not None:
                        window.prestage = prestage
                        window.querier_roster = prestage.roster_array()
                    windows.append(window)
            self._record_stage(
                "ingest",
                items_in=offered,
                items_out=accepted,
                seconds=ingest_span.elapsed,
            )
            if sketch:
                # The approximate gate *is* a select, so its wall time is
                # select-stage time; the stage's item accounting happens
                # per window at featurize time, where the exact gate runs.
                self._record_stage("select", seconds=select_span.elapsed)
            self._record_stage(
                "window",
                items_in=accepted,
                items_out=len(windows),
                dropped=collector.stats.deduplicated + gated_events,
                seconds=window_span.elapsed,
            )
        return windows

    def _sketch_gate(
        self, block: EntryBlock, start: float, width: float
    ) -> tuple[dict[int, SketchPreStage], np.ndarray]:
        """Batch sketch mode's approximate § III-B gate over a sorted block.

        Streams each window's events through one window-scoped
        :class:`~repro.sketch.prestage.SketchPreStage` and returns the
        pre-stages by window index plus the mask of events whose
        originator survived its window's gate.
        """
        params = self.config.sketch_params()
        timestamps = block.timestamps
        queriers = block.queriers
        originators = block.originators
        n = len(block)
        # Time-ordered, so window indices are non-decreasing and each
        # window is a contiguous slice.
        indices = ((timestamps - start) // width).astype(np.int64)
        uniq, bounds = np.unique(indices, return_index=True)
        bounds = np.append(bounds, n)
        prestages: dict[int, SketchPreStage] = {}
        survivors = np.zeros(n, dtype=bool)
        for k, window_index in enumerate(uniq):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            prestage = SketchPreStage(params)
            prestage.exact_observations = True
            prestage.observe_batch(
                timestamps[lo:hi], queriers[lo:hi], originators[lo:hi]
            )
            prestages[int(window_index)] = prestage
            keep = np.isin(originators[lo:hi], prestage.survivors())
            prestage.events_gated = (hi - lo) - int(np.count_nonzero(keep))
            survivors[lo:hi] = keep
        return prestages, survivors

    @staticmethod
    def _index_of(window_start: float, origin: float, width: float) -> int:
        return int(round((window_start - origin) / width))

    def collect(
        self,
        entries: Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
    ) -> ObservationWindow:
        """One observation window spanning ``[start, end)`` (batch)."""
        return self.windows(entries, start, end, window_seconds=end - start)[0]

    # -- select + featurize ---------------------------------------------

    def featurize(self, window: ObservationWindow) -> FeatureSet:
        """Select analyzable originators and extract their features.

        Vectorized over a window-scoped enrichment cache.  Observations
        whose queriers all deduplicated away are skipped and accounted as
        featurize-stage drops rather than raising out of :meth:`poll`.
        """
        if self.directory is None:
            raise RuntimeError("engine has no querier directory to featurize with")
        with self._scope():
            with span("stage.select") as select_span:
                selected = analyzable(window, self.config.min_queriers)
            prestage = window.prestage
            # With a pre-stage, the select stage saw every originator the
            # sketch summarized, not just the gate survivors the window
            # materialized — account for the approximately-gated ones too.
            items_in = len(window) if prestage is None else prestage.originators_seen
            self._record_stage(
                "select",
                items_in=items_in,
                items_out=len(selected),
                seconds=select_span.elapsed,
            )
            if prestage is not None and get_registry() is not None:
                self._emit_sketch_metrics(prestage.counters())
            with span("stage.featurize") as featurize_span:
                cache = EnrichmentCache(self.directory)
                features = features_from_selected(window, selected, cache)
            self._record_stage(
                "featurize",
                items_in=len(selected),
                items_out=len(features),
                seconds=featurize_span.elapsed,
            )
            self._emit_enrichment(cache.hits, cache.misses)
        return features

    # -- classify -------------------------------------------------------

    def training_data(
        self, features: FeatureSet, labeled: LabeledSet
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Feature rows and encoded labels for labeled originators present."""
        X, y, used = labeled_rows(features, labeled, self.encoder)
        if not used:
            raise ValueError("no labeled originators appear in the features")
        return X, y, used

    def fit(self, features: FeatureSet, labeled: LabeledSet) -> "SensorEngine":
        """Train the classify stage on the labeled originators present."""
        with self._scope(), span("classifier.fit"):
            X, y, _ = self.training_data(features, labeled)
            self._train_X = X
            self._train_y = y
            self._voter = None
        return self

    @property
    def is_fitted(self) -> bool:
        return self._train_X is not None

    def fit_from(self, other: "SensorEngine") -> "SensorEngine":
        """Adopt another engine's trained classify stage.

        Lets a streaming deployment reuse a classifier trained over a
        batch span (training data and label encoder are shared, not
        copied).
        """
        if not other.is_fitted:
            raise RuntimeError("source engine is not fitted")
        return self.adopt_training(other._train_X, other._train_y, other.encoder)

    def adopt_training(
        self, X: np.ndarray, y: np.ndarray, encoder: LabelEncoder
    ) -> "SensorEngine":
        """Install a prepared training set as the classify stage's model.

        The classify stage reads ``(X, y, encoder)`` as one unit per
        prediction, and this method replaces all three together — the
        hot-swap primitive the online-retraining service uses to refresh
        the model at a window boundary without any window ever seeing a
        half-installed model.  Callers must not mutate *X*/*y* after
        handing them over.
        """
        if len(X) == 0:
            raise ValueError("training set is empty")
        if len(X) != len(y):
            raise ValueError("X and y row counts differ")
        self._train_X = X
        self._train_y = y
        self.encoder = encoder
        self._voter = None
        return self

    def adopt_voter(self, voter: MajorityVoter) -> "SensorEngine":
        """Hand over the fitted vote for the training set just adopted.

        ``ModelManager`` fits it on its background thread so the thread
        that closes windows never trains.  It is only ever used if it was
        fitted on exactly this engine's ``(classifier_factory, X, y,
        majority_runs, seed)``; anything else is refitted at the next
        :meth:`classify`, so a wrong hand-over costs time, not verdicts.
        """
        self._voter = voter
        return self

    def _fitted_voter(self) -> MajorityVoter:
        """The vote for the current model: fitted once, then reused."""
        key = (
            self.config.classifier_factory,
            self._train_X,
            self._train_y,
            self.config.majority_runs,
            self.config.seed,
        )
        if self._voter is None or not self._voter.fitted_on(*key):
            self._voter = fit_majority_vote(*key)
        return self._voter

    def classify(self, features: FeatureSet) -> list[ClassifiedOriginator]:
        """Majority-vote classification of every originator in *features*."""
        if self._train_X is None or self._train_y is None:
            raise RuntimeError("engine is not fitted")
        if len(features) == 0:
            self._record_stage("classify")
            return []
        with self._scope():
            with span("stage.classify") as sp:
                votes = self._fitted_voter().predict(features.matrix)
                names = self.encoder.decode(votes)
                verdicts = [
                    ClassifiedOriginator(
                        originator=int(features.originators[i]),
                        app_class=names[i],
                        footprint=int(features.footprints[i]),
                    )
                    for i in range(len(features))
                ]
            self._record_stage(
                "classify",
                items_in=len(features),
                items_out=len(verdicts),
                seconds=sp.elapsed,
            )
        return verdicts

    def classify_map(self, features: FeatureSet) -> dict[int, str]:
        """Classification as an originator → class mapping."""
        return {c.originator: c.app_class for c in self.classify(features)}

    # -- end to end -----------------------------------------------------

    def _sense(
        self, window: ObservationWindow, classify: bool | None = None
    ) -> SensedWindow:
        run_classify = self.is_fitted if classify is None else classify
        sensed = SensedWindow(window=window)
        with self._scope(), span("window.sense"):
            if self.directory is not None:
                sensed.features = self.featurize(window)
                if run_classify:
                    sensed.verdicts = self.classify(sensed.features)
        return sensed

    def process(
        self,
        entries: Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
        classify: bool | None = None,
    ) -> list[SensedWindow]:
        """Run a whole time-ordered log through every stage (batch).

        Slices ``[start, end)`` into config-width windows and runs each
        through select/featurize (and classify when fitted, or when
        *classify* is forced true).
        """
        with self._scope(), span("engine.run"):
            return [
                self._sense(window, classify)
                for window in self.windows(entries, start, end)
            ]

    # -- accounting -----------------------------------------------------

    def accounting(self) -> list[StageStats]:
        """Per-stage stats for everything this engine has processed."""
        return [self.stats[name] for name in STAGE_NAMES]

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

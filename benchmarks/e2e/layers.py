"""Traced pass of bench-e2e: the feed through each layer's public functions.

The live service is never instrumented.  Per-layer numbers come from
replaying the same bytes in this process, calling what the service's
pump calls — ``FeedReader.feed`` → ``StreamingCollector.ingest_block``
(→ ``dedup_mask`` / ``SketchPreStage.observe_arrays``) →
``completed_windows`` → ``analyzable`` → ``WindowContext.from_window``
over an ``EnrichmentCache`` → ``features_from_selected`` →
``majority_vote_predict`` → record build → ``json_response`` — each
under a span owned by this file.  Spans stay in memory until
:func:`write_trace` dumps them with the waterfall.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import repro.sensor.streaming as streaming
from repro.sensor.directory import EnrichmentCache
from repro.sensor.dynamic import WindowContext
from repro.sensor.features import features_from_selected
from repro.sensor.selection import analyzable
from repro.sensor.streaming import StreamingCollector
from repro.sensor.training import Strategy
from repro.ml.validation import majority_vote_predict
from repro.service.feed import FeedReader
from repro.service.http import json_response
from repro.service.manager import ModelManager
from repro.sketch.prestage import SketchPreStage

from reference import Trained, payload_slices, record_of, replay_chunks
from workloads import FLUSH_SECONDS, Feed, Workload

__all__ = [
    "BARE_LAYERS",
    "SpanRecorder",
    "discrimination",
    "layer_metrics",
    "traced_pass",
    "waterfall",
    "write_trace",
]

BARE_LAYERS = (
    "collector.ingest", "collector.close", "select.analyzable",
    "directory.prime", "features.featurize", "ml.vote", "sketch.gate",
)
"""Top-level spans that together cover what ``SensorEngine.ingest_block``
+ ``poll`` do; their sum is compared with the untraced engine pass."""


class SpanRecorder:
    """In-memory spans: (name, start, end, parent index, window id)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, window: int | None = None):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, window]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Total of *name* minus what its direct children cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(s[2] - s[1] for s in self.spans if s[3] in own)
        return self.total(name) - children

    @staticmethod
    def per_span_us(samples: int = 2000) -> float:
        """Cost of one empty span, measured on a scratch recorder."""
        scratch = SpanRecorder()
        started = time.perf_counter()
        for _ in range(samples):
            with scratch.span("empty"):
                pass
        return (time.perf_counter() - started) / samples * 1e6


@dataclass(slots=True)
class LayerPass:
    """Everything the traced pass counted besides its spans."""

    recorder: SpanRecorder
    records: list[dict] = field(default_factory=list)
    bytes_in: int = 0
    events_out: int = 0
    blocks_out: int = 0
    ingested: int = 0
    deduplicated: int = 0
    reordered: int = 0
    late_dropped: int = 0
    windows_out: int = 0
    pending_entries_peak: int = 0
    originators_in: int = 0
    selected: int = 0
    rows: int = 0
    predicted_rows: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    sketch_memory_bytes: int = 0
    sketch_wholesale: int = 0
    sketch_replayed: int = 0
    sketch_gate_kept: int = 0
    sketch_originators_seen: int = 0
    sketch_events: int = 0
    serialize_ms: float = 0.0
    verdicts_bytes: int = 0


def _traced_classifier(factory, recorder: SpanRecorder):
    """*factory*, with each classifier's fit/predict under a span."""

    class Traced:
        def __init__(self, seed: int) -> None:
            self._model = factory(seed)

        def fit(self, X, y):
            with recorder.span("ml.fit"):
                self._model.fit(X, y)
            return self

        def predict(self, X):
            with recorder.span("ml.predict"):
                return self._model.predict(X)

    return Traced


class _Model:
    """The classify stage's (X, y, encoder), swappable like the engine's."""

    def __init__(self, X, y, encoder) -> None:
        self.adopt_training(X, y, encoder)

    def adopt_training(self, X, y, encoder) -> None:
        self.X, self.y, self.encoder = X, y, encoder


def traced_pass(trained: Trained, feed: Feed, spec: Workload) -> LayerPass:
    """Replay the feed layer by layer under spans; see the module docstring."""
    recorder = SpanRecorder()
    out = LayerPass(recorder)
    config = trained.config
    model = _Model(trained.X, trained.y, trained.encoder)
    factory = _traced_classifier(config.classifier_factory, recorder)
    manager = (
        ModelManager(trained.labeled, Strategy.TRAIN_DAILY, seed=config.seed)
        if spec.retrain == "daily" else None
    )

    class TracedPreStage(SketchPreStage):
        def observe_arrays(self, timestamps, queriers, originators):
            out.sketch_events += int(len(timestamps))
            with recorder.span("sketch.observe"):
                return super().observe_arrays(timestamps, queriers, originators)

    params = config.sketch_params() if spec.sketch else None
    collector = StreamingCollector(
        window_seconds=config.window_seconds,
        origin=config.origin,
        dedup_window=config.dedup_window,
        reorder_slack=config.reorder_slack,
        prestage_factory=(lambda: TracedPreStage(params)) if spec.sketch else None,
    )
    for block in replay_chunks(trained.entries):
        collector.ingest_block(block)
    before = (
        collector.stats.ingested, collector.stats.deduplicated,
        collector.stats.reordered, collector.stats.late_dropped,
    )

    def sense(window) -> None:
        wid = out.windows_out
        out.windows_out += 1
        prestage = window.prestage
        out.originators_in += len(window)
        with recorder.span("select.analyzable", wid):
            selected = analyzable(window, config.min_queriers)
        out.selected += len(selected)
        cache = EnrichmentCache(trained.directory)
        with recorder.span("directory.prime", wid):
            context = WindowContext.from_window(window, cache)
        with recorder.span("features.featurize", wid):
            features = features_from_selected(
                window, selected, cache, context=context
            )
        out.cache_hits += cache.hits
        out.cache_misses += cache.misses
        out.rows += len(features)
        with recorder.span("ml.vote", wid):
            names: list[str] = []
            if len(features):
                votes = majority_vote_predict(
                    factory, model.X, model.y, features.matrix,
                    runs=config.majority_runs, seed=config.seed,
                )
                names = model.encoder.decode(votes)
                out.predicted_rows += len(features) * config.majority_runs
        with recorder.span("http.record", wid):
            verdicts = [
                SimpleNamespace(originator=o, app_class=name, footprint=f)
                for o, name, f in zip(
                    features.originators, names, features.footprints
                )
            ]
            out.records.append(record_of(window.start, window.end, verdicts))
        with recorder.span("http.serialize", wid):
            json_response({"windows": out.records})
        if prestage is not None:
            # The engine reads the approximate gate (an HLL estimate per
            # originator the pre-stage saw) into every window's telemetry.
            with recorder.span("sketch.gate", wid):
                out.sketch_gate_kept += prestage.gate_kept
            out.sketch_originators_seen += prestage.originators_seen
            out.sketch_memory_bytes = max(
                out.sketch_memory_bytes, sum(prestage.memory_bytes().values())
            )
            out.sketch_wholesale += prestage.resolver_wholesale
            out.sketch_replayed += prestage.resolver_replayed
        if manager is not None:
            with recorder.span("manager.refit", wid):
                manager.observe_window(
                    SimpleNamespace(features=features, window=window, verdicts=verdicts)
                )
                manager.wait_pending()
                manager.apply_pending(model)

    def push(block) -> None:
        if not len(block):
            return
        out.events_out += len(block)
        out.blocks_out += 1
        with recorder.span("collector.ingest"):
            collector.ingest_block(block)
        out.pending_entries_peak = max(
            out.pending_entries_peak, collector.pending_entries
        )
        with recorder.span("collector.close"):
            done = collector.completed_windows()
        for window in done:
            sense(window)

    def traced_dedup(*args, **kwargs):
        with recorder.span("logstore.dedup_mask"):
            return original_dedup(*args, **kwargs)

    # The collector calls dedup_mask through its module global; the span
    # goes around that call for the duration of this pass only.
    original_dedup = streaming.dedup_mask
    streaming.dedup_mask = traced_dedup
    try:
        reader = FeedReader("auto")
        payload = feed.payload
        out.bytes_in = len(payload)
        for lo, hi in payload_slices(feed):
            with recorder.span("feed.decode"):
                block = reader.feed(payload[lo:hi])
            push(block)
        with recorder.span("feed.decode"):
            block = reader.close()
        push(block)
    finally:
        streaming.dedup_mask = original_dedup
        if manager is not None:
            manager.close()

    out.ingested = collector.stats.ingested - before[0]
    out.deduplicated = collector.stats.deduplicated - before[1]
    out.reordered = collector.stats.reordered - before[2]
    out.late_dropped = collector.stats.late_dropped - before[3]
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        body = json_response({"windows": out.records})[2]
        timings.append((time.perf_counter() - started) * 1e3)
    out.serialize_ms = statistics.median(timings)
    out.verdicts_bytes = len(body)
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    layers: LayerPass, engine_ingest_s: float, engine_poll_s: float
) -> dict[str, float]:
    """Every per-layer metric the pass yields, by its ``BENCHMARK.json`` name."""
    rec = layers.recorder
    t = rec.total
    ingest = rec.durations("collector.ingest")
    decile = max(1, len(ingest) // 10)
    engine_total = engine_ingest_s + engine_poll_s
    bare = sum(t(name) for name in BARE_LAYERS)
    predict_s = t("ml.predict")
    spans = len(rec.spans)
    return {
        "feed.decode_s": t("feed.decode"),
        "feed.bytes_in": layers.bytes_in,
        "feed.events_out": layers.events_out,
        "feed.blocks_out": layers.blocks_out,
        "feed.events_per_block": _share(layers.events_out, layers.blocks_out),
        "logstore.dedup_mask_s": t("logstore.dedup_mask"),
        "logstore.dedup_dropped_share": _share(layers.deduplicated, layers.ingested),
        "collector.ingest_s": t("collector.ingest"),
        "collector.ingest_us_per_block_first_decile":
            statistics.fmean(ingest[:decile]) * 1e6,
        "collector.ingest_us_per_block_last_decile":
            statistics.fmean(ingest[-decile:]) * 1e6,
        "collector.events_per_s": _share(layers.events_out, t("collector.ingest")),
        "collector.reordered": layers.reordered,
        "collector.late_dropped": layers.late_dropped,
        "collector.close_s": t("collector.close"),
        "collector.windows_out": layers.windows_out,
        "collector.pending_entries_peak": layers.pending_entries_peak,
        "sketch.observe_s": t("sketch.observe"),
        "sketch.events_per_s": _share(layers.sketch_events, t("sketch.observe")),
        "sketch.memory_bytes": layers.sketch_memory_bytes,
        "sketch.replayed_share": _share(
            layers.sketch_replayed, layers.sketch_replayed + layers.sketch_wholesale),
        "sketch.gate_kept": layers.sketch_gate_kept,
        "sketch.gate_s": t("sketch.gate"),
        "select.analyzable_s": t("select.analyzable"),
        "select.originators_in": layers.originators_in,
        "select.kept_share": _share(layers.selected, layers.originators_in),
        "directory.prime_s": t("directory.prime"),
        "directory.hit_share": _share(
            layers.cache_hits, layers.cache_hits + layers.cache_misses),
        "features.featurize_s": t("features.featurize"),
        "features.rows": layers.rows,
        "features.rows_per_s": _share(layers.rows, t("features.featurize")),
        "ml.vote_s": t("ml.vote"),
        "ml.fit_s": t("ml.fit"),
        "ml.fit_share_of_vote": _share(t("ml.fit"), t("ml.vote")),
        "ml.predict_rows_per_s": _share(layers.predicted_rows, predict_s),
        "engine.ingest_s": engine_ingest_s,
        "engine.poll_s": engine_poll_s,
        "engine.total_s": engine_total,
        "engine.overhead_share": _share(engine_total - bare, engine_total),
        "manager.refit_s": t("manager.refit"),
        "http.serialize_ms": layers.serialize_ms,
        "http.verdicts_bytes": layers.verdicts_bytes,
        "trace.spans": spans,
        "trace.overhead_s": bare - engine_total,
        "trace.per_span_us": rec.per_span_us(),
    }


def waterfall(
    spec: Workload, m: dict[str, float], wall_s: float, layers: LayerPass
) -> str:
    """The per-workload waterfall as text; rows out of tolerance are flagged.

    decode → engine {collector, dedup, sketch, select, directory,
    features, ml} → record build/serialise → service residual → e2e wall.
    Collector is shown as self time (its dedup/sketch children are their
    own rows), so the engine rows add up to Σ bare layers.
    """
    rec = layers.recorder
    engine_total = m["engine.total_s"]
    bare = sum(rec.total(name) for name in BARE_LAYERS)
    residual = wall_s - m["feed.decode_s"] - engine_total
    rows = [
        ("feed.decode", m["feed.decode_s"]),
        ("engine (untraced pass)", engine_total),
        ("  collector.ingest (self)", rec.self_time("collector.ingest")),
        ("  logstore.dedup_mask", m["logstore.dedup_mask_s"]),
        ("  sketch.observe", m["sketch.observe_s"]),
        ("  sketch.gate (window telemetry)", m["sketch.gate_s"]),
        ("  collector.close", m["collector.close_s"]),
        ("  select.analyzable", m["select.analyzable_s"]),
        ("  directory.prime", m["directory.prime_s"]),
        ("  features.featurize", m["features.featurize_s"]),
        ("  ml.vote", m["ml.vote_s"]),
        ("  = sum of bare layers", bare),
        ("http.record + http.serialize", rec.total("http.record") + rec.total("http.serialize")),
        ("manager.refit", m["manager.refit_s"]),
        ("service residual", residual),
        ("e2e wall (live, median cycle)", wall_s),
    ]
    flags = []
    if engine_total and abs(bare - engine_total) > 0.15 * engine_total:
        flags.append(
            f"sum of bare layers {bare:.3f} s is not within 15 % of "
            f"engine.total_s {engine_total:.3f} s"
        )
    if residual < -0.05 * wall_s:
        flags.append(
            f"service residual {residual:.3f} s is below -5 % of the e2e wall "
            f"{wall_s:.3f} s"
        )
    lines = [f"waterfall {spec.name} (seconds, share of e2e wall)"]
    lines += [
        f"  {label:<34}{value:>10.4f}{_share(value, wall_s):>9.1%}"
        for label, value in rows
    ]
    lines += [f"  FLAG: {flag}" for flag in flags]
    return "\n".join(lines)


def discrimination(
    spec: Workload, m: dict[str, float], wall_s: float, layers: LayerPass
) -> list[tuple[str, float, str, bool]]:
    """Does the workload load the layer it exists for?

    Returns ``(what, measured, requirement, ok)`` rows.  Layer shares are
    taken against the traced pass's own total (Σ bare layers), so both
    sides of a ratio saw the same host phase.  Thresholds were tuned once
    against the committed sizes (README, "Discrimination", records the
    measured shares) and are frozen; a failing row fails the traced run.
    """
    rec = layers.recorder
    engine = sum(rec.total(name) for name in BARE_LAYERS)
    ingest_side = m["collector.ingest_s"] + m["select.analyzable_s"]
    close_side = m["features.featurize_s"] + m["ml.vote_s"]
    checks: list[tuple[str, float, str, bool]] = []

    def need(what: str, value: float, low: float | None, high: float | None) -> None:
        ok = (low is None or value >= low) and (high is None or value <= high)
        bound = " and ".join(
            f"{sign} {limit:g}"
            for sign, limit in ((">=", low), ("<=", high)) if limit is not None
        )
        checks.append((what, value, bound, ok))

    if spec.pace_seconds is not None:
        need("(directory + features + ml + http) / bare layers",
             _share(m["directory.prime_s"] + close_side + rec.total("http.record")
                    + rec.total("http.serialize"), engine), 0.70, None)
        need("collector.ingest_s / bare layers",
             _share(m["collector.ingest_s"], engine), None, 0.25)
        need("service.cpu_utilisation", m["service.cpu_utilisation"], 0.25, 0.80)
        need("gen.lag_max_s", m["gen.lag_max_s"], None, FLUSH_SECONDS)
        need("service.backlog_end_events", m["service.backlog_end_events"], None, 0.0)
        return checks
    text = spec.feed_format == "text"
    need("feed.decode_s / e2e wall", _share(m["feed.decode_s"], wall_s),
         0.08 if text else None, None if text else 0.01)
    # A 64 KiB read holds 3 640 rbsc frames, or ~1 260 text lines.
    need("feed.events_per_block", m["feed.events_per_block"],
         None if text else 3000, 1820 if text else None)
    if spec.sketch:
        need("sketch.observe_s / bare layers",
             _share(m["sketch.observe_s"], engine), 0.25, None)
        # Stands in for "select.analyzable_s < 25 % of the exact run's":
        # the exact run is another process, but what select iterates over
        # is a count, and the pre-stage knows the pre-gate count.
        need("select.originators_in / originators the pre-stage saw",
             _share(m["select.originators_in"], layers.sketch_originators_seen),
             None, 0.25)
        need("(features + ml) / bare layers", _share(close_side, engine), None, 0.55)
    else:
        # collector.ingest_s already contains its dedup_mask child.
        need("(collector.ingest + select) / bare layers",
             _share(ingest_side, engine), 0.45, None)
        need("(features + ml) / bare layers", _share(close_side, engine), None, 0.45)
        need("sketch.observe_s", m["sketch.observe_s"], None, 0.0)
    return checks


def write_trace(
    out_dir: Path, spec: Workload, seed: int, layers: LayerPass, text: str
) -> None:
    """Dump the spans and the waterfall under *out_dir*."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"waterfall-{spec.name}.txt").write_text(text + "\n")
    spans = [
        {"name": n, "start": s, "end": e, "parent": p, "window": w}
        for n, s, e, p, w in layers.recorder.spans
    ]
    (out_dir / f"spans-{spec.name}-{seed}.json").write_text(json.dumps(spans))

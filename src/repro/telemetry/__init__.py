"""repro.telemetry — metrics and tracing for the sensing pipeline.

The paper's sensor is an always-on service at a DNS authority; verdicts
only matter operationally if you can see where volume, drops, and wall
time went across ingest → window → select → featurize → classify, and
longitudinal runs (§ V) live or die on knowing when a window was slow,
a cache went cold, or a stage silently dropped input.  This package is
that observability layer, dependency-free:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments, labeled per stage, with
  Prometheus-text and JSON-lines export (:func:`write_metrics`);
* :class:`span` context-manager tracing that nests (engine run → window
  → stage → enrichment/classify), records wall time and outcome, and
  degrades to a near-no-op when no registry is in scope;
* an *ambient* registry (:func:`use_registry`, per thread) so the
  instrumented hot paths — the enrichment cache, the featurize fan-out,
  the classifier — need no new parameters to report.

Each fact is recorded once, where it happens: a duration in its span
(``repro_span_seconds`` / ``repro_span_total``), a stage count in the
engine's :class:`~repro.sensor.engine.StageStats`, mirrored to
``repro_stage_items_total`` as it changes.

Enabling telemetry::

    from repro.telemetry import MetricsRegistry, write_metrics

    registry = MetricsRegistry()
    engine = SensorEngine(directory, registry=registry)  # or: with use_registry(registry):
    engine.process(entries, 0.0, end)
    write_metrics(registry, "metrics.prom")

With no registry in scope every instrumentation point is a cheap
no-op; the engine's :class:`~repro.sensor.engine.StageStats` accounting
keeps working either way (it reads span wall times directly).
"""

from repro.telemetry.export import METRICS_FORMATS, format_for_path, write_metrics
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    count,
    current_span_path,
    get_registry,
    observe,
    set_gauge,
    span,
    use_registry,
)

__all__ = [
    "METRICS_FORMATS",
    "format_for_path",
    "write_metrics",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "count",
    "current_span_path",
    "get_registry",
    "observe",
    "set_gauge",
    "span",
    "use_registry",
]

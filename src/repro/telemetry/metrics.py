"""Dependency-free metric instruments and their registry.

The sensor is an always-on service at an authority (§ III): originator
verdicts only matter if an operator can see where volume, drops, and
wall time went across ingest → window → select → featurize → classify.
This module provides the three classic instrument kinds over plain
Python state:

* :class:`Counter` — monotonically increasing totals (entries ingested,
  cache misses, stage drops);
* :class:`Gauge` — last-written values (reorder-buffer depth, open
  windows);
* :class:`Histogram` — fixed-bucket distributions with sum and count
  (stage wall times, per-chunk featurize times).

Instruments are *labeled*: one instrument family (say
``repro_stage_items_total``) holds an independent series per label
combination (``stage="featurize", direction="in"``), matching the
Prometheus data model.  A :class:`MetricsRegistry` owns the families and
renders them two ways from one walk over the series —
:meth:`~MetricsRegistry.to_prometheus` (text exposition format) and
:meth:`~MetricsRegistry.to_jsonl` (one JSON object per series, for
appending periodic snapshots).  One series reads back through
``registry.get(name).value(...)`` / ``.count()`` / ``.sum()``.

Everything is intentionally allocation-light: label series are dict
entries keyed by value tuples, and the hot-path operations (``inc``,
``set``, ``observe``) are a dict get plus an add.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

#: Default histogram buckets, tuned for stage/window wall times: 1 ms up
#: to 5 minutes, roughly ×2.5 per step (everything slower lands in +Inf).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, object]
) -> tuple[str, ...]:
    """The series key for one label assignment (validated against names)."""
    if len(labels) != len(label_names):
        missing = set(label_names) - set(labels)
        extra = set(labels) - set(label_names)
        raise ValueError(
            f"label mismatch: missing={sorted(missing)} unexpected={sorted(extra)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Instrument:
    """Shared naming/labeling machinery for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> None:
        if not name or not name.replace("_", "a").isidentifier():
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(labels)

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        return _label_key(self.label_names, labels)

    def records(self) -> Iterator[tuple[tuple[str, ...], dict[str, object]]]:
        """``(label values, sample fields)`` per series, sorted by labels."""
        raise NotImplementedError  # pragma: no cover


class _Scalar(_Instrument):
    """One number per label combination (an unlabeled one starts at 0)."""

    def __init__(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: dict[tuple[str, ...], float] = {} if labels else {(): 0.0}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0 and self.kind == "counter":
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """The sum over every series (a count across its labels)."""
        return sum(self._values.values())

    def records(self) -> Iterator[tuple[tuple[str, ...], dict[str, object]]]:
        for key, value in sorted(self._values.items()):
            yield key, {"value": value}


class Counter(_Scalar):
    """A monotonically increasing total, one series per label combination."""

    kind = "counter"


class Gauge(_Scalar):
    """A last-written value (may go up or down)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = float(value)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)


class _HistogramSeries:
    """Bucket counts + sum + count for one label combination."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # cumulative at export, raw here
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket distribution (upper bounds are inclusive, +Inf implicit)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be non-empty, sorted, and distinct")
        self.buckets = tuple(float(b) for b in buckets)
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        slot = bisect_left(self.buckets, value)
        if slot < len(self.buckets):
            series.bucket_counts[slot] += 1
        series.sum += value
        series.count += 1

    def count(self, **labels: object) -> int:
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(self._key(labels))
        return series.sum if series is not None else 0.0

    def records(self) -> Iterator[tuple[tuple[str, ...], dict[str, object]]]:
        """Cumulative buckets keyed by their ``le`` text, ending ``+Inf``."""
        for key, series in sorted(self._series.items(), key=lambda kv: kv[0]):
            running = 0
            buckets: dict[str, int] = {}
            for bound, raw in zip(self.buckets, series.bucket_counts):
                running += raw
                buckets[_format_value(bound)] = running
            buckets["+Inf"] = series.count
            yield key, {"sum": series.sum, "count": series.count, "buckets": buckets}


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers without the trailing .0."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: tuple[str, ...], values: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    pairs += [f'{n}="{_escape_label(v)}"' for n, v in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


class MetricsRegistry:
    """Owns the instrument families and renders them for export.

    Families are created idempotently: asking for an existing name with
    the same kind returns the existing instrument, so call sites don't
    need to coordinate creation order.  Asking with a different kind (or
    different labels/buckets) raises — a family's schema is fixed.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def _register(
        self, kind: type, name: str, help: str, labels: tuple[str, ...], *buckets
    ) -> _Instrument:
        """The family *name*: built on first use, a checked lookup after.

        Instrumented code asks for its family on every record, so the
        common case must not build and validate a throwaway instrument.
        """
        existing = self._instruments.get(name)
        if existing is None:
            existing = self._instruments[name] = kind(name, help, labels, *buckets)
            return existing
        if type(existing) is not kind:
            raise ValueError(f"metric {name!r} already registered as {existing.kind}")
        if existing.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered with labels {existing.label_names}"
            )
        if buckets and existing.buckets != tuple(buckets[0]):  # type: ignore[union-attr]
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return existing

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Counter:
        out = self._register(Counter, name, help, labels)
        assert isinstance(out, Counter)
        return out

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        out = self._register(Gauge, name, help, labels)
        assert isinstance(out, Gauge)
        return out

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        out = self._register(Histogram, name, help, labels, buckets)
        assert isinstance(out, Histogram)
        return out

    # -- export ---------------------------------------------------------

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for key, record in instrument.records():
                plain = _render_labels(instrument.label_names, key)
                if "buckets" not in record:
                    lines.append(f"{name}{plain} {_format_value(record['value'])}")
                    continue
                for le, running in record["buckets"].items():
                    labels = _render_labels(
                        instrument.label_names, key, extra=(("le", le),)
                    )
                    lines.append(f"{name}_bucket{labels} {running}")
                lines.append(f"{name}_sum{plain} {_format_value(record['sum'])}")
                lines.append(f"{name}_count{plain} {record['count']}")
        return "\n".join(lines) + "\n" if lines else ""

    def to_jsonl(self) -> str:
        """One JSON object per series, newline-delimited.

        Suited to periodic snapshot appends: each line carries the family
        name, kind, and labels, so consecutive snapshots concatenate into
        a valid stream.  A counter or gauge line has a ``value``; a
        histogram line has ``sum``, ``count`` and cumulative ``buckets``
        keyed by upper bound (``"+Inf"`` last).
        """
        lines: list[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            for key, record in instrument.records():
                lines.append(json.dumps({
                    "name": name,
                    "kind": instrument.kind,
                    "labels": dict(zip(instrument.label_names, key)),
                    **record,
                }, sort_keys=True))
        return "\n".join(lines) + "\n" if lines else ""

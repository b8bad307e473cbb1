"""Lightweight tracing spans over the ambient metrics registry.

A :class:`span` is a context manager that measures wall time and — when
a :class:`~repro.telemetry.metrics.MetricsRegistry` is in scope —
records it as a ``repro_span_seconds`` histogram observation plus a
``repro_span_total`` outcome counter.  Spans nest: the engine opens one
per run, one per window, one per stage, and the enrichment/classify
internals open their own inside those; each span records its parent's
name, so traces reconstruct the stage tree without unbounded label
cardinality.

With **no registry in scope the span is a near-no-op**: two
``perf_counter`` calls and an attribute store.  The elapsed time is
still measured and exposed as :attr:`span.elapsed`, because the
engine's :class:`~repro.sensor.engine.StageStats` accounting reads it
regardless of whether metrics are being collected — tracing degrades,
accounting doesn't.

The registry is *ambient*: :func:`use_registry` scopes one to a
``with`` block on the calling thread (the engine uses it to thread an
explicitly-passed registry down through featurize and classify without
widening every signature).  There is no process-wide default.  The
service runs its pump, its background model fit and its event loop on
three threads, so the scope and the open-span stack are per thread: one
thread entering or leaving a scope never changes what another records.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "span",
    "get_registry",
    "use_registry",
    "current_span_path",
    "count",
    "set_gauge",
    "observe",
]


class _ThreadState(threading.local):
    """What one thread has open: its scoped registry and its span stack."""

    def __init__(self) -> None:
        self.scoped: MetricsRegistry | None = None
        self.stack: list[str] = []


_LOCAL = _ThreadState()


def get_registry() -> MetricsRegistry | None:
    """The calling thread's scoped registry, or ``None`` when telemetry is off."""
    return _LOCAL.scoped


@contextmanager
def use_registry(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry | None]:
    """Scope *registry* as this thread's ambient one for a ``with`` block.

    ``use_registry(None)`` is a no-op scope that keeps whatever is
    currently ambient — callers with an *optional* registry handle can
    wrap unconditionally.
    """
    if registry is None:
        yield get_registry()
        return
    previous, _LOCAL.scoped = _LOCAL.scoped, registry
    try:
        yield registry
    finally:
        _LOCAL.scoped = previous


def current_span_path() -> str:
    """Dotted path of this thread's open spans (empty when none are open)."""
    return ".".join(_LOCAL.stack)


class span:
    """Measure one operation; record it if a registry is in scope.

    Usage::

        with span("stage.featurize") as sp:
            ...work...
        stats.seconds += sp.elapsed

    Attributes after exit: :attr:`elapsed` (wall seconds),
    :attr:`outcome` (``"ok"`` or ``"error"``), :attr:`parent` (enclosing
    span name or ``""``).  Use dotted names for sub-operations
    (``stage.featurize``, ``featurize.enrich``) — the name is a label on
    ``repro_span_seconds``, so keep its cardinality bounded (stage names
    yes, window indexes no).
    """

    __slots__ = ("name", "elapsed", "outcome", "parent", "_started", "_registry")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed = 0.0
        self.outcome = "ok"
        self.parent = ""
        self._started = 0.0
        self._registry: MetricsRegistry | None = None

    def __enter__(self) -> "span":
        # The registry seen here is the one recorded into at exit, so a
        # span pushed on the stack is always popped again.
        self._registry = get_registry()
        if self._registry is not None:
            stack = _LOCAL.stack
            self.parent = stack[-1] if stack else ""
            stack.append(self.name)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._started
        registry = self._registry
        if registry is None:
            return
        stack = _LOCAL.stack
        if stack and stack[-1] == self.name:
            stack.pop()
        self.outcome = "ok" if exc_type is None else "error"
        registry.histogram(
            "repro_span_seconds",
            "Wall time of traced operations, by span name and parent.",
            labels=("span", "parent"),
        ).observe(self.elapsed, span=self.name, parent=self.parent)
        registry.counter(
            "repro_span_total",
            "Completed traced operations, by span name and outcome.",
            labels=("span", "outcome"),
        ).inc(1, span=self.name, outcome=self.outcome)


def count(name: str, amount: float = 1.0, help: str = "", **labels: object) -> None:
    """Increment a counter on the ambient registry (no-op when none).

    An amount of 0 still creates the series, whatever the data exercised.
    """
    registry = get_registry()
    if registry is None:
        return
    registry.counter(name, help, labels=tuple(labels)).inc(amount, **labels)


def set_gauge(name: str, value: float, help: str = "", **labels: object) -> None:
    """Set a gauge on the ambient registry (no-op when none)."""
    registry = get_registry()
    if registry is None:
        return
    registry.gauge(name, help, labels=tuple(labels)).set(value, **labels)


def observe(name: str, value: float, help: str = "", **labels: object) -> None:
    """Observe into a histogram on the ambient registry (no-op when none)."""
    registry = get_registry()
    if registry is None:
        return
    registry.histogram(name, help, labels=tuple(labels)).observe(value, **labels)

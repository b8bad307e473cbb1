"""Frozen configuration for the long-running detection service.

One :class:`ServiceConfig` gathers every service knob — bind address,
feed source and format, shard fan-out, retraining strategy, alerting
thresholds — validated eagerly in ``__post_init__``
exactly like :class:`~repro.sensor.engine.SensorConfig`, so a service
never starts half-configured.  The sensor itself is configured through
the embedded ``sensor`` field; the service adds only what a live
deployment needs on top of the engine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.sensor.engine import SensorConfig
from repro.sensor.training import Strategy

__all__ = ["FEED_FORMATS", "ServiceConfig"]

#: Accepted ``feed_format`` values; ``auto`` sniffs the ``RBSC`` magic.
FEED_FORMATS = ("auto", "text", "rbsc")

_STRATEGY_NAMES = {
    "once": Strategy.TRAIN_ONCE,
    "daily": Strategy.TRAIN_DAILY,
    "grow": Strategy.AUTO_GROW,
}


def _coerce_strategy(value: "Strategy | str | None") -> Strategy | None:
    if value is None or isinstance(value, Strategy):
        return value
    if isinstance(value, str):
        if value in _STRATEGY_NAMES:
            return _STRATEGY_NAMES[value]
        try:
            return Strategy(value)
        except ValueError:
            pass
    accepted = sorted(_STRATEGY_NAMES) + [s.value for s in Strategy]
    raise ValueError(f"unknown retrain strategy {value!r} (accepted: {accepted})")


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.BackscatterService` needs.

    Validated eagerly: a bad port, feed format, or retrain strategy
    raises at construction, not at bind time.  Frozen so a running
    service cannot be reconfigured underneath its feed tasks; build a
    variant with :meth:`replaced`.
    """

    sensor: SensorConfig = field(default_factory=SensorConfig)
    """Engine configuration (windowing, dedup, selection, classifier)."""

    host: str = "127.0.0.1"
    """HTTP bind address."""

    port: int = 8053
    """HTTP port; ``0`` binds an ephemeral port (see ``http_address``)."""

    feed_port: int | None = None
    """Optional raw-feed socket port (``0`` = ephemeral, ``None`` = off)."""

    feed_path: str | Path | None = None
    """Optional log file to tail as a feed source."""

    feed_format: str = "auto"
    """Wire format of socket/tailed feeds: one of :data:`FEED_FORMATS`."""

    feed_chunk: int = 65536
    """Bytes per read from feed sockets and tailed files."""

    feed_poll_seconds: float = 0.05
    """Tail-polling interval for ``feed_path``."""

    shards: int = 1
    """Engine fan-out: 1 = single :class:`SensorEngine`, >1 = federated."""

    retrain: Strategy | str | None = None
    """Online retraining strategy between windows; ``None`` = train once
    up front and never swap.  Accepts a :class:`Strategy`, its value
    (``"train-daily"``), or the CLI short names ``once``/``daily``/``grow``."""

    retrain_min_per_class: int = 3
    """Candidate-model gate: examples required per class (§ V-B)."""

    retrain_min_total: int = 12
    """Candidate-model gate: total labeled examples required."""

    verdict_history: int = 64
    """Closed windows retained for ``GET /verdicts``."""

    alert_classes: tuple[str, ...] = ("scan",)
    """Application classes watched by the surge detectors."""

    alert_window: int = 6
    """Trailing windows forming each detector's robust baseline."""

    alert_threshold: float = 3.0
    """Robust z-score at which a window alerts."""

    alert_min_relative: float = 0.2
    """Relative-increase floor for alerting (see ``SurgeDetector``)."""

    def __post_init__(self) -> None:
        if not isinstance(self.sensor, SensorConfig):
            raise ValueError("sensor must be a SensorConfig")
        for name, value in (("port", self.port), ("feed_port", self.feed_port)):
            if value is None:
                continue
            if not (0 <= value <= 65535):
                raise ValueError(f"{name} must be in [0, 65535], got {value}")
        if self.feed_format not in FEED_FORMATS:
            raise ValueError(
                f"feed_format must be one of {FEED_FORMATS}, got {self.feed_format!r}"
            )
        if self.feed_chunk < 1:
            raise ValueError("feed_chunk must be at least 1 byte")
        if self.feed_poll_seconds <= 0:
            raise ValueError("feed_poll_seconds must be positive")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        object.__setattr__(self, "retrain", _coerce_strategy(self.retrain))
        if self.retrain_min_per_class < 1:
            raise ValueError("retrain_min_per_class must be at least 1")
        if self.retrain_min_total < 1:
            raise ValueError("retrain_min_total must be at least 1")
        if self.verdict_history < 1:
            raise ValueError("verdict_history must be at least 1")
        if self.alert_window < 2:
            raise ValueError("alert_window must be at least 2")
        if self.alert_threshold <= 0:
            raise ValueError("alert_threshold must be positive")
        if self.alert_min_relative < 0:
            raise ValueError("alert_min_relative must be non-negative")
        object.__setattr__(self, "alert_classes", tuple(self.alert_classes))

    def replaced(self, **overrides: object) -> "ServiceConfig":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **overrides)

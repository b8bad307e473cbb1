"""Surge alerting on class activity (the paper's "detection and response").

§ I motivates the sensor with anticipating attacks; § VI-C shows the
signal: scanning jumps >25% in the weeks after the Heartbleed
announcement against a large steady background.  This module turns the
per-window class counts into alerts using a robust rolling baseline —
median and MAD over the trailing windows — so a handful of noisy weeks
cannot mask a genuine surge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Alert", "SurgeDetector", "detect_surges"]


@dataclass(frozen=True, slots=True)
class Alert:
    """One surge: when, what class, how large against the baseline."""

    day: float
    app_class: str
    observed: int
    baseline: float
    score: float
    """Robust z-score: (observed - median) / (1.4826 * MAD)."""


class SurgeDetector:
    """Online robust-baseline surge detection for one class's counts.

    Parameters
    ----------
    window:
        Trailing windows forming the baseline (the paper's "large amount
        of scanning that happens at all times").
    threshold:
        Robust z-score above which a window is flagged.
    min_baseline:
        Alerts are suppressed until this many baseline samples exist —
        a detector with two data points has no business alarming.
    min_relative:
        Additionally require observed >= (1 + min_relative) * median, so
        tiny absolute wiggles on a flat series cannot alert even when
        the MAD is near zero.
    """

    def __init__(
        self,
        app_class: str,
        window: int = 6,
        threshold: float = 3.0,
        min_baseline: int = 4,
        min_relative: float = 0.2,
    ) -> None:
        if window < 2:
            raise ValueError("window must be at least 2")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.app_class = app_class
        self.window = window
        self.threshold = threshold
        self.min_baseline = min_baseline
        self.min_relative = min_relative
        self._history: list[float] = []

    def update(self, day: float, observed: int) -> Alert | None:
        """Feed one window's count; returns an alert if it surges.

        Every observation — alerting or not — joins the baseline: the
        rolling *median* is already robust to isolated spikes (a one-week
        surge cannot normalize itself away), while sustained level shifts
        are correctly adopted as the new background within one window
        span, so a slowly growing population does not alarm forever.
        """
        alert: Alert | None = None
        if len(self._history) >= self.min_baseline:
            baseline = np.array(self._history[-self.window :], dtype=float)
            median = float(np.median(baseline))
            mad = float(np.median(np.abs(baseline - median)))
            spread = 1.4826 * mad if mad > 0 else max(1.0, 0.1 * max(median, 1.0))
            score = (observed - median) / spread
            relative_ok = observed >= (1.0 + self.min_relative) * max(median, 1.0)
            if score >= self.threshold and relative_ok:
                alert = Alert(
                    day=day,
                    app_class=self.app_class,
                    observed=observed,
                    baseline=median,
                    score=float(score),
                )
        self._history.append(float(observed))
        return alert


def detect_surges(
    series: Sequence[tuple[float, dict[str, int], int]],
    app_class: str = "scan",
    window: int = 6,
    threshold: float = 3.0,
    min_relative: float = 0.2,
) -> list[Alert]:
    """Run surge detection over a Fig 11-style class-count series.

    ``series`` is the output of
    :func:`repro.analysis.trends.class_count_series`; windows with no
    classifications at all are skipped (sensor not yet trained).
    """
    detector = SurgeDetector(
        app_class, window=window, threshold=threshold, min_relative=min_relative
    )
    alerts: list[Alert] = []
    for day, counts, total in series:
        if total == 0:
            continue
        alert = detector.update(day, counts.get(app_class, 0))
        if alert is not None:
            alerts.append(alert)
    return alerts

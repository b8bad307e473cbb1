"""Windowed analysis of long datasets (the M-sampled / B-multi-year flow).

Slices a generated dataset's sensor log into consecutive observation
windows (7 days for M-sampled, 1 day for B-multi-year, per § III-B),
extracts features per window, and — given a curated labeled set — trains
a pipeline and classifies every window.  All longitudinal results
(Figs 5-8 and 11-15) are computed from the resulting
:class:`WindowedAnalysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.generate import GeneratedDataset
from repro.groundtruth.labeling import build_labeled_set
from repro.sensor.collection import ObservationWindow
from repro.sensor.curation import LabeledSet
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.features import FeatureSet
from repro.sensor.selection import rank_by_footprint

__all__ = ["AnalysisWindow", "WindowedAnalysis", "slice_windows", "analyze_dataset"]

SECONDS_PER_DAY = 86400.0


@dataclass(slots=True)
class AnalysisWindow:
    """One observation interval with everything derived from it."""

    index: int
    start_day: float
    end_day: float
    observations: ObservationWindow
    features: FeatureSet
    classification: dict[int, str] = field(default_factory=dict)

    @property
    def mid_day(self) -> float:
        return (self.start_day + self.end_day) / 2.0

    def originators(self) -> set[int]:
        return {int(o) for o in self.features.originators}


@dataclass(slots=True)
class WindowedAnalysis:
    """All windows of one dataset, plus the labeled set used to classify."""

    dataset: GeneratedDataset
    window_days: float
    windows: list[AnalysisWindow]
    labeled: LabeledSet | None = None

    def window_containing(self, day: float) -> AnalysisWindow | None:
        for window in self.windows:
            if window.start_day <= day < window.end_day:
                return window
        return None


def slice_windows(
    dataset: GeneratedDataset,
    window_days: float,
    min_queriers: int = 20,
) -> list[AnalysisWindow]:
    """Cut the sensor log into consecutive windows with features.

    One staged :class:`~repro.sensor.engine.SensorEngine` pass: the
    engine emits the windows (single canonical dedup/windowing path) and
    featurizes each; this module only re-frames them in days.
    """
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    engine = SensorEngine(
        dataset.directory(),
        SensorConfig(
            window_seconds=window_days * SECONDS_PER_DAY,
            min_queriers=min_queriers,
        ),
    )
    sensed = engine.process(
        dataset.sensor.log.block(),
        0.0,
        dataset.spec.duration_days * SECONDS_PER_DAY,
        classify=False,
    )
    return [
        AnalysisWindow(
            index=index,
            start_day=result.window.start / SECONDS_PER_DAY,
            end_day=result.window.end / SECONDS_PER_DAY,
            observations=result.window,
            features=result.features,
        )
        for index, result in enumerate(sensed)
    ]


def curate_from_window(
    dataset: GeneratedDataset,
    window: AnalysisWindow,
    per_class_cap: int = 140,
    top_k: int = 10_000,
    min_queriers: int = 20,
) -> LabeledSet:
    """§ IV-B curation against one window's top originators."""
    ranked = rank_by_footprint(
        [
            o
            for o in window.observations.observations.values()
            if o.footprint >= min_queriers
        ]
    )[:top_k]
    return build_labeled_set(
        dataset.sources(),
        [o.originator for o in ranked],
        per_class_cap=per_class_cap,
        curated_day=window.mid_day,
    )


def analyze_dataset(
    dataset: GeneratedDataset,
    window_days: float = 7.0,
    min_queriers: int = 20,
    curation_windows: tuple[int, ...] = (0,),
    per_class_cap: int = 140,
    classify: bool = True,
    majority_runs: int = 3,
) -> WindowedAnalysis:
    """Slice, curate (merging curations from the given windows), classify.

    The paper's M-sampled labeled set merges three curations about a
    month apart (§ III-E); pass the corresponding window indices.
    """
    windows = slice_windows(dataset, window_days, min_queriers)
    if not windows:
        raise ValueError("dataset produced no windows")
    labeled = LabeledSet()
    for index in curation_windows:
        if not 0 <= index < len(windows):
            raise ValueError(f"curation window {index} out of range")
        labeled = labeled.merged_with(
            curate_from_window(
                dataset, windows[index], per_class_cap, min_queriers=min_queriers
            )
        )
    analysis = WindowedAnalysis(
        dataset=dataset, window_days=window_days, windows=windows, labeled=labeled
    )
    if classify and len(labeled):
        engine = SensorEngine(
            dataset.directory(),
            SensorConfig(
                window_seconds=window_days * SECONDS_PER_DAY,
                min_queriers=min_queriers,
                majority_runs=majority_runs,
                seed=dataset.spec.seed + 99,
            ),
        )
        for window in windows:
            present = labeled.restrict_to(window.originators())
            if len(present) < 8 or len(present.classes_present()) < 2:
                continue
            engine.fit(window.features, present)
            window.classification = engine.classify_map(window.features)
    return analysis

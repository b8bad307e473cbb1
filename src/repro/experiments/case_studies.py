"""Figure 3 + Table II: static and dynamic features of six case studies.

The paper illustrates its features on six originators from JP-ditl:
scan-icmp (a research outage-detection scanner), scan-ssh, ad-tracker,
cdn, mail (a newspaper's mailing list), and spam.  We pick the largest-
footprint actor of each kind in the generated JP-ditl and report its
static category fractions (Fig 3) and key dynamic features (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.generate import GeneratedDataset, get_dataset
from repro.sensor.engine import SensorEngine
from repro.sensor.dynamic import WindowContext, dynamic_feature_dict
from repro.sensor.static import static_feature_dict

__all__ = ["CaseStudy", "CASES", "run", "format_static", "format_dynamic"]

#: (case label, app class, scan-variant constraint or None)
CASES: tuple[tuple[str, str, str | None], ...] = (
    ("scan-icmp", "scan", "icmp"),
    ("scan-ssh", "scan", "tcp22"),
    ("ad-track", "ad-tracker", None),
    ("cdn", "cdn", None),
    ("mail", "mail", None),
    ("spam", "spam", None),
)


@dataclass(frozen=True, slots=True)
class CaseStudy:
    label: str
    originator: int
    footprint: int
    static: dict[str, float]
    dynamic: dict[str, float]


def _pick_exemplars(dataset: GeneratedDataset) -> dict[str, int]:
    """Best exemplar per case: big audience, active across the window.

    Coverage matters for the temporal features: a scanner whose campaign
    spans the whole 50-hour capture illustrates scan behaviour; one that
    fired for two hours does not.  (Mail is inherently a burst, so its
    low coverage is the behaviour.)
    """
    window_days = dataset.spec.duration_days
    coverage: dict[int, float] = {}
    for campaign in dataset.scenario.campaigns:
        start_day = campaign.start / 86400.0
        end_day = campaign.end / 86400.0
        overlap = max(0.0, min(end_day, window_days) - max(start_day, 0.0))
        coverage[campaign.originator] = coverage.get(campaign.originator, 0.0) + overlap
    chosen: dict[str, int] = {}
    for label, app_class, variant in CASES:
        candidates = [
            actor
            for actor in dataset.scenario.actors
            if actor.app_class == app_class
            and (variant is None or actor.variant == variant)
        ]
        if not candidates:
            # Fall back to any actor of the class (variant missing in a
            # small scenario draw).
            candidates = [
                a for a in dataset.scenario.actors if a.app_class == app_class
            ]
        if candidates:
            # Lexicographic: window coverage first (quantized to 1/4 day
            # so it dominates), audience as the tiebreak — a half-window
            # burst must not outrank a full-window scanner just by size.
            chosen[label] = max(
                candidates,
                key=lambda a: (
                    round(coverage.get(a.originator, 0.0) * 4),
                    a.audience_size,
                ),
            ).originator
    return chosen


def run(preset: str = "default") -> list[CaseStudy]:
    dataset = get_dataset("JP-ditl", preset)
    directory = dataset.directory()
    window = SensorEngine().collect(
        dataset.sensor.log, 0.0, dataset.duration_seconds
    )
    context = WindowContext.from_window(window, directory)
    cases: list[CaseStudy] = []
    for label, originator in _pick_exemplars(dataset).items():
        observation = window.observations.get(originator)
        if observation is None or observation.footprint < 5:
            continue
        cases.append(
            CaseStudy(
                label=label,
                originator=originator,
                footprint=observation.footprint,
                static=static_feature_dict(observation, directory),
                dynamic=dynamic_feature_dict(observation, directory, context),
            )
        )
    return cases


def format_static(cases: list[CaseStudy]) -> str:
    """Fig 3 as a table: category fractions per case study."""
    from repro.experiments.common import format_rows
    from repro.sensor.keywords import STATIC_CATEGORIES

    shown = [c for c in STATIC_CATEGORIES]
    return format_rows(
        ["case"] + shown,
        [
            [c.label] + [f"{c.static[cat]:.2f}" for cat in shown]
            for c in cases
        ],
    )


def format_dynamic(cases: list[CaseStudy]) -> str:
    """Table II: queries/querier, entropies, queriers/country."""
    from repro.experiments.common import format_rows

    return format_rows(
        ["case", "queries/querier", "global entropy", "local entropy", "queriers/country"],
        [
            [
                c.label,
                f"{c.dynamic['dyn_queries_per_querier']:.1f}",
                f"{c.dynamic['dyn_global_entropy']:.2f}",
                f"{c.dynamic['dyn_local_entropy']:.2f}",
                f"{c.dynamic['dyn_queriers_per_country']:.4f}",
            ]
            for c in cases
        ],
    )


if __name__ == "__main__":
    results = run()
    print(format_static(results))
    print()
    print(format_dynamic(results))

"""Figure 7: training strategies over time on B-multi-year.

Compare train-once, train-daily (fixed labels, fresh features), and
automatic label growing.  Targets: train-once degrades away from the
curation day; train-daily sustains near-curation performance for months
(longer for benign-heavy periods); auto-grow collapses within weeks as
classification error compounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import windowed
from repro.sensor.engine import default_forest_factory
from repro.sensor.training import Strategy, TimeSeriesEvaluation, evaluate_strategy

__all__ = ["Fig7Result", "run", "format_table"]


@dataclass(slots=True)
class Fig7Result:
    curation_day: float
    evaluations: dict[Strategy, TimeSeriesEvaluation]


def run(
    preset: str = "default",
    dataset: str = "B-multi-year",
    stride: int = 7,
    seed: int = 0,
) -> Fig7Result:
    """Evaluate the three strategies on every *stride*-th window.

    B-multi-year uses one-day windows; evaluating weekly keeps the cost
    of three strategies × hundreds of windows manageable without
    changing the curves' shape.
    """
    analysis = windowed(dataset, preset)
    labeled = analysis.labeled
    if labeled is None or len(labeled) == 0:
        raise RuntimeError("no labeled set for strategy evaluation")
    windows = [
        (window.mid_day, window.features)
        for window in analysis.windows[::stride]
    ]
    curation_day = min(example.curated_day for example in labeled)
    evaluations = {
        strategy: evaluate_strategy(
            strategy,
            windows,
            labeled,
            default_forest_factory,
            curation_day=curation_day,
            seed=seed,
        )
        for strategy in Strategy
    }
    return Fig7Result(curation_day=curation_day, evaluations=evaluations)


def format_table(result: Fig7Result) -> str:
    from repro.experiments.common import format_rows

    rows = []
    for strategy, evaluation in result.evaluations.items():
        series = evaluation.f1_series()
        near = [f for d, f in series if abs(d - result.curation_day) <= 15]
        far = [f for d, f in series if d - result.curation_day >= 90]
        rows.append(
            [
                strategy.value,
                f"{evaluation.mean_f1():.2f}",
                f"{sum(near) / len(near):.2f}" if near else "-",
                f"{sum(far) / len(far):.2f}" if far else "-",
                f"{evaluation.trained_fraction():.2f}",
            ]
        )
    return format_rows(
        ["strategy", "mean f1", "f1 near curation", "f1 at +3mo", "windows trained"],
        rows,
    )


if __name__ == "__main__":
    print(format_table(run()))

"""Ablation: random-forest hyperparameters and retraining cadence.

DESIGN.md § 5: sweep ensemble size and depth, and compare retraining
every window against sparser cadences on the longitudinal data.
"""

from __future__ import annotations

from repro.experiments.common import format_rows, labeled_features, windowed
from repro.ml import ForestConfig, RandomForestClassifier, repeated_holdout
from repro.sensor.engine import default_forest_factory
from repro.sensor.training import Strategy, evaluate_strategy

REPEATS = 8


def test_ablation_forest_size(once):
    bundle = labeled_features("JP-ditl")

    def sweep():
        out = {}
        for n_trees in (5, 20, 60):
            summary = repeated_holdout(
                lambda s, n=n_trees: RandomForestClassifier(ForestConfig(n_trees=n), seed=s),
                bundle.X, bundle.y, bundle.n_classes, repeats=REPEATS,
            )
            out[n_trees] = summary
        return out

    results = once(sweep)
    print("\n" + format_rows(
        ["trees", "accuracy", "f1"],
        [[n, f"{s.accuracy_mean:.2f}", f"{s.f1_mean:.2f}"] for n, s in sorted(results.items())],
    ))
    # Bigger ensembles help up to saturation.
    assert results[60].accuracy_mean >= results[5].accuracy_mean - 0.02
    assert results[60].accuracy_std <= results[5].accuracy_std + 0.02


def test_ablation_forest_depth(once):
    bundle = labeled_features("JP-ditl")

    def sweep():
        out = {}
        for depth in (2, 6, 14):
            summary = repeated_holdout(
                lambda s, d=depth: RandomForestClassifier(
                    ForestConfig(n_trees=40, max_depth=d), seed=s
                ),
                bundle.X, bundle.y, bundle.n_classes, repeats=REPEATS,
            )
            out[depth] = summary
        return out

    results = once(sweep)
    print("\n" + format_rows(
        ["max depth", "accuracy", "f1"],
        [[d, f"{s.accuracy_mean:.2f}", f"{s.f1_mean:.2f}"] for d, s in sorted(results.items())],
    ))
    # Depth-2 stumps cannot carve 12 classes; normal depths can.
    assert results[14].accuracy_mean > results[2].accuracy_mean


def test_ablation_retrain_cadence(once):
    analysis = windowed("M-sampled")
    labeled = analysis.labeled

    def sweep():
        out = {}
        for stride in (1, 4):
            windows = [
                (w.mid_day, w.features) for w in analysis.windows[::stride]
            ]
            evaluation = evaluate_strategy(
                Strategy.TRAIN_DAILY, windows, labeled, default_forest_factory,
                majority_runs=1,
            )
            out[stride] = evaluation
        return out

    results = once(sweep)
    print("\n" + format_rows(
        ["retrain every N windows", "mean f1", "windows trained"],
        [
            [stride, f"{e.mean_f1():.2f}", f"{e.trained_fraction():.2f}"]
            for stride, e in sorted(results.items())
        ],
    ))
    # Retraining on every window is at least as good as sparser cadences.
    assert results[1].mean_f1() >= results[4].mean_f1() - 0.05

"""Cross-validation protocol from § IV-C and label handling.

The paper's protocol: pick a random 60% of the labeled ground truth for
training, test on the remaining 40%, repeat 50 times, and report the mean
and standard deviation of each metric per algorithm.  Non-deterministic
algorithms (RF, SVM) are additionally run 10 times per originator with
majority-vote classification (§ III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.ml.metrics import ClassificationReport, evaluate
from repro.telemetry import span

__all__ = [
    "Classifier",
    "LabelEncoder",
    "train_test_split",
    "HoldoutSummary",
    "repeated_holdout",
    "MajorityVoter",
    "fit_majority_vote",
    "majority_vote_predict",
]


class Classifier(Protocol):
    """The minimal interface all three algorithms implement."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


class LabelEncoder:
    """Bidirectional mapping between class names and integer labels."""

    def __init__(self, classes: Sequence[str] | None = None) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        if classes:
            for name in classes:
                self.add(name)

    def add(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
        return self._index[name]

    def encode(self, names: Sequence[str]) -> np.ndarray:
        try:
            return np.array([self._index[n] for n in names], dtype=int)
        except KeyError as exc:
            raise ValueError(f"unknown class {exc.args[0]!r}") from exc

    def decode(self, labels: Sequence[int]) -> list[str]:
        return [self._names[int(label)] for label in labels]

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index


def train_test_split(
    n: int,
    train_fraction: float,
    rng: np.random.Generator,
    stratify: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Index split; stratified per class when labels are given.

    Stratification keeps at least one training example per class whenever
    the class has any samples — without it, tiny classes like ``update``
    (6 labeled examples in JP-ditl) regularly vanish from training.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if stratify is None:
        order = rng.permutation(n)
        cut = max(1, int(round(n * train_fraction)))
        return np.sort(order[:cut]), np.sort(order[cut:])
    stratify = np.asarray(stratify)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for value in np.unique(stratify):
        members = np.nonzero(stratify == value)[0]
        members = members[rng.permutation(len(members))]
        cut = max(1, int(round(len(members) * train_fraction)))
        if cut == len(members) and len(members) > 1:
            cut -= 1
        train_parts.append(members[:cut])
        test_parts.append(members[cut:])
    return (
        np.sort(np.concatenate(train_parts)),
        np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=int),
    )


@dataclass(frozen=True, slots=True)
class HoldoutSummary:
    """Mean/std of each Table III metric over the repeated holdouts."""

    accuracy_mean: float
    accuracy_std: float
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    f1_mean: float
    f1_std: float
    repeats: int

    @classmethod
    def from_reports(cls, reports: Sequence[ClassificationReport]) -> "HoldoutSummary":
        rows = np.array(
            [[r.accuracy, r.precision, r.recall, r.f1] for r in reports], dtype=float
        )
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        return cls(
            accuracy_mean=float(mean[0]),
            accuracy_std=float(std[0]),
            precision_mean=float(mean[1]),
            precision_std=float(std[1]),
            recall_mean=float(mean[2]),
            recall_std=float(std[2]),
            f1_mean=float(mean[3]),
            f1_std=float(std[3]),
            repeats=len(reports),
        )


def repeated_holdout(
    factory: Callable[[int], Classifier],
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    repeats: int = 50,
    train_fraction: float = 0.6,
    seed: int = 0,
) -> HoldoutSummary:
    """The § IV-C protocol: 60/40 stratified splits, *repeats* times.

    ``factory`` builds a fresh classifier from a seed, so stochastic
    algorithms vary across repeats exactly as the paper's do.
    """
    rng = np.random.default_rng(seed)
    reports: list[ClassificationReport] = []
    for repeat in range(repeats):
        train, test = train_test_split(len(y), train_fraction, rng, stratify=y)
        if len(test) == 0:
            raise ValueError("holdout produced an empty test set")
        model = factory(int(rng.integers(2**63)))
        with span("classifier.fit"):
            model.fit(X[train], y[train])
        with span("classifier.predict"):
            predictions = model.predict(X[test])
        reports.append(evaluate(y[test], predictions, n_classes))
    return HoldoutSummary.from_reports(reports)


class MajorityVoter:
    """§ III-D's vote in fitted form: *runs* trained models, one tally.

    Built by :func:`fit_majority_vote`; ``predict`` trains nothing, so one
    voter serves every prediction made from the same training set.
    """

    __slots__ = ("models", "_fitted_on")

    def __init__(self, models: list[Classifier], fitted_on: tuple) -> None:
        self.models = models
        self._fitted_on = fitted_on

    def fitted_on(self, factory, X_train, y_train, runs: int, seed: int) -> bool:
        """Whether :func:`fit_majority_vote` built this voter from exactly
        these arguments — the factory and the arrays compared by identity."""
        factory0, X0, y0, *rest = self._fitted_on
        return (
            factory0 is factory and X0 is X_train and y0 is y_train
            and rest == [runs, seed]
        )

    def predict(self, X_test: np.ndarray) -> np.ndarray:
        """Majority label per row; ties go to the smallest tied label."""
        all_runs = []
        for model in self.models:
            with span("classifier.predict"):
                all_runs.append(model.predict(X_test))
        stacked = np.stack(all_runs, axis=0)
        n_rows = stacked.shape[1]
        if n_rows == 0:
            return np.empty(0, dtype=int)
        n_labels = int(stacked.max()) + 1
        cells = stacked + np.arange(n_rows) * n_labels
        votes = np.bincount(cells.ravel(), minlength=n_rows * n_labels)
        # argmax returns the first maximum: highest count, then smallest label.
        return np.argmax(votes.reshape(n_rows, n_labels), axis=1)


def fit_majority_vote(
    factory: Callable[[int], Classifier],
    X_train: np.ndarray,
    y_train: np.ndarray,
    runs: int = 10,
    seed: int = 0,
) -> MajorityVoter:
    """Train the *runs* models of one § III-D vote, seeded from *seed*."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(runs):
        model = factory(int(rng.integers(2**63)))
        with span("classifier.fit"):
            model.fit(X_train, y_train)
        models.append(model)
    return MajorityVoter(models, (factory, X_train, y_train, runs, seed))


def majority_vote_predict(
    factory: Callable[[int], Classifier],
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    runs: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """§ III-D: run a stochastic classifier *runs* times, majority label wins.

    Ties break toward the smallest tied label, which keeps the procedure
    deterministic for a fixed seed.  Callers that predict repeatedly from
    one training set keep the :func:`fit_majority_vote` voter instead.
    """
    return fit_majority_vote(factory, X_train, y_train, runs, seed).predict(X_test)

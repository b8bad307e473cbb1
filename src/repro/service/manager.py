"""Online model lifecycle: fit off the hot path, hot-swap at boundaries.

§ V's offline conclusion — retrain-daily tracks drift, auto-grow
compounds label error — becomes an operational loop here.  After each
closed window the :class:`ModelManager` assembles a candidate training
set per its :class:`~repro.sensor.training.Strategy` and fits that
model version's § III-D voting ensemble on a single-thread executor (the
event loop and ingest path never block on training), and the service
then calls :meth:`apply_pending` *between* windows: the swap is a plain
attribute install via ``engine.adopt_training`` + ``adopt_voter`` while
no window is in flight, so every event is classified by exactly one
complete, already-fitted model — window close only predicts — and none
is dropped while models change.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ml.validation import (
    Classifier,
    LabelEncoder,
    MajorityVoter,
    fit_majority_vote,
)
from repro.sensor.curation import LabeledSet
from repro.sensor.engine import SensedWindow, default_forest_factory
from repro.sensor.training import Strategy, enough_to_train, labeled_rows

__all__ = ["SWAP_OUTCOMES", "ModelManager", "TrainedModel"]

#: What became of a candidate model: ``apply_pending`` returns one of the
#: first three (or ``"none"``), ``observe_window`` reports ``"skipped"``.
SWAP_OUTCOMES = ("swapped", "rejected", "failed", "skipped")


@dataclass(frozen=True, slots=True)
class TrainedModel:
    """A fitted candidate ready to install: the classify-stage triple + vote."""

    X: np.ndarray
    y: np.ndarray
    encoder: LabelEncoder
    voter: MajorityVoter
    """Fitted on ``(X, y)`` with the manager's factory, runs and seed."""
    version: int


class ModelManager:
    """Builds, validates, and hands over classifier models between windows.

    Parameters
    ----------
    labeled:
        The curated labeled set.  Fixed ground truth for
        ``TRAIN_DAILY``; the seed (and only trusted) labels for
        ``AUTO_GROW``, whose subsequent labels are the engine's own
        verdicts (the paper's cautionary strategy — supported because
        § V evaluates it, not because it is wise).
    strategy:
        ``None`` or ``TRAIN_ONCE`` disables retraining entirely.
    factory, majority_runs, seed:
        The serving engine's own three: it refits, on its own thread, a
        vote handed over with any other.
    """

    def __init__(
        self,
        labeled: LabeledSet,
        strategy: Strategy | None,
        factory: Callable[[int], Classifier] = default_forest_factory,
        min_per_class: int = 3,
        min_total: int = 12,
        seed: int = 0,
        majority_runs: int = 10,
    ) -> None:
        self.labeled = labeled
        self.strategy = strategy
        self.factory = factory
        self.min_per_class = min_per_class
        self.min_total = min_total
        self.seed = seed
        self.majority_runs = majority_runs
        self.version = 0
        self._pending: Future[TrainedModel | None] | None = None
        self._executor: ThreadPoolExecutor | None = None

    @property
    def active(self) -> bool:
        """Whether this strategy retrains at all."""
        return self.strategy in (Strategy.TRAIN_DAILY, Strategy.AUTO_GROW)

    # -- candidate production -------------------------------------------

    def observe_window(self, sensed: SensedWindow) -> str:
        """Feed one closed window; maybe start a background fit.

        Returns ``"scheduled"``, ``"skipped"`` (a fit is still running —
        training slower than the window cadence), or ``"none"`` (inactive
        strategy or an unusable window).
        """
        if not self.active:
            return "none"
        features = sensed.features
        if features is None or len(features.originators) == 0:
            return "none"
        if self.strategy is Strategy.AUTO_GROW:
            verdicts = sensed.verdicts
            if not verdicts:
                return "none"
            labels = LabeledSet.from_pairs(
                (int(v.originator), v.app_class) for v in verdicts
            )
        else:
            labels = self.labeled
        if self._pending is not None and not self._pending.done():
            return "skipped"
        version = self.version + 1
        self._pending = self._ensure_executor().submit(self._build, features, labels, version)
        return "scheduled"

    def _build(
        self, features: object, labels: LabeledSet, version: int
    ) -> TrainedModel | None:
        encoder = LabelEncoder()
        X, y, _ = labeled_rows(features, labels, encoder)
        if not enough_to_train(y, self.min_per_class, self.min_total):
            return None
        # The candidate must train and predict cleanly before it is allowed
        # anywhere near the serving engine, which predicts with this voter.
        voter = fit_majority_vote(self.factory, X, y, self.majority_runs, self.seed)
        voter.predict(X[:1])
        return TrainedModel(X=X, y=y, encoder=encoder, voter=voter, version=version)

    # -- hand-over ------------------------------------------------------

    def apply_pending(self, engine: object) -> str:
        """Install a finished candidate, if any; called between windows.

        Returns ``"none"`` (nothing finished), ``"rejected"`` (candidate
        failed the § V-B training gate), ``"failed"`` (fit raised), or
        ``"swapped"`` (the engine now classifies with the new model).
        """
        if self._pending is None or not self._pending.done():
            return "none"
        future, self._pending = self._pending, None
        try:
            model = future.result()
        except Exception:
            return "failed"
        if model is None:
            return "rejected"
        engine.adopt_training(model.X, model.y, model.encoder)
        adopt_voter = getattr(engine, "adopt_voter", None)
        if adopt_voter is not None:  # stand-ins may hold only the triple
            adopt_voter(model.voter)
        self.version = model.version
        return "swapped"

    def wait_pending(self, timeout: float | None = None) -> None:
        """Block until any in-flight fit finishes (tests, shutdown)."""
        if self._pending is not None:
            try:
                self._pending.result(timeout=timeout)
            except Exception:
                pass

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="model-fit"
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ModelManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

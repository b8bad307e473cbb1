"""Random forest (Breiman 2001), the paper's best-performing classifier.

Bootstrap-resampled CART trees with per-node random feature subsampling
and majority voting.  ``feature_importances_`` averages the trees' Gini
decreases — exactly the statistic behind Table IV ("top discriminative
features ... as determined by Gini coefficient").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.cart import CartConfig, DecisionTreeClassifier, NodeTable

__all__ = ["ForestConfig", "RandomForestClassifier"]


@dataclass(frozen=True, slots=True)
class ForestConfig:
    """Ensemble size and per-tree growth rules."""

    n_trees: int = 60
    max_depth: int = 14
    min_samples_split: int = 4
    min_samples_leaf: int = 1
    max_features: int | str = "sqrt"
    """Features per node: an int, or ``"sqrt"`` for ceil(sqrt(n_features))."""
    bootstrap: bool = True


class RandomForestClassifier:
    """Voting ensemble of randomized CART trees."""

    def __init__(
        self,
        config: ForestConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config or ForestConfig()
        self._seed = seed
        self.nodes_: NodeTable | None = None
        """Every tree's nodes stacked into one table; the trees are not kept."""
        self.roots_: np.ndarray | None = None
        self.label_: np.ndarray | None = None
        """Majority class of every node; read at the leaves."""
        self.depth_: int = 0
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    def _resolve_max_features(self, n_features: int) -> int:
        raw = self.config.max_features
        if raw == "sqrt":
            return max(1, int(np.ceil(np.sqrt(n_features))))
        if isinstance(raw, int) and raw > 0:
            return min(raw, n_features)
        raise ValueError(f"bad max_features: {raw!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_classes_ = int(y.max()) + 1
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self._seed)
        tree_config = CartConfig(
            max_depth=self.config.max_depth,
            min_samples_split=self.config.min_samples_split,
            min_samples_leaf=self.config.min_samples_leaf,
            max_features=self._resolve_max_features(self.n_features_),
        )
        roots, tables, labels = [], [], []
        n_nodes = 0
        self.depth_ = 0
        importances = np.zeros(self.n_features_)
        n = len(X)
        for _ in range(self.config.n_trees):
            if self.config.bootstrap:
                sample = rng.integers(0, n, size=n)
                Xb, yb = X[sample], y[sample]
            else:
                Xb, yb = X, y
            tree = DecisionTreeClassifier(
                tree_config, rng=np.random.default_rng(rng.integers(2**63))
            )
            # A bootstrap sample can miss the largest label; pin the class
            # count so every tree's probability vectors align.
            tree.fit_with_classes(Xb, yb, self.n_classes_)
            feature, threshold, left, right = tree.nodes_
            roots.append(n_nodes)
            tables.append((feature, threshold, left + n_nodes, right + n_nodes))
            labels.append(np.argmax(tree.value_, axis=1))
            n_nodes += len(feature)
            self.depth_ = max(self.depth_, tree.depth_)
            importances += tree.feature_importances_
        self.nodes_ = NodeTable(*map(np.concatenate, zip(*tables)))
        self.roots_ = np.array(roots, dtype=np.intp)
        self.label_ = np.concatenate(labels)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Share of the trees voting for each class, per row of *X*."""
        if self.nodes_ is None:
            raise RuntimeError("classifier is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError("feature count mismatch")
        leaves = self.nodes_.descend(self.roots_, self.depth_, X)
        # One bincount over (row, label) pairs tallies all trees x rows.
        cells = self.label_[leaves] + np.arange(len(X)) * self.n_classes_
        votes = np.bincount(cells.ravel(), minlength=len(X) * self.n_classes_)
        return votes.reshape(len(X), self.n_classes_) / len(self.roots_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

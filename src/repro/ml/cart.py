"""CART decision tree (Breiman et al. 1984), one of the paper's classifiers.

Implemented from scratch on numpy: binary splits on feature thresholds
chosen to maximize Gini impurity decrease, depth/size stopping rules, and
per-feature accumulated impurity decrease (the "Gini coefficient" the paper
uses to rank discriminative features in Table IV).

The tree also supports per-node random feature subsampling so it can serve
as the base learner of the random forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["CartConfig", "DecisionTreeClassifier", "NodeTable"]


@dataclass(frozen=True, slots=True)
class CartConfig:
    """Stopping rules and split behaviour for one tree."""

    max_depth: int = 12
    min_samples_split: int = 4
    min_samples_leaf: int = 2
    max_features: int | None = None
    """Features considered per node; ``None`` means all (plain CART)."""


class NodeTable(NamedTuple):
    """Fitted trees as flat arrays, one entry per node.

    Node *i* sends a row left when ``x[feature[i]] <= threshold[i]``; a
    leaf is its own left and right child.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def descend(self, roots: np.ndarray, depth: int, X: np.ndarray) -> np.ndarray:
        """Leaf reached by every row of *X* from every root: (roots, rows).

        *depth* level-synchronous numpy steps over all roots x rows; a row
        that reaches its leaf early stays there.
        """
        n_rows, n_features = X.shape
        flat = X.ravel()
        offset = np.arange(n_rows) * n_features
        node = np.repeat(roots, n_rows).reshape(len(roots), n_rows)
        for _ in range(depth):
            go_left = flat[offset + self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


class DecisionTreeClassifier:
    """A CART classifier over dense float feature matrices.

    ``fit(X, y)`` expects ``y`` as integer labels in [0, n_classes); use
    :class:`repro.ml.validation.LabelEncoder` to map class names.  After
    fitting, ``feature_importances_`` holds the total Gini decrease per
    feature, normalized to sum to 1 (0 when no split was made).
    """

    def __init__(
        self,
        config: CartConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or CartConfig()
        self._rng = rng or np.random.default_rng(0)
        self.nodes_: NodeTable | None = None
        """The fitted tree in pre-order: node 0 is the root."""
        self.value_: np.ndarray | None = None
        """Class-probability vector of every node; read at the leaves."""
        self.depth_: int = 0
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self._raw_importance: np.ndarray | None = None

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        y = np.asarray(y, dtype=int)
        if len(y) == 0:
            raise ValueError("cannot fit on empty data")
        return self.fit_with_classes(X, y, int(y.max()) + 1)

    def fit_with_classes(
        self, X: np.ndarray, y: np.ndarray, n_classes: int
    ) -> "DecisionTreeClassifier":
        """Fit with an explicit class count.

        Needed by the random forest: a bootstrap sample may omit the
        highest label, but every tree's probability vectors must span the
        ensemble's full class set.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        if y.min() < 0:
            raise ValueError("labels must be non-negative integers")
        if n_classes <= int(y.max()):
            raise ValueError("n_classes smaller than max label")
        self.n_classes_ = n_classes
        self.n_features_ = X.shape[1]
        self._raw_importance = np.zeros(self.n_features_)
        self.depth_ = 0
        nodes: list[tuple[int, float, int, int]] = []
        values: list[np.ndarray] = []
        self._build(X, y, 0, nodes, values)
        feature, threshold, left, right = zip(*nodes)
        self.nodes_ = NodeTable(
            np.array(feature, dtype=np.intp), np.array(threshold, dtype=float),
            np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
        )
        self.value_ = np.stack(values)
        total = self._raw_importance.sum()
        self.feature_importances_ = (
            self._raw_importance / total if total > 0 else self._raw_importance.copy()
        )
        return self

    def _build(
        self, X: np.ndarray, y: np.ndarray, depth: int, nodes: list, values: list
    ) -> int:
        """Grow the subtree over (X, y) in pre-order; returns its node index.

        Appends one ``(feature, threshold, left, right)`` row to *nodes*
        and one class-probability vector to *values* per node.
        """
        counts = np.bincount(y, minlength=self.n_classes_).astype(float)
        index = len(nodes)
        nodes.append((0, 0.0, index, index))
        values.append(counts / counts.sum())
        self.depth_ = max(self.depth_, depth)
        if (
            depth >= self.config.max_depth
            or len(y) < self.config.min_samples_split
            or counts.max() == counts.sum()  # pure node
        ):
            return index
        split = self._best_split(X, y, counts)
        if split is None:
            return index
        feature, threshold, gain = split
        mask = X[:, feature] <= threshold
        self._raw_importance[feature] += gain * len(y)
        left = self._build(X[mask], y[mask], depth + 1, nodes, values)
        right = self._build(X[~mask], y[~mask], depth + 1, nodes, values)
        nodes[index] = (feature, threshold, left, right)
        return index

    def _candidate_features(self) -> np.ndarray:
        if (
            self.config.max_features is None
            or self.config.max_features >= self.n_features_
        ):
            return np.arange(self.n_features_)
        return self._rng.choice(
            self.n_features_, size=self.config.max_features, replace=False
        )

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, counts: np.ndarray
    ) -> tuple[int, float, float] | None:
        """The (feature, threshold, gini_gain) with maximal gain, or None."""
        parent_gini = _gini(counts)
        n = len(y)
        min_leaf = self.config.min_samples_leaf
        best: tuple[int, float, float] | None = None
        best_gain = 1e-12
        onehot = np.zeros((n, self.n_classes_))
        onehot[np.arange(n), y] = 1.0
        for feature in self._candidate_features():
            order = np.argsort(X[:, feature], kind="stable")
            values = X[order, feature]
            if values[0] == values[-1]:
                continue
            # Prefix class counts after each potential split position i
            # (left side = first i+1 samples in sorted order).
            prefix = np.cumsum(onehot[order], axis=0)
            left_n = np.arange(1, n + 1)
            # Valid split positions: value changes and both sides big enough.
            boundary = values[:-1] < values[1:]
            position = np.nonzero(boundary)[0]
            if len(position) == 0:
                continue
            position = position[
                (left_n[position] >= min_leaf) & (n - left_n[position] >= min_leaf)
            ]
            if len(position) == 0:
                continue
            left_counts = prefix[position]
            right_counts = counts[None, :] - left_counts
            ln = left_n[position][:, None]
            rn = n - left_n[position][:, None]
            left_gini = 1.0 - ((left_counts / ln) ** 2).sum(axis=1)
            right_gini = 1.0 - ((right_counts / rn) ** 2).sum(axis=1)
            weighted = (ln[:, 0] * left_gini + rn[:, 0] * right_gini) / n
            gains = parent_gini - weighted
            arg = int(np.argmax(gains))
            if gains[arg] > best_gain:
                best_gain = float(gains[arg])
                index = position[arg]
                # Split on the left value itself (predicate: x <= threshold).
                # A midpoint can round up to the right value for adjacent
                # floats, which would send every sample left and create an
                # empty child.
                threshold = float(values[index])
                best = (int(feature), threshold, best_gain)
        return best

    # ------------------------------------------------------------------

    def _fitted(self) -> NodeTable:
        if self.nodes_ is None:
            raise RuntimeError("classifier is not fitted")
        return self.nodes_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        nodes = self._fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError("feature count mismatch")
        return self.value_[nodes.descend(np.zeros(1, dtype=np.intp), self.depth_, X)[0]]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a stump/leaf-only tree)."""
        self._fitted()
        return self.depth_

    @property
    def node_count(self) -> int:
        return len(self._fitted().feature)

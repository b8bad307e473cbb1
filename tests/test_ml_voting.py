"""The fitted § III-D vote and the flat-array trees under it.

Three kinds of check, none of which compares two live implementations:

* ``data/majority_vote_golden.json`` holds what ``majority_vote_predict``
  returned, one list per ``GOLDEN_CASES`` row, with the ``src`` of the
  last commit that refitted every model on every call and walked
  ``_Node`` objects row by row (252226b) on ``PYTHONPATH``.  Only the
  outputs are stored; :func:`golden_inputs` regenerates the inputs.
* properties: a fitted voter predicts the same thing however often it is
  asked, and exactly what a fresh ``majority_vote_predict`` returns.
* the scalar root-to-leaf walk lives here, as the oracle the vectorized
  descent is compared with.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    CartConfig,
    DecisionTreeClassifier,
    ForestConfig,
    RandomForestClassifier,
    fit_majority_vote,
    majority_vote_predict,
)

GOLDEN = Path(__file__).parent / "data" / "majority_vote_golden.json"

FACTORIES = {
    "forest60": lambda seed: RandomForestClassifier(ForestConfig(n_trees=60), seed=seed),
    "forest9": lambda seed: RandomForestClassifier(ForestConfig(n_trees=9), seed=seed),
    "forest-deep-leafy": lambda seed: RandomForestClassifier(
        ForestConfig(n_trees=7, max_depth=3, min_samples_leaf=3, max_features=2),
        seed=seed,
    ),
    "cart": lambda seed: DecisionTreeClassifier(
        CartConfig(max_features=2), rng=np.random.default_rng(seed)
    ),
}

GOLDEN_CASES = [
    # (factory, data seed, train rows, test rows, features, classes, runs, vote seed)
    ("forest60", 1, 64, 300, 12, 4, 10, 0),
    ("forest9", 2, 40, 410, 5, 3, 10, 7),
    ("forest9", 3, 25, 80, 3, 6, 4, 2**40 + 5),
    ("forest-deep-leafy", 4, 60, 200, 6, 5, 5, 3),
    ("cart", 5, 50, 150, 4, 3, 6, 11),
    ("forest9", 6, 12, 60, 2, 2, 2, 1),
]


def golden_inputs(data_seed, n_train, n_test, n_features, n_classes):
    """Class blobs rounded to one decimal, so feature values repeat a lot
    (ties in the split search, test values equal to thresholds) and the
    top label is rare (bootstraps miss it)."""
    rng = np.random.default_rng(data_seed)
    y = rng.integers(0, n_classes - 1, size=n_train)
    y[:2] = n_classes - 1
    X = np.round(rng.normal(loc=y[:, None] * 0.8, size=(n_train, n_features)), 1)
    X_test = np.round(rng.normal(loc=1.0, scale=1.5, size=(n_test, n_features)), 1)
    # Test rows copied from training rows sit exactly on thresholds.
    X_test[: n_train // 2] = X[: n_train // 2]
    return X, y, X_test


class TestMajorityVote:
    def test_golden_vectors_from_the_refit_every_call_code(self):
        golden = json.loads(GOLDEN.read_text())
        assert len(golden) == len(GOLDEN_CASES)
        for case, want in zip(GOLDEN_CASES, golden):
            name, data_seed, n_train, n_test, n_features, n_classes, runs, seed = case
            X, y, X_test = golden_inputs(data_seed, n_train, n_test, n_features, n_classes)
            voter = fit_majority_vote(FACTORIES[name], X, y, runs, seed)
            for _ in range(3):
                assert voter.predict(X_test).tolist() == want, case
            # A voter answers for any test set, not just the first it saw.
            assert voter.predict(X_test[::-1]).tolist() == want[::-1], case

    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32),
        n_train=st.integers(6, 40),
        n_test=st.integers(0, 30),
        n_features=st.integers(1, 5),
        n_classes=st.integers(2, 5),
        runs=st.integers(1, 6),
        seed=st.integers(0, 2**62),
        k=st.integers(2, 4),
    )
    def test_fitted_voter_repeats_a_fresh_vote(
        self, data_seed, n_train, n_test, n_features, n_classes, runs, seed, k
    ):
        X, y, X_test = golden_inputs(
            data_seed, n_train, max(n_test, n_train // 2), n_features, n_classes
        )
        X_test = X_test[:n_test]
        factory = FACTORIES["forest9"]
        voter = fit_majority_vote(factory, X, y, runs, seed)
        for _ in range(k):
            fresh = majority_vote_predict(factory, X, y, X_test, runs=runs, seed=seed)
            assert fresh.dtype.kind == "i" and fresh.shape == (n_test,)
            assert (voter.predict(X_test) == fresh).all()

    def test_five_five_tie_goes_to_the_smallest_label(self):
        class Constant:
            def __init__(self, label):
                self.label = label

            def fit(self, X, y):
                return self

            def predict(self, X):
                return np.full(len(X), self.label)

        # Runs alternate 3, 1, 3, 1, ...: label 3 reaches every count first,
        # both end on five votes, and the smaller label wins.
        labels = iter([3, 1] * 5)
        votes = majority_vote_predict(
            lambda seed: Constant(next(labels)),
            np.zeros((2, 1)), np.zeros(2, dtype=int), np.zeros((4, 1)), runs=10,
        )
        assert votes.tolist() == [1, 1, 1, 1]
        # A sixth vote beats the tie rule.
        labels = iter([3, 1] * 4 + [3, 3])
        votes = majority_vote_predict(
            lambda seed: Constant(next(labels)),
            np.zeros((2, 1)), np.zeros(2, dtype=int), np.zeros((4, 1)), runs=10,
        )
        assert votes.tolist() == [3, 3, 3, 3]

    def test_fitted_on_is_exact(self):
        X, y, _ = golden_inputs(1, 20, 10, 3, 3)
        factory = FACTORIES["cart"]
        voter = fit_majority_vote(factory, X, y, 2, 5)
        assert voter.fitted_on(factory, X, y, 2, 5)
        assert not voter.fitted_on(factory, X.copy(), y, 2, 5)
        assert not voter.fitted_on(factory, X, y.copy(), 2, 5)
        assert not voter.fitted_on(FACTORIES["forest9"], X, y, 2, 5)
        assert not voter.fitted_on(factory, X, y, 3, 5)
        assert not voter.fitted_on(factory, X, y, 2, 6)


# -- the scalar oracle ------------------------------------------------------


def walk(nodes, root, row):
    """Root-to-leaf walk over a node table: one row, one branch at a time."""
    node = root
    while nodes.left[node] != node:
        if row[nodes.feature[node]] <= nodes.threshold[node]:
            node = nodes.left[node]
        else:
            node = nodes.right[node]
    return node


def tree_proba_by_walk(tree, X):
    return np.array([tree.value_[walk(tree.nodes_, 0, row)] for row in X])


def forest_proba_by_walk(forest, X):
    votes = np.zeros((len(X), forest.n_classes_))
    for root in forest.roots_:
        for i, row in enumerate(X):
            votes[i, forest.label_[walk(forest.nodes_, root, row)]] += 1.0
    return votes / len(forest.roots_)


class TestFlatTrees:
    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32),
        n_train=st.integers(4, 60),
        n_features=st.integers(1, 6),
        n_classes=st.integers(2, 6),
        max_depth=st.integers(0, 8),
    )
    def test_tree_equals_the_walk(self, data_seed, n_train, n_features, n_classes, max_depth):
        X, y, X_test = golden_inputs(data_seed, n_train, 40, n_features, n_classes)
        tree = DecisionTreeClassifier(CartConfig(max_depth=max_depth)).fit(X, y)
        assert tree.depth <= max_depth
        assert (tree.predict_proba(X_test) == tree_proba_by_walk(tree, X_test)).all()
        assert (
            tree.predict(X_test) == tree_proba_by_walk(tree, X_test).argmax(axis=1)
        ).all()

    @settings(max_examples=15, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32),
        n_train=st.integers(4, 40),
        n_features=st.integers(1, 6),
        n_classes=st.integers(2, 6),
        seed=st.integers(0, 2**32),
    )
    def test_forest_equals_the_walk(self, data_seed, n_train, n_features, n_classes, seed):
        X, y, X_test = golden_inputs(data_seed, n_train, 30, n_features, n_classes)
        forest = RandomForestClassifier(ForestConfig(n_trees=8), seed=seed).fit(X, y)
        want = forest_proba_by_walk(forest, X_test)
        assert (forest.predict_proba(X_test) == want).all()
        assert (forest.predict(X_test) == want.argmax(axis=1)).all()

    def test_row_on_the_threshold_goes_left(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(CartConfig(min_samples_leaf=1)).fit(X, y)
        assert tree.node_count == 3 and tree.nodes_.threshold[0] == 1.0
        probe = np.array([[1.0], [np.nextafter(1.0, 2.0)]])
        assert tree.predict(probe).tolist() == [0, 1]
        assert (tree.predict_proba(probe) == tree_proba_by_walk(tree, probe)).all()

    def test_single_leaf_trees(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 1, 2, 1, 0])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.node_count == 1 and tree.depth == 0
        assert tree.predict(np.zeros((3, 2))).tolist() == [1, 1, 1]
        forest = RandomForestClassifier(ForestConfig(n_trees=5), seed=0).fit(X, y)
        assert len(forest.nodes_.feature) == 5 and forest.depth_ == 0
        probe = np.zeros((3, 2))
        assert (forest.predict_proba(probe) == forest_proba_by_walk(forest, probe)).all()

    def test_bootstrap_that_misses_the_top_label(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
        y = np.array([0, 0, 0, 0, 2])
        forest = RandomForestClassifier(ForestConfig(n_trees=30), seed=1).fit(X, y)
        probe = np.array([[-1.0], [3.0], [3.5], [10.0], [11.0]])
        proba = forest.predict_proba(probe)
        assert proba.shape == (5, 3) and (proba[:, 1] == 0).all()
        assert (proba == forest_proba_by_walk(forest, probe)).all()
        # Some tree never saw label 2, some did.
        assert 0 < proba[3, 2] < 1

    def test_forest_rejects_wrong_width(self):
        forest = RandomForestClassifier(ForestConfig(n_trees=3), seed=0).fit(
            np.zeros((4, 2)), np.array([0, 1, 0, 1])
        )
        with pytest.raises(ValueError):
            forest.predict(np.zeros((2, 3)))

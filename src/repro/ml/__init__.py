"""From-scratch machine learning: CART, random forest, kernel SVM, metrics.

These are the three algorithms the paper compares in Table III, plus the
evaluation protocol of § IV-C.  No external ML dependency is used.
"""

from repro.ml.cart import CartConfig, DecisionTreeClassifier
from repro.ml.forest import ForestConfig, RandomForestClassifier
from repro.ml.importance import permutation_importance
from repro.ml.metrics import (
    ClassificationReport,
    ClassMetrics,
    confusion_matrix,
    evaluate,
)
from repro.ml.svm import BinarySvm, SvmClassifier, SvmConfig
from repro.ml.validation import (
    HoldoutSummary,
    LabelEncoder,
    MajorityVoter,
    fit_majority_vote,
    majority_vote_predict,
    repeated_holdout,
    train_test_split,
)

__all__ = [
    "CartConfig",
    "DecisionTreeClassifier",
    "ForestConfig",
    "RandomForestClassifier",
    "permutation_importance",
    "ClassificationReport",
    "ClassMetrics",
    "confusion_matrix",
    "evaluate",
    "BinarySvm",
    "SvmClassifier",
    "SvmConfig",
    "HoldoutSummary",
    "LabelEncoder",
    "MajorityVoter",
    "fit_majority_vote",
    "majority_vote_predict",
    "repeated_holdout",
    "train_test_split",
]

"""Static features: querier-name category fractions (§ III-C).

For each originator, the fraction of its unique queriers whose reverse
names fall into each keyword category.  Fractions (not absolute counts)
make static features independent of query rate, as the paper requires;
by construction each originator's static vector sums to exactly 1.
"""

from __future__ import annotations

import numpy as np

from repro.sensor.collection import OriginatorObservation
from repro.sensor.directory import QuerierDirectory
from repro.sensor.keywords import STATIC_CATEGORIES, classify_querier

__all__ = ["STATIC_FEATURE_NAMES", "static_features", "static_feature_dict"]

STATIC_FEATURE_NAMES: tuple[str, ...] = tuple(
    f"static_{category}" for category in STATIC_CATEGORIES
)


def static_features(
    observation: OriginatorObservation, directory: QuerierDirectory
) -> np.ndarray:
    """Category-fraction vector over the observation's unique queriers.

    The scalar reference: each querier's row comes from
    ``directory.lookup`` and is classified here, independently of the
    directory's columns.
    """
    queriers = observation.unique_queriers
    if not queriers:
        raise ValueError("observation has no queriers")
    counts = np.zeros(len(STATIC_CATEGORIES))
    for addr in queriers:
        info = directory.lookup(addr)
        counts[STATIC_CATEGORIES.index(classify_querier(info.name, info.status))] += 1.0
    return counts / counts.sum()


def static_feature_dict(
    observation: OriginatorObservation, directory: QuerierDirectory
) -> dict[str, float]:
    """Same vector keyed by category name, for reports and case studies."""
    vector = static_features(observation, directory)
    return dict(zip(STATIC_CATEGORIES, vector.tolist()))

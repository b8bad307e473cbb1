"""Dynamic features: temporal and spatial querier patterns (§ III-C).

Nine features per originator:

* ``queries_per_querier`` — mean deduped queries per unique querier
  (a rough rate proxy; caching prevents an exact rate, Table II);
* ``persistence`` — fraction of 10-minute periods of the observation
  interval in which the originator appears (the paper counts periods;
  we normalize by the interval's period count so the feature is
  comparable across 36-hour and 7-day windows);
* ``local_entropy`` — normalized Shannon entropy of querier /24 prefixes;
* ``global_entropy`` — normalized Shannon entropy of querier /8 prefixes
  (/8s are assigned geographically, so this captures global spread);
* ``unique_as`` / ``unique_country`` — distinct querier ASes/countries,
  normalized by how many appear in the whole window (so the feature
  reflects the originator's share of the observable world);
* ``queriers_per_country`` / ``queriers_per_as`` — mean unique queriers
  per country/AS, normalized by the window's total unique queriers
  (high values mean geographically/topologically concentrated activity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netmodel.addressing import slash8, slash24
from repro.sensor.collection import ObservationWindow, OriginatorObservation
from repro.sensor.directory import QuerierDirectory

__all__ = [
    "PERIOD_SECONDS",
    "DYNAMIC_FEATURE_NAMES",
    "WindowContext",
    "dynamic_features",
    "dynamic_feature_dict",
]

PERIOD_SECONDS = 600.0

DYNAMIC_FEATURE_NAMES: tuple[str, ...] = (
    "dyn_queries_per_querier",
    "dyn_persistence",
    "dyn_local_entropy",
    "dyn_global_entropy",
    "dyn_unique_as",
    "dyn_unique_country",
    "dyn_queriers_per_country",
    "dyn_queriers_per_as",
)


@dataclass(frozen=True, slots=True)
class WindowContext:
    """Window-wide totals used to normalize the spatial features."""

    start: float
    end: float
    total_ases: int
    total_countries: int
    total_queriers: int

    @property
    def periods(self) -> int:
        return max(1, int(np.ceil((self.end - self.start) / PERIOD_SECONDS)))

    @classmethod
    def from_window(
        cls, window: ObservationWindow, directory: QuerierDirectory
    ) -> "WindowContext":
        addrs = window.querier_addrs()
        _, asns, country_codes = directory.codes(addrs)
        return cls(
            start=window.start,
            end=window.end,
            total_ases=max(1, len(np.unique(asns[asns >= 0]))),
            total_countries=max(1, len(np.unique(country_codes[country_codes >= 0]))),
            total_queriers=max(1, len(addrs)),
        )


def _normalized_entropy(values: list[int], support: int | None = None) -> float:
    """Shannon entropy of the empirical distribution, scaled to [0, 1].

    Normalized by ``log(min(n, support))`` — the maximum entropy
    achievable with n samples over a *support*-sized alphabet — so that
    an even spread gives 1.0 and a single repeated value 0.0.  The /8
    global entropy passes support=256 (the /8 alphabet is the binding
    constraint for large querier sets); the /24 local entropy leaves it
    unbounded (distinct /24s vastly outnumber queriers).  A single
    sample is defined as 0 (no spread to measure).
    """
    n = len(values)
    if n <= 1:
        return 0.0
    _, counts = np.unique(np.asarray(values), return_counts=True)
    probabilities = counts / n
    entropy = float(-(probabilities * np.log(probabilities)).sum())
    ceiling = float(np.log(min(n, support) if support else n))
    return min(1.0, entropy / ceiling) if ceiling > 0 else 0.0


def dynamic_features(
    observation: OriginatorObservation,
    directory: QuerierDirectory,
    context: WindowContext,
) -> np.ndarray:
    """The eight dynamic features for one originator.

    The scalar reference: each querier's AS and country come from
    ``directory.lookup``, independently of the directory's columns.
    """
    queriers = sorted(observation.unique_queriers)
    if not queriers:
        raise ValueError("observation has no queriers")
    n_queriers = len(queriers)
    queries_per_querier = observation.query_count / n_queriers

    # A timestamp exactly at window.end would index period `periods` —
    # one past the last real period — so clamp to the final period.
    periods = {
        min(int((ts - context.start) // PERIOD_SECONDS), context.periods - 1)
        for ts in observation.timestamps
    }
    persistence = len(periods) / context.periods

    local_entropy = _normalized_entropy([slash24(a) for a in queriers])
    global_entropy = _normalized_entropy([slash8(a) for a in queriers], support=256)

    ases: set[int] = set()
    countries: set[str] = set()
    for addr in queriers:
        info = directory.lookup(addr)
        if info.asn is not None:
            ases.add(info.asn)
        if info.country is not None:
            countries.add(info.country)
    n_ases = max(1, len(ases))
    n_countries = max(1, len(countries))
    return np.array(
        [
            queries_per_querier,
            persistence,
            local_entropy,
            global_entropy,
            len(ases) / context.total_ases,
            len(countries) / context.total_countries,
            (n_queriers / n_countries) / context.total_queriers,
            (n_queriers / n_ases) / context.total_queriers,
        ]
    )


def dynamic_feature_dict(
    observation: OriginatorObservation,
    directory: QuerierDirectory,
    context: WindowContext,
) -> dict[str, float]:
    """Same vector keyed by feature name."""
    vector = dynamic_features(observation, directory, context)
    return dict(zip(DYNAMIC_FEATURE_NAMES, vector.tolist()))

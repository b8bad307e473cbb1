"""repro — DNS backscatter sensing, a reproduction of Fukuda, Heidemann &
Qadeer, *Detecting Malicious Activity with DNS Backscatter Over Time*
(IMC 2015 / IEEE-ToN 2017).

Quickstart::

    from repro import LabeledSet, SensorEngine, get_dataset

    dataset = get_dataset("JP-ditl", preset="tiny")
    engine = SensorEngine(dataset.directory())
    window = engine.collect(
        list(dataset.sensor.log), 0.0, dataset.duration_seconds
    )
    features = engine.featurize(window)
    truth = dataset.true_classes()
    labeled = LabeledSet.from_pairs(
        (int(o), truth[int(o)]) for o in features.originators if int(o) in truth
    )
    engine.fit(features, labeled)
    for verdict in engine.classify(features)[:10]:
        print(verdict)

To watch where volume and wall time go, pass a metrics registry and
export it afterwards::

    from repro import MetricsRegistry, write_metrics

    registry = MetricsRegistry()
    engine = SensorEngine(dataset.directory(), registry=registry)
    ...
    write_metrics(registry, "metrics.prom")

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.netmodel` — synthetic Internet (addresses, ASes, geography,
  reverse-name conventions, querier population);
* :mod:`repro.dnssim` — DNS substrate (caches, zones, resolvers,
  authorities-as-sensors);
* :mod:`repro.activity` — the 12 application-class workload models;
* :mod:`repro.sensor` — the paper's contribution: backscatter → features
  → classification → training over time;
* :mod:`repro.ml` — CART / random forest / kernel SVM from scratch;
* :mod:`repro.groundtruth` — darknets, DNSBLs, label curation;
* :mod:`repro.datasets` — Table I dataset specs and generation;
* :mod:`repro.analysis` — footprints, trends, teams, consistency, caching;
* :mod:`repro.experiments` — one runnable module per paper table/figure;
* :mod:`repro.telemetry` — dependency-free metrics + span tracing for
  the sensing pipeline.

The names exported here (and from :mod:`repro.sensor`) are the curated
public surface; ``tests/test_public_api.py`` keeps them in sync with
docs/API.md, so additions and removals must touch both.
"""

from repro.activity import APPLICATION_CLASSES, BENIGN_CLASSES, MALICIOUS_CLASSES
from repro.datasets import DATASET_SPECS, generate_dataset, get_dataset, spec_for
from repro.ml import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    SvmClassifier,
)
from repro.sensor import (
    ANALYZABLE_THRESHOLD,
    FEATURE_NAMES,
    ClassifiedOriginator,
    EnrichmentCache,
    FrozenDirectory,
    LabeledExample,
    LabeledSet,
    SensedWindow,
    SensorConfig,
    SensorEngine,
    StageStats,
    classify_name,
    extract_features,
)
from repro.netmodel import World, WorldConfig
from repro.telemetry import (
    MetricsRegistry,
    span,
    use_registry,
    write_metrics,
)

__version__ = "1.0.0"

__all__ = [
    "APPLICATION_CLASSES",
    "BENIGN_CLASSES",
    "MALICIOUS_CLASSES",
    "DATASET_SPECS",
    "generate_dataset",
    "get_dataset",
    "spec_for",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "SvmClassifier",
    "ANALYZABLE_THRESHOLD",
    "FEATURE_NAMES",
    "ClassifiedOriginator",
    "EnrichmentCache",
    "FrozenDirectory",
    "LabeledExample",
    "LabeledSet",
    "SensedWindow",
    "SensorConfig",
    "SensorEngine",
    "StageStats",
    "classify_name",
    "extract_features",
    "World",
    "WorldConfig",
    "MetricsRegistry",
    "span",
    "use_registry",
    "write_metrics",
    "__version__",
]

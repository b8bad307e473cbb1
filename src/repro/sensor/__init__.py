"""The DNS backscatter sensor: the paper's core contribution (§ III).

Collection → selection → features → classification → training-over-time,
consuming only (originator, querier, timestamp) tuples plus querier
metadata, exactly as the published system does.
"""

from repro.sensor.collection import (
    DEDUP_WINDOW_SECONDS,
    ObservationWindow,
    OriginatorObservation,
    dedup_entries,
)
from repro.sensor.curation import (
    MIN_EXAMPLES_PER_CLASS,
    MIN_TOTAL_EXAMPLES,
    LabeledExample,
    LabeledSet,
)
from repro.sensor.directory import (
    EnrichmentCache,
    FrozenDirectory,
    QuerierDirectory,
    QuerierInfo,
    world_directory,
)
from repro.sensor.engine import (
    STAGE_NAMES,
    ClassifiedOriginator,
    SensedWindow,
    SensorConfig,
    SensorEngine,
    StageStats,
    default_forest_factory,
)
from repro.sensor.dynamic import (
    DYNAMIC_FEATURE_NAMES,
    PERIOD_SECONDS,
    WindowContext,
    dynamic_feature_dict,
    dynamic_features,
)
from repro.sensor.features import (
    FEATURE_NAMES,
    FeatureSet,
    extract_features,
    feature_vector,
    features_from_selected,
)
from repro.sensor.keywords import (
    CATEGORY_KEYWORDS,
    STATIC_CATEGORIES,
    SUFFIX_CATEGORIES,
    classify_name,
    classify_querier,
)
from repro.sensor.reorder import ReorderFront
from repro.sensor.report import WindowReport, build_report, render_report
from repro.sensor.selection import (
    ANALYZABLE_THRESHOLD,
    analyzable,
    rank_by_footprint,
    top_n,
)
from repro.sensor.streaming import StreamingCollector, StreamingStats
from repro.sensor.static import (
    STATIC_FEATURE_NAMES,
    static_feature_dict,
    static_features,
)
from repro.sensor.training import (
    Strategy,
    TimeSeriesEvaluation,
    WindowScore,
    enough_to_train,
    evaluate_strategy,
    labeled_rows,
)

__all__ = [
    "DEDUP_WINDOW_SECONDS",
    "ObservationWindow",
    "OriginatorObservation",
    "dedup_entries",
    "MIN_EXAMPLES_PER_CLASS",
    "MIN_TOTAL_EXAMPLES",
    "LabeledExample",
    "LabeledSet",
    "EnrichmentCache",
    "FrozenDirectory",
    "QuerierDirectory",
    "QuerierInfo",
    "world_directory",
    "DYNAMIC_FEATURE_NAMES",
    "PERIOD_SECONDS",
    "WindowContext",
    "dynamic_feature_dict",
    "dynamic_features",
    "FEATURE_NAMES",
    "FeatureSet",
    "extract_features",
    "feature_vector",
    "features_from_selected",
    "CATEGORY_KEYWORDS",
    "STATIC_CATEGORIES",
    "SUFFIX_CATEGORIES",
    "classify_name",
    "classify_querier",
    "ClassifiedOriginator",
    "default_forest_factory",
    "STAGE_NAMES",
    "SensedWindow",
    "SensorConfig",
    "SensorEngine",
    "StageStats",
    "WindowReport",
    "build_report",
    "render_report",
    "ANALYZABLE_THRESHOLD",
    "analyzable",
    "rank_by_footprint",
    "top_n",
    "ReorderFront",
    "StreamingCollector",
    "StreamingStats",
    "STATIC_FEATURE_NAMES",
    "static_feature_dict",
    "static_features",
    "Strategy",
    "TimeSeriesEvaluation",
    "WindowScore",
    "evaluate_strategy",
    "labeled_rows",
    "enough_to_train",
]

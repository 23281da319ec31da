"""trailmine: mine browsing-behavior types from web access logs.

The pipeline parses access logs, filters bot traffic, maps requests to
a finite action vocabulary, splits each user's actions into sessions,
fits a teleportation-smoothed first-order Markov chain per user, and
clusters the stationary distributions into behavior types. Resources
can then be compared by the behavior mix they attract. A seeded
synthetic log generator provides ground truth for end-to-end checks.
"""

__version__ = "0.1.0"

from .logs import (
    FilterConfig,
    InvalidTimestamp,
    MalformedLine,
    RequestRecord,
    default_filter_config,
    format_log_line,
    parse_log_line,
)
from .actions import (
    ActionLabel,
    ActionVocabulary,
    MappingRule,
    RuleSet,
    compile_ruleset,
    default_ruleset,
)
from .sessions import TraceSet, UsageStats, build_traces
from .markov import (
    FeatureMatrix,
    build_feature_matrix,
    build_transition_model,
    count_transitions,
    page_view_vector,
    stationary_distribution,
)
from .cluster import (
    ClusterModel,
    ElbowCurve,
    explained_variance_curve,
    kmeans_fit,
    profile_clusters,
)
from .pca import PcaModel, pca_fit, pca_project, pca_reconstruct
from .compare import (
    ResourceProfile,
    TransitionDiff,
    aggregate_cluster_actions,
    extract_resource_traces,
    project_resources,
    transition_diff,
)
from .synth import ArchetypeSpec, GroundTruth, default_archetypes, generate_synthetic_log
from .pipeline import PipelineConfig, run_pipeline

"""trailmine: mine browsing-behavior types from web access logs.

The pipeline parses access logs, filters bot traffic, maps requests to
a finite action vocabulary, splits each user's actions into sessions,
fits a teleportation-smoothed first-order Markov chain per user, and
clusters the stationary distributions into behavior types. Resources
can then be compared by the behavior mix they attract. A seeded
synthetic log generator provides ground truth for end-to-end checks.

Each name below is imported from its module on first use (PEP 562), so
``import trailmine`` loads no NumPy and :mod:`trailmine.cli` can pin the
BLAS threads before NumPy starts them.
"""

import importlib

__version__ = "0.1.0"

# the module of each re-exported name, in the order the names are listed
_MODULES = {
    "logs": ("FilterConfig", "InvalidTimestamp", "MalformedLine", "RequestRecord", "default_filter_config",
             "format_log_line", "parse_log_line"),
    "actions": ("ActionLabel", "ActionVocabulary", "MappingRule", "RuleSet", "compile_ruleset",
                "default_ruleset"),
    "sessions": ("TraceSet", "UsageStats", "build_traces"),
    "markov": ("FeatureMatrix", "build_feature_matrix", "build_transition_model", "count_transitions",
               "page_view_vector", "stationary_distribution"),
    "cluster": ("ClusterModel", "ElbowCurve", "explained_variance_curve", "kmeans_fit", "profile_clusters"),
    "pca": ("PcaModel", "pca_fit", "pca_project", "pca_reconstruct"),
    "compare": ("ResourceProfile", "TransitionDiff", "aggregate_cluster_actions", "extract_resource_traces",
                "project_resources", "transition_diff"),
    "synth": ("ArchetypeSpec", "GroundTruth", "default_archetypes", "generate_synthetic_log"),
    "pipeline": ("PipelineConfig", "run_pipeline"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value

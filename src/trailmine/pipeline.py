"""Pipeline orchestration: ingest, traces, features, clusters, comparison.

Each stage is one function (``stage_ingest`` ... ``stage_compare``) that
takes a :class:`RunRecord` plus its inputs, writes its artifacts in the
documented file formats, sets its manifest entry in the record and
returns its result. :func:`run_pipeline` calls them in order through one
record and saves it as ``manifest.json``; each ``trailmine`` subcommand
calls the same functions on inputs read back from disk, so long runs can
be resumed per stage.

Ingest is :mod:`trailmine.ingest`, and the file formats that stages
write and read are :mod:`trailmine.formats`.
"""

from __future__ import annotations

import json
import time
from dataclasses import Field, asdict, dataclass, field, fields
from configparser import ConfigParser
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .actions import RuleSet, compile_ruleset, default_ruleset
from .cluster import (
    ClusterModel,
    ElbowCurve,
    KTooLarge,
    explained_variance_curve,
    kmeans_fit,
    profile_clusters,
)
from .compare import (
    ResourceProfile,
    TooFewResources,
    aggregate_cluster_actions,
    extract_resource_traces,
    project_resources,
    transition_diff,
)
from .formats import (
    write_cluster_outputs,
    write_compare_outputs,
    write_elbow_csv,
    write_feature_csv,
    write_pca_outputs,
    write_traces_jsonl,
    write_usage_stats,
)
from .helpers import check_jobs
# the stages call these names bare, and perfbench/spans.py wraps them (EventBatch too) here
from .ingest import EventBatch, ingest_paths
from .logs import (
    CompiledFilter,
    FilterConfig,
    MalformedLine,
    default_filter_config,
    line_pattern,
    load_list_file,
)
from .markov import FEATURE_KINDS, FeatureMatrix, build_feature_matrix
from .pca import PcaModel, pca_fit, pca_project
from .sessions import DEFAULT_GAP_MINUTES, TraceSet, build_traces

__all__ = [
    "PipelineConfig",
    "PipelineStageError",
    "RunRecord",
    "run_pipeline",
    "parse_k_range",
    "setting_parser",
    "stage_ingest",
    "stage_sessionize",
    "stage_features",
    "stage_elbow",
    "stage_cluster",
    "stage_pca",
    "stage_compare",
]


class PipelineStageError(RuntimeError):
    """A stage failed; partial outputs from earlier stages are retained."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# configuration and full run


def parse_k_range(text: str) -> tuple[int, int]:
    """An elbow K range written ``LO:HI``, ``LO..HI`` or ``LO HI``."""
    bounds = text.replace(":", " ").replace("..", " ").split()
    if len(bounds) != 2:
        raise ValueError(f"K range {text!r} is not LO:HI")
    return int(bounds[0]), int(bounds[1])


# the text parser of each PipelineConfig annotation (a string under
# ``from __future__ import annotations``) for its INI key and its flag;
# any other annotation is text
_SETTING_PARSERS: dict[str, Callable[[str], object]] = {
    "float": float,
    "int": int,
    "int | None": int,
    "list[str]": str.split,
    "tuple[int, int]": parse_k_range,
}


def setting_parser(f: Field) -> Callable[[str], object]:
    """How an INI value or a command-line flag of the config field ``f`` is read."""
    return _SETTING_PARSERS.get(f.type, str)


@dataclass
class PipelineConfig:
    """Every knob of the pipeline; defaults follow the standard set-up."""

    logs: list[str] = field(default_factory=list)
    out_dir: str = "trailmine_out"
    log_format: str = "combined"
    rules: str | None = None
    ua_blacklist: str | None = None
    ip_blacklist: str | None = None
    asset_patterns: str | None = None
    gap_minutes: float = DEFAULT_GAP_MINUTES
    alpha: float = 0.15
    feature_kind: str = "stationary"
    k: int | None = None          # None: use the elbow knee
    k_range: tuple[int, int] = (1, 25)
    seed: int = 0
    restarts: int = 10
    pca_components: int = 3
    threshold_pct: float = 20.0
    top_actions: int = 10
    top_resources: int = 50
    jobs: int = 1

    @classmethod
    def from_ini(cls, path: str | Path) -> "PipelineConfig":
        parser = ConfigParser()
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        section = parser["pipeline"] if parser.has_section("pipeline") else parser["DEFAULT"]
        unknown = sorted(set(section) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
        cfg = cls()
        for f in fields(cls):
            if f.name in section:
                try:
                    value = setting_parser(f)(section[f.name])
                except ValueError as exc:
                    raise ValueError(f"{f.name}: {exc}") from exc
                setattr(cfg, f.name, value)
        return cfg

    def validate(self) -> None:
        """Reject, by name, a setting that would fail a stage partway or reshape its input."""
        line_pattern(self.log_format)  # raises for an unknown format
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.feature_kind!r}")
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.gap_minutes > 0:
            raise ValueError(f"gap_minutes must be > 0, got {self.gap_minutes}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        lo, hi = self.k_range
        if not 1 <= lo <= hi:
            raise ValueError(f"k_range must be LO:HI with 1 <= LO <= HI, got {lo}:{hi}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.pca_components < 1:
            raise ValueError(f"pca_components must be >= 1, got {self.pca_components}")
        if not 0 <= self.threshold_pct <= 100:
            raise ValueError(f"threshold_pct must lie in [0, 100], got {self.threshold_pct}")
        if self.top_actions < 1:
            raise ValueError(f"top_actions must be >= 1, got {self.top_actions}")
        if self.top_resources < 1:
            raise ValueError(f"top_resources must be >= 1, got {self.top_resources}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        check_jobs(self.jobs)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["k_range"] = list(self.k_range)
        return d

    def filter_config(self) -> FilterConfig:
        """The shipped lists, each replaced by the list file set for it."""
        base = default_filter_config()
        if self.ua_blacklist is not None:
            base.useragent_blacklist = load_list_file(self.ua_blacklist)
        if self.ip_blacklist is not None:
            base.ip_blacklist = load_list_file(self.ip_blacklist)
        if self.asset_patterns is not None:
            base.drop_asset_patterns = load_list_file(self.asset_patterns)
        return base


class RunRecord:
    """What one run did: its config, rules and filter, each stage's entry and the files written.

    The rules are compiled once, here, unless ``rules`` is false (the
    ``pca`` subcommand reads none), and so is the filter when the config
    has logs to ingest (:func:`stage_ingest` is its only reader), so a
    bad rules or list file fails before any file is written. Stages
    set their entry in ``stages``, and writers name each file they write
    in the out dir through :meth:`path`, so ``outputs`` lists the files
    in the order they were written. The out dir is made when the first
    file needs it.
    """

    def __init__(self, config: PipelineConfig, rules: bool = True):
        self.config = config
        self.ruleset: RuleSet | None = None
        if rules:
            self.ruleset = compile_ruleset(config.rules) if config.rules else default_ruleset()
        self.filt: CompiledFilter | None = config.filter_config().compile() if config.logs else None
        self.stages: dict[str, dict] = {}
        self.outputs: list[str] = []

    def path(self, name: str) -> Path:
        """The out-dir path of ``name``, now listed among the outputs."""
        out_dir = Path(self.config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return out_dir / name

    def run(self, stage: str, fn: Callable, *inputs, **options):
        """``fn(self, *inputs, **options)``, timed into the entry it sets.

        A failure saves ``manifest.partial.json`` and raises :class:`PipelineStageError`.
        """
        t0 = time.perf_counter()
        try:
            result = fn(self, *inputs, **options)
        except Exception as exc:
            self.save("manifest.partial.json")
            raise PipelineStageError(stage, exc) from exc
        self.stages[stage] = {"seconds": round(time.perf_counter() - t0, 3), **self.stages[stage]}
        return result

    def manifest(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "versions": {"trailmine": __version__, "numpy": np.__version__},
            "stages": self.stages,
            "outputs": list(self.outputs),
        }

    def save(self, name: str) -> None:
        """Write the manifest as ``name``; its outputs are the files written before it."""
        manifest = self.manifest()
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)


# ---------------------------------------------------------------------------
# stages: each takes the run record plus its inputs, writes its artifacts
# through the record, sets its entry in record.stages and returns its result


def stage_ingest(record: RunRecord) -> EventBatch:
    """Parse, filter and map ``config.logs``; the entry is the funnel."""
    config = record.config
    batch, stats = ingest_paths(
        config.logs, ruleset=record.ruleset, filt=record.filt,
        log_format=config.log_format, jobs=config.jobs,
    )
    if stats.parsed == 0:
        raise MalformedLine("no parseable lines in input")
    record.stages["ingest"] = stats.funnel()
    return batch


def stage_sessionize(record: RunRecord, batch: EventBatch) -> TraceSet:
    """Traces (``traces.jsonl``) and usage statistics of an event batch."""
    traces, usage = build_traces(batch, record.ruleset.vocabulary.break_id, record.config.gap_minutes)
    write_traces_jsonl(traces, record.path("traces.jsonl"))
    write_usage_stats(usage, record)
    record.stages["sessionize"] = {"users": len(traces), "sessions": usage.session_count}
    return traces


def stage_features(
    record: RunRecord, traces: TraceSet, path: Path | None = None, for_pca: bool = False,
) -> FeatureMatrix:
    """The feature matrix, written to ``path`` (default: ``features.csv``).

    ``for_pca`` fails a corpus of one user before any file is written; one of none fails at the elbow.
    """
    if for_pca and len(traces):
        _check_pca_users(len(traces))
    config, vocab = record.config, record.ruleset.vocabulary
    features = build_feature_matrix(
        traces, vocab.n,
        feature_kind=config.feature_kind, alpha=config.alpha, label_names=vocab.names(),
    )
    write_feature_csv(features, record.path("features.csv") if path is None else path)
    record.stages["features"] = {
        "users": features.m, "kind": config.feature_kind,
        "max_residual": features.max_residual, "lstsq_fallbacks": features.fallbacks,
    }
    return features


def stage_elbow(record: RunRecord, features: FeatureMatrix) -> ElbowCurve:
    """The explained-variance curve over ``config.k_range``, cut at the user count.

    ``config.jobs`` processes share the restarts. The entry names the
    range used after the cut and the processes that ran.
    """
    config = record.config
    lo, hi = config.k_range[0], min(config.k_range[1], features.m)
    if 0 < features.m < lo:  # no users at all raises EmptyMatrix in the curve
        raise KTooLarge(f"k_range starts at K={lo}, above the {features.m} users")
    curve = explained_variance_curve(
        features, range(lo, hi + 1), seed=config.seed, restarts=config.restarts, jobs=config.jobs,
    )
    write_elbow_csv(curve, record.path("elbow.csv"))
    fits = [{"K": K, **model.diagnostics()} for K, model in curve.models.items()]
    record.stages["elbow"] = {
        "knee": curve.knee, "k_range_used": [lo, hi], "processes": curve.processes, "fits": fits,
    }
    return curve


def stage_cluster(
    record: RunRecord, features: FeatureMatrix, traces: TraceSet | None, curve: ElbowCurve,
) -> ClusterModel:
    """K-means at ``config.k`` (default: the knee); profiles need ``traces``.

    The elbow's fit of K is reused; it has the same features, seed and
    restarts. K is fitted here only when the curve holds no fit of it.
    """
    config = record.config
    K = config.k if config.k is not None else (curve.knee or 1)
    model = curve.models.get(K)
    if model is None:
        model = kmeans_fit(features, K, seed=config.seed, restarts=config.restarts)
    profiles = []
    if traces is not None:
        profiles = profile_clusters(features, model, traces, record.ruleset.vocabulary.break_id)
    write_cluster_outputs(features, model, profiles, record)
    record.stages["cluster"] = {"K": K, "inertia": model.inertia, **model.diagnostics()}
    return model


def _check_pca_users(users: int) -> None:
    if users < 2:
        raise ValueError(f"PCA needs at least 2 users, got {users}")


def stage_pca(record: RunRecord, features: FeatureMatrix, assignments: dict[str, int] | None) -> PcaModel:
    """Principal components of the features; ``assignments`` color the coordinates."""
    _check_pca_users(features.m)
    pca_model = pca_fit(features.X, min(record.config.pca_components, features.m, features.n))
    coords = pca_project(pca_model, features.X)
    clusters = None
    if assignments is not None:
        clusters = np.array([assignments.get(u, -1) for u in features.user_ids])
    write_pca_outputs(features, pca_model, coords, clusters, record)
    record.stages["pca"] = {"components": pca_model.r}
    return pca_model


def stage_compare(
    record: RunRecord, traces: TraceSet, assignments: dict[str, int], K: int,
    pair: Sequence[str] | None = None,
) -> list[ResourceProfile]:
    """Resource profiles, the transition diff of ``pair`` and the resource map.

    ``pair`` defaults to the two most visited resources; naming a
    resource without attributed users raises :class:`TooFewResources`.
    The map is skipped when the top ``config.top_resources`` cut leaves
    fewer than two resources.
    """
    config, vocab = record.config, record.ruleset.vocabulary
    resource_rows = extract_resource_traces(
        traces, threshold_pct=config.threshold_pct, break_label=vocab.break_id,
    )
    profiles = aggregate_cluster_actions(traces, resource_rows, assignments, K, vocab.n, vocab.break_id)
    by_name = {p.resource: p for p in profiles}
    if pair is None:
        pair = [p.resource for p in profiles[:2]]
    missing = [name for name in pair if name not in by_name]
    if missing:
        raise TooFewResources(f"no attributed users for resource(s): {', '.join(missing)}")
    diff = None
    if len(pair) == 2:
        diff = transition_diff(
            by_name[pair[0]], by_name[pair[1]], alpha=config.alpha, top_t=config.top_actions,
        )
    try:
        projection = project_resources(
            profiles, top_m=config.top_resources, r=config.pca_components,
        )
    except TooFewResources:
        projection = None
    write_compare_outputs(profiles, diff, projection, vocab.names(), record)
    record.stages["compare"] = {"resources": len(profiles)}
    return profiles


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and write all artifacts plus a run manifest.

    Returns the manifest dict. Stage failures raise
    :class:`PipelineStageError`; outputs of completed stages stay on
    disk, and the manifest written so far is preserved as
    ``manifest.partial.json``. An invalid config raises ``ValueError``
    before any stage runs or any file is written; so does a rules or
    list file that does not compile, and a missing one raises ``OSError``
    there. A one-user corpus, too small for PCA, fails before ``features.csv``.
    """
    config.validate()
    record = RunRecord(config)
    batch = record.run("ingest", stage_ingest)
    traces = record.run("sessionize", stage_sessionize, batch)
    features = record.run("features", stage_features, traces, for_pca=True)
    curve = record.run("elbow", stage_elbow, features)
    model = record.run("cluster", stage_cluster, features, traces, curve)
    assignments = dict(zip(features.user_ids, (int(c) for c in model.assignments)))
    record.run("pca", stage_pca, features, assignments)
    record.run("compare", stage_compare, traces, assignments, model.K)
    record.save("manifest.json")
    return record.manifest()

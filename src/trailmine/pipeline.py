"""Pipeline orchestration: ingest, traces, features, clusters, comparison.

Each stage is one function (``stage_ingest`` ... ``stage_compare``) that
takes a :class:`PipelineConfig` plus its inputs, writes its artifacts in
the documented file formats and returns its manifest entry.
:func:`run_pipeline` calls them in order, and each ``trailmine``
subcommand calls the same functions on inputs read back from disk, so
long runs can be resumed per stage.

Ingest has one per-line loop, :func:`_ingest_lines`, for every route.
Parsing and mapping are pure per line, so ingestion can fan out over
worker processes; per-user ordering is restored afterwards by the stable
(user, timestamp) sort of :func:`~trailmine.sessions.build_traces`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields, asdict
from configparser import ConfigParser
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, Iterable, Sequence
from urllib.parse import unquote

import numpy as np

from . import __version__
from .actions import RuleSet, compile_ruleset, default_ruleset
from .cluster import (
    ClusterModel,
    ClusterProfile,
    ElbowCurve,
    explained_variance_curve,
    kmeans_fit,
    profile_clusters,
)
from .compare import (
    ATTRIBUTION_NOTE,
    ResourceProfile,
    TooFewResources,
    aggregate_cluster_actions,
    extract_resource_traces,
    project_resources,
    transition_diff,
)
from .logs import (
    CompiledFilter,
    FilterConfig,
    MalformedLine,
    _split_request,
    default_filter_config,
    line_pattern,
    load_list_file,
    open_log,
    parse_clf_timestamp,
    parse_log_line,
)
from .markov import FeatureMatrix, build_feature_matrix
from .pca import PcaModel, loading_extremes, pca_fit, pca_project
from .sessions import DEFAULT_GAP_MINUTES, TraceSet, build_traces

__all__ = [
    "PipelineConfig",
    "PipelineStageError",
    "IngestStats",
    "EventBatch",
    "ingest_paths",
    "build_traces",
    "run_pipeline",
    "write_traces_jsonl",
    "read_traces_jsonl",
    "write_feature_csv",
    "read_feature_csv",
    "read_assignments_csv",
    "parse_k_range",
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


@dataclass
class IngestStats:
    """Reduction funnel counters: parsed >= filtered >= mapped."""

    lines: int = 0
    parsed: int = 0
    malformed: int = 0
    dropped_useragent: int = 0
    dropped_ip: int = 0
    dropped_asset: int = 0
    unmapped: int = 0
    events: int = 0

    @property
    def filtered(self) -> int:
        """Records surviving the blacklists."""
        return self.parsed - self.dropped_useragent - self.dropped_ip - self.dropped_asset

    def merge(self, other: "IngestStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def funnel(self) -> dict[str, int]:
        """The counters in funnel order, ``filtered`` after the drops."""
        d = asdict(self)
        d["filtered"] = self.filtered
        for key in ("unmapped", "events"):
            d[key] = d.pop(key)
        return d


@dataclass
class EventBatch:
    """Columnar mapped events in input order.

    Users and ontology acronyms are factorized into string pools plus
    code arrays (ontology code -1 means no attribution), which keeps
    million-event batches cheap to move between worker processes.
    """

    user_pool: list[str]
    user_codes: np.ndarray
    timestamps: np.ndarray
    labels: np.ndarray
    onto_pool: list[str]
    onto_codes: np.ndarray

    def __len__(self) -> int:
        return len(self.user_codes)

    @classmethod
    def merge(cls, parts: Sequence["EventBatch"]) -> "EventBatch":
        """Concatenate parts in order, remapping codes into shared pools."""
        if len(parts) == 1:
            return parts[0]
        user_pool: dict[str, int] = {}
        onto_pool: dict[str, int] = {}
        ucodes, ocodes = [], []
        for part in parts:
            umap = np.array(
                [user_pool.setdefault(u, len(user_pool)) for u in part.user_pool],
                dtype=np.int64,
            )
            omap = np.array(
                [onto_pool.setdefault(o, len(onto_pool)) for o in part.onto_pool],
                dtype=np.int64,
            )
            ucodes.append(umap[part.user_codes])
            ocodes.append(np.append(omap, -1)[part.onto_codes])  # code -1 stays -1
        columns = (ucodes, [p.timestamps for p in parts], [p.labels for p in parts], ocodes)
        # the trailing empty array makes merge([]) an empty batch
        user_codes, timestamps, labels, onto_codes = (
            np.concatenate(column + [np.empty(0, dtype=np.int64)]) for column in columns
        )
        return cls(list(user_pool), user_codes, timestamps, labels, list(onto_pool), onto_codes)


def _ingest_lines(
    lines: Iterable[str],
    ruleset: RuleSet,
    filt: CompiledFilter,
    log_format: str,
    user_key: Callable | None = None,
) -> tuple[EventBatch, IngestStats]:
    """Fused parse + filter + map loop over raw lines (the hot path).

    The user is the IP field unless ``user_key`` is given; it is applied
    to the parsed :class:`RequestRecord` of each mapped line.
    """
    stats = IngestStats()
    user_pool: dict[str, int] = {}
    onto_pool: dict[str, int] = {}
    ucodes: list[int] = []
    ts_list: list[int] = []
    label_list: list[int] = []
    ocodes: list[int] = []
    line_re = line_pattern(log_format)
    combined = log_format == "combined"
    drop_reason = filt.drop_reason
    match_rule = ruleset.match
    for line in lines:
        stats.lines += 1
        m = line_re.match(line)
        if m is None:
            stats.malformed += 1
            continue
        g = m.groups()
        try:
            epoch = parse_clf_timestamp(g[3])
            method, raw_path, _ = _split_request(g[4])
        except MalformedLine:
            stats.malformed += 1
            continue
        stats.parsed += 1
        path = unquote(raw_path) if "%" in raw_path else raw_path
        ua = g[8] if combined else ""
        reason = drop_reason(ua, g[0], path)
        if reason is not None:
            if reason == "useragent":
                stats.dropped_useragent += 1
            elif reason == "ip":
                stats.dropped_ip += 1
            else:
                stats.dropped_asset += 1
            continue
        hit = match_rule(method, path)
        if hit is None:
            stats.unmapped += 1
            continue
        user = g[0] if user_key is None else user_key(parse_log_line(line, log_format))
        code = user_pool.get(user)
        if code is None:
            code = user_pool.setdefault(user, len(user_pool))
        ucodes.append(code)
        ts_list.append(epoch)
        label_list.append(hit[0])
        onto = hit[1]
        if onto is None:
            ocodes.append(-1)
        else:
            ocode = onto_pool.get(onto)
            if ocode is None:
                ocode = onto_pool.setdefault(onto, len(onto_pool))
            ocodes.append(ocode)
    stats.events = len(ucodes)
    batch = EventBatch(
        user_pool=list(user_pool),
        user_codes=np.asarray(ucodes, dtype=np.int64),
        timestamps=np.asarray(ts_list, dtype=np.int64),
        labels=np.asarray(label_list, dtype=np.int64),
        onto_pool=list(onto_pool),
        onto_codes=np.asarray(ocodes, dtype=np.int64),
    )
    return batch, stats


# worker-process state for parallel ingestion, set up once per worker
_WORKER: dict = {}


def _worker_init(ruleset: RuleSet, filter_cfg: FilterConfig, log_format: str) -> None:
    _WORKER["ruleset"] = ruleset
    _WORKER["filter"] = filter_cfg.compile()
    _WORKER["format"] = log_format


def _worker_ingest(task: tuple[str, int, int]):
    path, start, end = task
    with open(path, "rb") as fh:
        fh.seek(start)
        blob = fh.read(end - start)
    # The line rule of open_log: lines end at b"\n" only (str.splitlines
    # would also split on \x0c, \x1c-\x1e, \x85, \u2028 and \u2029). No
    # UTF-8 sequence contains that byte, so splitting the decoded text on
    # "\n" splits the bytes before decoding, replacement characters included.
    lines = blob.decode("utf-8", errors="replace").split("\n")
    if lines and not lines[-1]:
        lines.pop()  # the range's final newline ends a line, it starts none
    batch, stats = _ingest_lines(lines, _WORKER["ruleset"], _WORKER["filter"], _WORKER["format"])
    # already factorized: pickles as small string pools plus index arrays
    return batch, asdict(stats)


def _chunk_file(path: str, jobs: int) -> list[tuple[str, int, int]]:
    """Byte ranges aligned to line boundaries."""
    size = os.path.getsize(path)
    if size == 0:
        return []
    approx = max(1, size // jobs)
    offsets = [0]
    with open(path, "rb") as fh:
        for i in range(1, jobs):
            fh.seek(min(i * approx, size))
            fh.readline()
            pos = fh.tell()
            if pos >= size:
                break
            if pos > offsets[-1]:
                offsets.append(pos)
    bounds = offsets + [size]
    return [(path, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def ingest_paths(
    paths: Sequence[str | Path],
    ruleset: RuleSet | None = None,
    filter_config: FilterConfig | None = None,
    log_format: str = "combined",
    jobs: int = 1,
    user_key: Callable | None = None,
) -> tuple[EventBatch, IngestStats]:
    """Parse, filter and map log files into an event batch.

    ``jobs > 1`` fans plain-text files out over worker processes
    (gzip files fall back to in-process parsing). ``user_key`` maps the
    :class:`RequestRecord` of each mapped line to its user (default: the
    IP field). Every route runs the same loop, :func:`_ingest_lines`; a
    ``user_key`` run parses in-process, since a lambda cannot be sent to
    a worker. Raises ``ValueError`` for an unknown ``log_format``.
    """
    line_pattern(log_format)  # reject an unknown format even when no line is read
    ruleset = ruleset or default_ruleset()
    cfg = filter_config or default_filter_config()
    filt = cfg.compile()

    parts: list[EventBatch] = []
    stats = IngestStats()
    plain = [str(p) for p in paths if not str(p).endswith(".gz")]
    gz = [str(p) for p in paths if str(p).endswith(".gz")]

    if jobs > 1 and plain and user_key is None:
        tasks: list[tuple[str, int, int]] = []
        for p in plain:
            tasks.extend(_chunk_file(p, jobs * 4))  # fine chunks even out load
        with Pool(
            processes=jobs,
            initializer=_worker_init,
            initargs=(ruleset, cfg, log_format),
        ) as pool:
            for part, st in pool.map(_worker_ingest, tasks):
                parts.append(part)
                stats.merge(IngestStats(**st))
        plain = []

    for p in plain + gz:
        with open_log(p) as fh:
            part, part_stats = _ingest_lines(fh, ruleset, filt, log_format, user_key)
        parts.append(part)
        stats.merge(part_stats)
    batch = EventBatch.merge(parts)
    return batch, stats


# ---------------------------------------------------------------------------
# file formats


def write_traces_jsonl(traces: TraceSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in traces.rows():
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")


def read_traces_jsonl(path: str | Path) -> TraceSet:
    with open(path, encoding="utf-8") as fh:
        return TraceSet.from_rows(json.loads(line) for line in fh)


def write_feature_csv(features: FeatureMatrix, path: str | Path) -> None:
    names = features.label_names or [f"label_{i}" for i in range(features.n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user," + ",".join(names) + "\n")
        for uid, row in zip(features.user_ids, features.X):
            fh.write(uid + "," + ",".join(map(repr, row.tolist())) + "\n")


def read_feature_csv(path: str | Path) -> FeatureMatrix:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        names = header[1:]
        user_ids, rows = [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            user_ids.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    X = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    return FeatureMatrix(user_ids, X, "unknown", names)


def read_assignments_csv(path: str | Path) -> dict[str, int]:
    """User to cluster, as ``write_cluster_outputs`` wrote ``assignments.csv``."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            user, cluster = line.rstrip("\n").rsplit(",", 1)
            out[user] = int(cluster)
    return out


def _write_histogram_csv(hist: dict[int, int], path: Path, value_name: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{value_name},count\n")
        for value in sorted(hist):
            fh.write(f"{value},{hist[value]}\n")


def write_usage_stats(stats, out_dir: Path) -> list[str]:
    """Plain-text report plus one CSV per histogram; returns file names."""
    files = []
    report = out_dir / "usage_stats.txt"
    with open(report, "w", encoding="utf-8") as fh:
        fh.write("corpus usage statistics\n")
        fh.write(f"users: {stats.users}\n")
        fh.write(f"events: {stats.total_events}\n")
        fh.write(f"sessions: {stats.session_count}\n")
        fh.write(f"single_request_sessions: {stats.single_request_sessions}\n")
        fh.write(f"mean_session_duration_s: {stats.mean_session_duration:.3f}\n")
        fh.write(f"median_session_duration_s: {stats.median_session_duration:.1f}\n")
        fh.write("note: a 1-event session has duration 0 s\n")
    files.append(report.name)
    for name, hist in (
        ("inter_request_seconds", stats.inter_request_seconds),
        ("requests_per_user", stats.requests_per_user),
        ("ontologies_per_user", stats.ontologies_per_user),
        ("requests_per_session", stats.requests_per_session),
    ):
        p = out_dir / f"hist_{name}.csv"
        _write_histogram_csv(hist, p, name)
        files.append(p.name)
    return files


def write_cluster_outputs(
    features: FeatureMatrix,
    model: ClusterModel,
    profiles: list[ClusterProfile],
    out_dir: Path,
) -> list[str]:
    files = []
    names = features.label_names or [f"label_{i}" for i in range(features.n)]
    p = out_dir / "assignments.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("user,cluster\n")
        for uid, c in zip(features.user_ids, model.assignments):
            fh.write(f"{uid},{int(c)}\n")
    files.append(p.name)
    p = out_dir / "centroids.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("cluster," + ",".join(names) + "\n")
        for k, row in enumerate(model.centroids):
            fh.write(f"{k}," + ",".join(map(repr, row.tolist())) + "\n")
    files.append(p.name)
    p = out_dir / "cluster_profiles.txt"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(f"behavior clusters (K={model.K}, inertia={model.inertia!r})\n")
        for prof in profiles:
            fh.write(
                f"cluster {prof.cluster}: {prof.size} users, "
                f"avg {prof.mean_actions:.1f} actions (median {prof.median_actions:g})\n"
            )
            top_actions = np.argsort(-prof.action_histogram, kind="stable")[:5]
            acts = ", ".join(
                f"{names[i]} ({int(prof.action_histogram[i])})"
                for i in top_actions
                if prof.action_histogram[i] > 0
            )
            fh.write(f"  top actions: {acts}\n")
            trans = ", ".join(
                f"{names[a]} -> {names[b]} ({c})" for a, b, c in prof.top_transitions[:5]
            )
            fh.write(f"  top transitions: {trans}\n")
    files.append(p.name)
    for prof in profiles:
        p = out_dir / f"cluster_{prof.cluster}_actions.csv"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("label,count\n")
            for i, cnt in enumerate(prof.action_histogram):
                fh.write(f"{names[i]},{int(cnt)}\n")
        files.append(p.name)
    return files


def write_elbow_csv(curve, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("K,explained_variance\n")
        for k, ev in curve.points:
            fh.write(f"{k},{repr(float(ev))}\n")


def write_pca_outputs(features: FeatureMatrix, model, coords, assignments, out_dir: Path) -> list[str]:
    files = []
    names = features.label_names or [f"label_{i}" for i in range(features.n)]
    p = out_dir / "pca_loadings.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"PC{i + 1}" for i in range(model.r)) + "\n")
        for j, name in enumerate(names):
            fh.write(name + "," + ",".join(map(repr, model.components[:, j].tolist())) + "\n")
    files.append(p.name)
    p = out_dir / "pca_coordinates.csv"
    with open(p, "w", encoding="utf-8") as fh:
        header = "id," + ",".join(f"PC{i + 1}" for i in range(model.r))
        if assignments is not None:
            header += ",cluster"
        fh.write(header + "\n")
        for i, uid in enumerate(features.user_ids):
            row = uid + "," + ",".join(map(repr, coords[i].tolist()))
            if assignments is not None:
                row += f",{int(assignments[i])}"
            fh.write(row + "\n")
    files.append(p.name)
    p = out_dir / "pca_report.txt"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("principal components over behavior features\n")
        for i, (ratio, cum) in enumerate(zip(model.explained_variance_ratio, model.cumulative_ratio)):
            fh.write(f"PC{i + 1}: variance ratio {ratio:.4f}, cumulative {cum:.4f}\n")
        for ext in loading_extremes(model, names):
            fh.write(
                f"PC{ext['component']}: largest {ext['largest']} "
                f"({ext['largest_coefficient']:+.4f}), smallest {ext['smallest']} "
                f"({ext['smallest_coefficient']:+.4f})\n"
            )
    files.append(p.name)
    return files


def write_compare_outputs(profiles, diff, projection, names, out_dir: Path) -> list[str]:
    files = []
    if profiles:
        K = len(profiles[0].cluster_action_counts)
        p = out_dir / "resource_profiles.csv"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("resource,visits,users," + ",".join(f"cluster_{k}" for k in range(K)) + "\n")
            for prof in profiles:
                fh.write(
                    f"{prof.resource},{prof.visits},{prof.user_count},"
                    + ",".join(str(int(v)) for v in prof.cluster_action_counts)
                    + "\n"
                )
        files.append(p.name)
    if diff is not None:
        p = out_dir / f"transition_diff_{diff.resource_a}_vs_{diff.resource_b}.json"
        shown = diff.labels_shown
        payload = {
            "resource_a": diff.resource_a,
            "resource_b": diff.resource_b,
            "note": ATTRIBUTION_NOTE,
            "labels": [names[i] for i in shown],
            "histogram_a": [int(diff.histogram_a[i]) for i in shown],
            "histogram_b": [int(diff.histogram_b[i]) for i in shown],
            "diff": [[float(v) for v in row] for row in diff.diff],
        }
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        files.append(p.name)
    if projection is not None:
        p = out_dir / "resource_coordinates.csv"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("resource," + ",".join(f"PC{i + 1}" for i in range(projection.model.r)) + "\n")
            for rname, row in zip(projection.resources, projection.coordinates):
                fh.write(rname + "," + ",".join(map(repr, row.tolist())) + "\n")
        files.append(p.name)
        p = out_dir / "resource_pca_report.txt"
        cluster_names = [f"cluster_{k}" for k in range(projection.model.n)]
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("principal components over per-cluster resource activity\n")
            for i, (ratio, cum) in enumerate(
                zip(projection.model.explained_variance_ratio, projection.model.cumulative_ratio)
            ):
                fh.write(f"PC{i + 1}: variance ratio {ratio:.4f}, cumulative {cum:.4f}\n")
            for ext in loading_extremes(projection.model, cluster_names):
                fh.write(
                    f"PC{ext['component']}: largest {ext['largest']} "
                    f"({ext['largest_coefficient']:+.4f}), smallest {ext['smallest']} "
                    f"({ext['smallest_coefficient']:+.4f})\n"
                )
        files.append(p.name)
    return files


# ---------------------------------------------------------------------------
# configuration and full run


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
        if "logs" in section:
            cfg.logs = section["logs"].split()
        for key in ("out_dir", "log_format", "rules", "ua_blacklist", "ip_blacklist",
                    "asset_patterns", "feature_kind"):
            if key in section:
                setattr(cfg, key, section[key])
        for key in ("gap_minutes", "alpha", "threshold_pct"):
            if key in section:
                setattr(cfg, key, float(section[key]))
        for key in ("seed", "restarts", "pca_components",
                    "top_actions", "top_resources", "jobs", "k"):
            if key in section:
                setattr(cfg, key, int(section[key]))
        if "k_range" in section:
            cfg.k_range = parse_k_range(section["k_range"])
        return cfg

    def validate(self) -> None:
        """Reject, by name, a setting that would fail a stage partway through a run."""
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")

    def as_dict(self) -> dict:
        d = asdict(self)
        d["k_range"] = list(self.k_range)
        return d

    def filter_config(self) -> FilterConfig:
        base = default_filter_config()
        if self.ua_blacklist is not None:
            base.useragent_blacklist = load_list_file(self.ua_blacklist)
        if self.ip_blacklist is not None:
            base.ip_blacklist = load_list_file(self.ip_blacklist)
        if self.asset_patterns is not None:
            base.drop_asset_patterns = load_list_file(self.asset_patterns)
        return base

    def ruleset(self) -> RuleSet:
        return compile_ruleset(self.rules) if self.rules else default_ruleset()


def parse_k_range(text: str) -> tuple[int, int]:
    """An elbow K range written ``LO:HI``, ``LO..HI`` or ``LO HI``."""
    bounds = text.replace(":", " ").replace("..", " ").split()
    if len(bounds) != 2:
        raise ValueError(f"K range {text!r} is not LO:HI")
    return int(bounds[0]), int(bounds[1])


# ---------------------------------------------------------------------------
# stages: each takes the config plus its inputs, writes its artifacts under
# config.out_dir and returns (its result, its manifest entry, the files written)


def _out_dir(config: PipelineConfig) -> Path:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def stage_ingest(config: PipelineConfig) -> tuple[EventBatch, dict, list[str]]:
    """Parse, filter and map ``config.logs``; the entry is the funnel."""
    batch, stats = ingest_paths(
        config.logs,
        ruleset=config.ruleset(),
        filter_config=config.filter_config(),
        log_format=config.log_format,
        jobs=config.jobs,
    )
    if stats.parsed == 0:
        raise MalformedLine("no parseable lines in input")
    return batch, stats.funnel(), []


def stage_sessionize(
    config: PipelineConfig, batch: EventBatch,
) -> tuple[TraceSet, dict, list[str]]:
    """Traces (``traces.jsonl``) and usage statistics of an event batch."""
    out_dir = _out_dir(config)
    traces, usage = build_traces(batch, config.ruleset().vocabulary.break_id, config.gap_minutes)
    write_traces_jsonl(traces, out_dir / "traces.jsonl")
    files = ["traces.jsonl"] + write_usage_stats(usage, out_dir)
    return traces, {"users": len(traces), "sessions": usage.session_count}, files


def stage_features(
    config: PipelineConfig, traces: TraceSet, path: Path | None = None,
) -> tuple[FeatureMatrix, dict, list[str]]:
    """The feature matrix, written to ``path`` (default: ``features.csv``)."""
    vocab = config.ruleset().vocabulary
    features = build_feature_matrix(
        traces, vocab.n,
        feature_kind=config.feature_kind, alpha=config.alpha, label_names=vocab.names(),
    )
    path = _out_dir(config) / "features.csv" if path is None else Path(path)
    write_feature_csv(features, path)
    entry = {
        "users": features.m, "kind": config.feature_kind,
        "max_residual": features.max_residual, "lstsq_fallbacks": features.fallbacks,
    }
    return features, entry, [path.name]


def stage_elbow(
    config: PipelineConfig, features: FeatureMatrix,
) -> tuple[ElbowCurve, dict, list[str]]:
    """The explained-variance curve over ``config.k_range``, cut at the user count."""
    lo, hi = config.k_range
    curve = explained_variance_curve(
        features, range(lo, min(hi, features.m) + 1),
        seed=config.seed, restarts=config.restarts,
    )
    write_elbow_csv(curve, _out_dir(config) / "elbow.csv")
    fits = [{"K": K, **model.diagnostics()} for K, model in curve.models.items()]
    return curve, {"knee": curve.knee, "fits": fits}, ["elbow.csv"]


def stage_cluster(
    config: PipelineConfig,
    features: FeatureMatrix,
    traces: TraceSet | None,
    curve: ElbowCurve,
) -> tuple[ClusterModel, dict, list[str]]:
    """K-means at ``config.k`` (default: the knee); profiles need ``traces``.

    The elbow's fit of K is reused; it has the same features, seed and
    restarts. K is fitted here only when the curve holds no fit of it.
    """
    K = config.k if config.k is not None else (curve.knee or 1)
    model = curve.models.get(K)
    if model is None:
        model = kmeans_fit(features, K, seed=config.seed, restarts=config.restarts)
    profiles = []
    if traces is not None:
        profiles = profile_clusters(features, model, traces, config.ruleset().vocabulary.break_id)
    files = write_cluster_outputs(features, model, profiles, _out_dir(config))
    return model, {"K": K, "inertia": model.inertia, **model.diagnostics()}, files


def stage_pca(
    config: PipelineConfig, features: FeatureMatrix, assignments: dict[str, int] | None,
) -> tuple[PcaModel, dict, list[str]]:
    """Principal components of the features; ``assignments`` color the coordinates."""
    pca_model = pca_fit(features.X, min(config.pca_components, features.m, features.n))
    coords = pca_project(pca_model, features.X)
    clusters = None
    if assignments is not None:
        clusters = np.array([assignments.get(u, -1) for u in features.user_ids])
    files = write_pca_outputs(features, pca_model, coords, clusters, _out_dir(config))
    return pca_model, {"components": pca_model.r}, files


def stage_compare(
    config: PipelineConfig,
    traces: TraceSet,
    assignments: dict[str, int],
    K: int,
    pair: Sequence[str] | None = None,
) -> tuple[list[ResourceProfile], dict, list[str]]:
    """Resource profiles, the transition diff of ``pair`` and the resource map.

    ``pair`` defaults to the two most visited resources; naming a
    resource without attributed users raises :class:`TooFewResources`.
    The map is skipped when the top ``config.top_resources`` cut leaves
    fewer than two resources.
    """
    vocab = config.ruleset().vocabulary
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
    files = write_compare_outputs(profiles, diff, projection, vocab.names(), _out_dir(config))
    return profiles, {"resources": len(profiles)}, files


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and write all artifacts plus a run manifest.

    Returns the manifest dict. Stage failures raise
    :class:`PipelineStageError`; outputs of completed stages stay on
    disk, and the manifest written so far is preserved as
    ``manifest.partial.json``. An invalid config raises ``ValueError``
    before any stage runs or any file is written.
    """
    config.validate()
    out_dir = _out_dir(config)
    manifest: dict = {
        "config": config.as_dict(),
        "versions": {
            "trailmine": __version__,
            "numpy": np.__version__,
        },
        "stages": {},
        "outputs": [],
    }

    def run(stage: str, fn: Callable, *inputs):
        t0 = time.perf_counter()
        try:
            result, entry, files = fn(config, *inputs)
        except Exception as exc:
            with open(out_dir / "manifest.partial.json", "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=1)
            raise PipelineStageError(stage, exc) from exc
        manifest["stages"][stage] = {"seconds": round(time.perf_counter() - t0, 3), **entry}
        manifest["outputs"] += files
        return result

    batch = run("ingest", stage_ingest)
    traces = run("sessionize", stage_sessionize, batch)
    features = run("features", stage_features, traces)
    curve = run("elbow", stage_elbow, features)
    model = run("cluster", stage_cluster, features, traces, curve)
    assignments = dict(zip(features.user_ids, (int(c) for c in model.assignments)))
    run("pca", stage_pca, features, assignments)
    run("compare", stage_compare, traces, assignments, model.K)

    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    manifest["outputs"].append("manifest.json")
    return manifest

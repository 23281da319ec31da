"""Pipeline orchestration: ingest, traces, features, clusters, comparison.

Each stage is one function (``stage_ingest`` ... ``stage_compare``) that
takes a :class:`PipelineConfig` plus its inputs, writes its artifacts in
the documented file formats and returns its manifest entry.
:func:`run_pipeline` calls them in order, and each ``trailmine``
subcommand calls the same functions on inputs read back from disk, so
long runs can be resumed per stage.

Ingest has one pass, :func:`_ingest_lines`, for every route. It takes the
lines in fixed-size chunks: each line is matched against the grammar, the
timestamps of a chunk are decoded as arrays, and each distinct request,
user agent and IP is decided once, not once per line. Parsing and mapping
are pure per line, so ingestion can fan out over worker processes; the
parts are merged in path order, and the stable (user, timestamp) sort of
:func:`~trailmine.sessions.build_traces` keeps that order between a
user's events of one second.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, field, fields, asdict
from configparser import ConfigParser
from itertools import islice
from multiprocessing import Pool
from operator import itemgetter
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
    InvalidTimestamp,
    MalformedLine,
    _split_request,
    _text_lines,
    default_filter_config,
    line_pattern,
    load_list_file,
    open_log,
    parse_clf_timestamp,
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


# Lines per chunk of the ingest pass. A chunk's fields and columns are alive
# at once: on the long_traces corpus 1024 lines ran within noise of 2048 and
# peaked about 1 MB lower in RSS.
_CHUNK_LINES = 1024
# Distinct request fields whose verdicts a _Verdicts table keeps; the table
# is emptied at a chunk start once it holds this many.
_REQUEST_VERDICTS_MAX = 1 << 18
# request verdicts that are not a label id
_MALFORMED, _ASSET, _UNMAPPED = -3, -2, -1


def _factorize(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct values in first-appearance order, and each value's index among them."""
    index = dict.fromkeys(values)
    for i, value in enumerate(index):
        index[value] = i
    return list(index), np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def _decode_timestamps(stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each timestamp field, and a mask of the valid ones.

    :func:`parse_clf_timestamp` checks each distinct date and offset once,
    at midnight; the time of day is read from one fixed-width digit
    matrix under the same rules. A field that is not 26 characters long
    fails at its date and offset, which then are not 18 characters.
    """
    dates, date_codes = _factorize([s[:12] + s[20:] for s in stamps])
    midnight = np.zeros(len(dates), dtype=np.int64)
    date_ok = np.zeros(len(dates), dtype=bool)
    for i, date in enumerate(dates):
        try:
            midnight[i] = parse_clf_timestamp(date[:12] + "00:00:00" + date[12:])
            date_ok[i] = True
        except InvalidTimestamp:
            pass
    chars = np.array(stamps, dtype="U26").view(np.uint32).reshape(len(stamps), 26)
    digits = chars[:, [12, 13, 15, 16, 18, 19]] - ord("0")  # wraps below "0"
    hh, mm, ss = (digits[:, i].astype(np.int64) * 10 + digits[:, i + 1] for i in (0, 2, 4))
    valid = (
        date_ok[date_codes] & (digits < 10).all(axis=1)
        & (chars[:, 14] == ord(":")) & (chars[:, 17] == ord(":"))
        & (hh < 24) & (mm < 60) & (ss < 61)
    )
    return midnight[date_codes] + hh * 3600 + mm * 60 + ss, valid


def _request_verdict(
    request: str, ruleset: RuleSet, filt: CompiledFilter, onto_ids: dict[str, int],
) -> tuple[int, int]:
    """(label id, or _MALFORMED / _ASSET / _UNMAPPED; ontology id or -1) of a request field."""
    try:
        method, raw_path, _ = _split_request(request)
    except MalformedLine:
        return _MALFORMED, -1
    path = unquote(raw_path) if "%" in raw_path else raw_path
    if filt.asset_dropped(path):
        return _ASSET, -1
    hit = ruleset.match(method, path)
    if hit is None:
        return _UNMAPPED, -1
    label, onto = hit
    return label, -1 if onto is None else onto_ids.setdefault(onto, len(onto_ids))


def _checked(values: Sequence[str], check: Callable[[str], bool]) -> np.ndarray:
    """``check`` of each value, called once per distinct value."""
    distinct, codes = _factorize(values)
    return np.array([check(v) for v in distinct], dtype=bool)[codes]


class _Verdicts:
    """The rules and filter of an ingest, with the verdict of each distinct request.

    One table serves every chunk of every :func:`_ingest_lines` call that
    shares it: all tasks of one in-process ``ingest_paths`` call, or all
    tasks one worker process is given. Ontology ids are handed out
    as requests are decided, so each call renumbers the ones it uses.
    """

    def __init__(self, ruleset: RuleSet, filt: CompiledFilter):
        self.ruleset = ruleset
        self.filt = filt
        self.requests: dict[str, tuple[int, int]] = {}
        self.onto_ids: dict[str, int] = {}

    def decide(self, requests: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(label or verdict code, ontology id or -1) arrays of request fields."""
        if len(self.requests) >= _REQUEST_VERDICTS_MAX:
            self.requests.clear()
        distinct, codes = _factorize(requests)
        for request in distinct:
            if request not in self.requests:
                self.requests[request] = _request_verdict(
                    request, self.ruleset, self.filt, self.onto_ids,
                )
        table = np.array([self.requests[r] for r in distinct], dtype=np.int64)
        return table[codes, 0], table[codes, 1]


def _by_first_appearance(codes: np.ndarray, names: list[str]) -> tuple[list[str], np.ndarray]:
    """Renumber ``codes`` (-1 stays -1) in order of first appearance; the names they use.

    Ontology ids are handed out as request verdicts are decided, which
    includes requests that are later dropped or were seen by an earlier
    call; the pool keeps the ones mapped here.
    """
    used, first = np.unique(codes[codes >= 0], return_index=True)
    order = used[np.argsort(first)]
    remap = np.full(len(names) + 1, -1, dtype=np.int64)  # the last slot maps -1
    remap[order] = np.arange(len(order))
    return [names[i] for i in order.tolist()], remap[codes]


def _ingest_lines(
    lines: Iterable[str], verdicts: _Verdicts, log_format: str,
) -> tuple[EventBatch, IngestStats]:
    """Parse, filter and map raw lines, one chunk of ``_CHUNK_LINES`` at a time.

    Each chunk is matched line by line against the grammar, keeping only
    the IP, timestamp, request and user-agent fields. Timestamps are
    decoded as arrays (:func:`_decode_timestamps`). Each distinct request
    field is split, decoded, asset-checked and matched to a rule once per
    ``verdicts`` table (see :class:`_Verdicts`), and each distinct user
    agent and IP is checked once per chunk. The verdicts combine as
    boolean arrays in the precedence malformed, user agent, IP, asset,
    unmapped. The user of an event is its IP field. Pools list users and
    ontologies in order of first appearance among mapped lines.
    """
    stats = IngestStats()
    match = line_pattern(log_format).match
    fields = (1, 4, 5, 9) if log_format == "combined" else (1, 4, 5)
    columns = [itemgetter(i) for i in range(len(fields))]
    filt = verdicts.filt
    user_ids: dict[str, int] = {}
    parts: list[tuple[np.ndarray, ...]] = []
    it = iter(lines)
    while chunk := list(islice(it, _CHUNK_LINES)):
        stats.lines += len(chunk)
        rows = [m.group(*fields) for m in map(match, chunk) if m is not None]
        stats.malformed += len(chunk) - len(rows)
        del chunk  # only the fields are kept
        if not rows:
            continue
        ips, stamps, requests, *uas = (list(map(column, rows)) for column in columns)
        useragents = uas[0] if uas else [""] * len(rows)  # "common" has no user agent
        epochs, ok = _decode_timestamps(stamps)
        labels, ontos = verdicts.decide(requests)
        ok &= labels != _MALFORMED
        stats.malformed += len(rows) - int(ok.sum())
        stats.parsed += int(ok.sum())
        drops = (
            ("dropped_useragent", _checked(useragents, filt.ua_dropped)),
            ("dropped_ip", _checked(ips, filt.ip_dropped)),
            ("dropped_asset", labels == _ASSET),
            ("unmapped", labels == _UNMAPPED),
        )
        for counter, dropped in drops:
            setattr(stats, counter, getattr(stats, counter) + int((ok & dropped).sum()))
            ok &= ~dropped
        mapped = np.flatnonzero(ok)
        user_codes = np.fromiter(
            (user_ids.setdefault(ips[i], len(user_ids)) for i in mapped.tolist()),
            np.int64, len(mapped),
        )
        parts.append((user_codes, epochs[mapped], labels[mapped], ontos[mapped]))
    user_codes, timestamps, labels, onto_codes = (
        np.concatenate([p[i] for p in parts] + [np.empty(0, dtype=np.int64)]) for i in range(4)
    )
    onto_pool, onto_codes = _by_first_appearance(onto_codes, list(verdicts.onto_ids))
    stats.events = len(user_codes)
    return EventBatch(list(user_ids), user_codes, timestamps, labels, onto_pool, onto_codes), stats


def _ingest_task(
    task: tuple[str, int, int | None], verdicts: _Verdicts, log_format: str,
) -> tuple[EventBatch, IngestStats]:
    """Ingest a whole plain or gzip file (``end`` None) or a byte range of whole lines."""
    path, start, end = task
    if end is None:
        with open_log(path) as lines:
            return _ingest_lines(lines, verdicts, log_format)
    with open(path, "rb") as fh:
        fh.seek(start)
        blob = fh.read(end - start)
    # the range is read as open_log reads a whole file
    with _text_lines(io.BytesIO(blob)) as lines:
        return _ingest_lines(lines, verdicts, log_format)


# worker-process state for parallel ingestion, set up once per worker
_WORKER: dict = {}


def _worker_init(ruleset: RuleSet, filter_cfg: FilterConfig, log_format: str) -> None:
    _WORKER["verdicts"] = _Verdicts(ruleset, filter_cfg.compile())
    _WORKER["format"] = log_format


def _worker_ingest(task: tuple[str, int, int | None]) -> tuple[EventBatch, IngestStats]:
    # the batch is already factorized: it pickles as small string pools plus index arrays
    return _ingest_task(task, _WORKER["verdicts"], _WORKER["format"])


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
) -> tuple[EventBatch, IngestStats]:
    """Parse, filter and map log files into an event batch, in the order given.

    Each file is one task, read whole through :func:`open_log`; with
    ``jobs > 1`` a plain-text file is split into byte ranges of whole
    lines instead. More than one task with ``jobs > 1`` runs on a pool
    of ``jobs`` worker processes, each with its own request verdicts;
    otherwise the tasks run in-process and share one table. Either way
    each task runs :func:`_ingest_task`, and the parts are merged in
    task order, so events of one user keep the order of the paths.
    Raises ``ValueError`` for an unknown ``log_format``.
    """
    line_pattern(log_format)  # reject an unknown format even when no line is read
    ruleset = ruleset or default_ruleset()
    cfg = filter_config or default_filter_config()
    tasks: list[tuple[str, int, int | None]] = []
    for path in map(str, paths):
        if jobs > 1 and not path.endswith(".gz"):
            tasks += _chunk_file(path, jobs * 4)  # fine chunks even out load
        else:
            tasks.append((path, 0, None))
    if jobs > 1 and len(tasks) > 1:
        with Pool(jobs, initializer=_worker_init, initargs=(ruleset, cfg, log_format)) as pool:
            results = pool.map(_worker_ingest, tasks)
    else:
        verdicts = _Verdicts(ruleset, cfg.compile())
        results = [_ingest_task(task, verdicts, log_format) for task in tasks]
    stats = IngestStats()
    for _, part_stats in results:
        stats.merge(part_stats)
    return EventBatch.merge([part for part, _ in results]), stats


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


def _label_names(features: FeatureMatrix) -> list[str]:
    """The features' label names, or ``label_0``, ``label_1``, ... when they have none."""
    return features.label_names or [f"label_{i}" for i in range(features.n)]


def write_feature_csv(features: FeatureMatrix, path: str | Path) -> None:
    names = _label_names(features)
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
    names = _label_names(features)
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


def _write_pca_report(path: Path, title: str, model: PcaModel, names: list[str]) -> None:
    """The title, each component's variance ratios and its extreme loadings."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(title + "\n")
        for i, (ratio, cum) in enumerate(zip(model.explained_variance_ratio, model.cumulative_ratio)):
            fh.write(f"PC{i + 1}: variance ratio {ratio:.4f}, cumulative {cum:.4f}\n")
        for ext in loading_extremes(model, names):
            fh.write(
                f"PC{ext['component']}: largest {ext['largest']} "
                f"({ext['largest_coefficient']:+.4f}), smallest {ext['smallest']} "
                f"({ext['smallest_coefficient']:+.4f})\n"
            )


def write_pca_outputs(features: FeatureMatrix, model, coords, assignments, out_dir: Path) -> list[str]:
    files = []
    names = _label_names(features)
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
    _write_pca_report(p, "principal components over behavior features", model, names)
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
        _write_pca_report(
            p, "principal components over per-cluster resource activity", projection.model,
            [f"cluster_{k}" for k in range(projection.model.n)],
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
        lo, hi = self.k_range
        if not 1 <= lo <= hi:
            raise ValueError(f"k_range must be LO:HI with 1 <= LO <= HI, got {lo}:{hi}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.pca_components < 1:
            raise ValueError(f"pca_components must be >= 1, got {self.pca_components}")

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
        """Compile the rules; ``run_pipeline`` and each subcommand call this once."""
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


def stage_ingest(config: PipelineConfig, ruleset: RuleSet) -> tuple[EventBatch, dict, list[str]]:
    """Parse, filter and map ``config.logs``; the entry is the funnel."""
    batch, stats = ingest_paths(
        config.logs,
        ruleset=ruleset,
        filter_config=config.filter_config(),
        log_format=config.log_format,
        jobs=config.jobs,
    )
    if stats.parsed == 0:
        raise MalformedLine("no parseable lines in input")
    return batch, stats.funnel(), []


def stage_sessionize(
    config: PipelineConfig, ruleset: RuleSet, batch: EventBatch,
) -> tuple[TraceSet, dict, list[str]]:
    """Traces (``traces.jsonl``) and usage statistics of an event batch."""
    out_dir = _out_dir(config)
    traces, usage = build_traces(batch, ruleset.vocabulary.break_id, config.gap_minutes)
    write_traces_jsonl(traces, out_dir / "traces.jsonl")
    files = ["traces.jsonl"] + write_usage_stats(usage, out_dir)
    return traces, {"users": len(traces), "sessions": usage.session_count}, files


def stage_features(
    config: PipelineConfig, ruleset: RuleSet, traces: TraceSet, path: Path | None = None,
) -> tuple[FeatureMatrix, dict, list[str]]:
    """The feature matrix, written to ``path`` (default: ``features.csv``)."""
    vocab = ruleset.vocabulary
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
    ruleset: RuleSet,
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
        profiles = profile_clusters(features, model, traces, ruleset.vocabulary.break_id)
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
    ruleset: RuleSet,
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
    vocab = ruleset.vocabulary
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
    before any stage runs or any file is written; so does a rules file
    that does not compile.
    """
    config.validate()
    ruleset = config.ruleset()
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

    batch = run("ingest", stage_ingest, ruleset)
    traces = run("sessionize", stage_sessionize, ruleset, batch)
    features = run("features", stage_features, ruleset, traces)
    curve = run("elbow", stage_elbow, features)
    model = run("cluster", stage_cluster, ruleset, features, traces, curve)
    assignments = dict(zip(features.user_ids, (int(c) for c in model.assignments)))
    run("pca", stage_pca, features, assignments)
    run("compare", stage_compare, ruleset, traces, assignments, model.K)

    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    manifest["outputs"].append("manifest.json")
    return manifest

"""Pipeline orchestration: ingest, traces, features, clusters, comparison.

Each stage is one function (``stage_ingest`` ... ``stage_compare``) that
takes a :class:`RunRecord` plus its inputs, writes its artifacts in the
documented file formats, sets its manifest entry in the record and
returns its result. :func:`run_pipeline` calls them in order through one
record and saves it as ``manifest.json``; each ``trailmine`` subcommand
calls the same functions on inputs read back from disk, so long runs can
be resumed per stage.

Ingest has one pass, :func:`_ingest_lines`, for every route. It takes the
lines in fixed-size chunks: each line is matched against the grammar, the
timestamps of a chunk are decoded as arrays, and each distinct date,
request, user agent and IP is decided once, from bounded tables kept
across chunks, not once per line. Parsing and mapping are pure per line,
so with ``jobs`` processes each plain file is read as ``jobs`` byte
ranges: this process ingests the first share of the ranges and forked
helper processes the others (:mod:`trailmine.helpers`), and the parts
are concatenated in path order. The elbow shares each K's restarts with
helpers likewise (see :mod:`trailmine.cluster`). :func:`~trailmine.sessions.build_traces` is
the one place that gives users and ontologies their final codes, by
name, and its stable (user, timestamp) sort keeps the path order between
a user's events of one second.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import Field, asdict, dataclass, field, fields
from configparser import ConfigParser
from itertools import islice
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
    KTooLarge,
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
from .helpers import receive, start_helpers
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
from .markov import FEATURE_KINDS, FeatureMatrix, build_feature_matrix
from .pca import PcaModel, loading_extremes, pca_fit, pca_project
from .sessions import DEFAULT_GAP_MINUTES, TraceSet, build_traces

__all__ = [
    "PipelineConfig",
    "PipelineStageError",
    "RunRecord",
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
    million-event batches cheap to move between worker processes. A
    pool may repeat a name and may hold names no event uses: the codes
    are only an index into it. :func:`~trailmine.sessions.build_traces`
    gives users and ontologies their final codes, by name.
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
        """Concatenate parts in order, each part's codes shifted past the pools before it."""
        user_pool, onto_pool, columns = [], [], []
        for part in parts:
            onto_codes = np.where(part.onto_codes < 0, -1, part.onto_codes + len(onto_pool))
            columns.append((part.user_codes + len(user_pool), part.timestamps, part.labels, onto_codes))
            user_pool += part.user_pool
            onto_pool += part.onto_pool
        # the trailing empty array makes merge([]) an empty batch
        user_codes, timestamps, labels, onto_codes = (
            np.concatenate([c[i] for c in columns] + [np.empty(0, dtype=np.int64)]) for i in range(4)
        )
        return cls(user_pool, user_codes, timestamps, labels, onto_pool, onto_codes)


# Lines per chunk of the ingest pass. A chunk's fields and columns are alive
# at once: on the long_traces corpus 1024 lines ran within noise of 2048 and
# peaked about 1 MB lower in RSS.
_CHUNK_LINES = 1024
# Distinct values whose verdicts each _Verdicts table keeps; a table is
# emptied at a chunk start once it holds this many.
_VERDICTS_MAX = 1 << 18
# request verdicts that are not a label id
_MALFORMED, _ASSET, _UNMAPPED = -3, -2, -1


def _factorize(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct values in first-appearance order, and each value's index among them."""
    index = dict.fromkeys(values)
    for i, value in enumerate(index):
        index[value] = i
    return list(index), np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def _midnight(date: str) -> tuple[int, bool]:
    """(epoch seconds at midnight, True) of a timestamp's date and offset; (0, False) if invalid."""
    try:
        return parse_clf_timestamp(date[:12] + "00:00:00" + date[12:]), True
    except InvalidTimestamp:
        return 0, False


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


class _Verdicts:
    """The rules and filter of an ingest, with a bounded memo of field verdicts.

    There is one table per field: timestamp date and offset, request,
    user agent and IP. One set of tables serves every chunk of every
    :func:`_ingest_lines` call that shares it: all tasks of one process's
    share of an ``ingest_paths`` call. Ontology ids are handed out as
    requests are decided, so one id keeps its ontology across those calls.
    """

    def __init__(self, ruleset: RuleSet, filt: CompiledFilter):
        self.ruleset = ruleset
        self.filt = filt
        self.onto_ids: dict[str, int] = {}
        self.tables: dict[str, dict] = {field: {} for field in ("date", "request", "useragent", "ip")}

    def decide(self, field: str, values: Sequence[str], verdict: Callable[[str], object]) -> np.ndarray:
        """The verdict of each value, from ``verdict`` called once per value not in the table.

        Each call decides one chunk's column, so a table that holds
        ``_VERDICTS_MAX`` verdicts is emptied at a chunk start.
        """
        table = self.tables[field]
        if len(table) >= _VERDICTS_MAX:
            table.clear()
        distinct, codes = _factorize(values)
        for value in distinct:
            if value not in table:
                table[value] = verdict(value)
        return np.array([table[value] for value in distinct])[codes]


def _decode_timestamps(stamps: Sequence[str], verdicts: _Verdicts) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each timestamp field, and a mask of the valid ones.

    :func:`_midnight` checks each distinct date and offset once; the time
    of day is read from one fixed-width digit matrix under the rules of
    :func:`parse_clf_timestamp`. A field that is not 26 characters long
    fails at its date and offset, which then are not 18 characters.
    """
    midnight, date_ok = verdicts.decide("date", [s[:12] + s[20:] for s in stamps], _midnight).T
    chars = np.array(stamps, dtype="U26").view(np.uint32).reshape(len(stamps), 26)
    digits = chars[:, [12, 13, 15, 16, 18, 19]] - ord("0")  # wraps below "0"
    hh, mm, ss = (digits[:, i].astype(np.int64) * 10 + digits[:, i + 1] for i in (0, 2, 4))
    valid = (
        (date_ok == 1) & (digits < 10).all(axis=1)
        & (chars[:, 14] == ord(":")) & (chars[:, 17] == ord(":"))
        & (hh < 24) & (mm < 60) & (ss < 61)
    )
    return midnight + hh * 3600 + mm * 60 + ss, valid


def _ingest_lines(
    lines: Iterable[str], verdicts: _Verdicts, log_format: str,
) -> tuple[EventBatch, IngestStats]:
    """Parse, filter and map raw lines, one chunk of ``_CHUNK_LINES`` at a time.

    Each chunk is matched line by line against the grammar, keeping only
    the IP, timestamp, request and user-agent fields. Timestamps are
    decoded as arrays (:func:`_decode_timestamps`). Each distinct date,
    request, user agent and IP is decided once per ``verdicts`` (see
    :class:`_Verdicts`); a request is split, decoded, asset-checked and
    matched to a rule. The verdicts combine as boolean arrays in the
    precedence malformed, user agent, IP, asset, unmapped. The user of
    an event is its IP field: each distinct IP of a chunk gets its code
    in this call once. The pools hold every IP this call saw and every
    ontology ``verdicts`` handed an id.
    """
    stats = IngestStats()
    match = line_pattern(log_format).match
    fields = (1, 4, 5, 9) if log_format == "combined" else (1, 4, 5)
    columns = [itemgetter(i) for i in range(len(fields))]
    filt = verdicts.filt
    user_ids: dict[str, int] = {}
    parts: list[tuple[np.ndarray, ...]] = []

    def request_verdict(request: str) -> tuple[int, int]:
        return _request_verdict(request, verdicts.ruleset, filt, verdicts.onto_ids)

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
        epochs, ok = _decode_timestamps(stamps, verdicts)
        labels, ontos = verdicts.decide("request", requests, request_verdict).T
        ok &= labels != _MALFORMED
        stats.malformed += len(rows) - int(ok.sum())
        stats.parsed += int(ok.sum())
        distinct_ips, ip_codes = _factorize(ips)
        drops = (
            ("dropped_useragent", verdicts.decide("useragent", useragents, filt.ua_dropped)),
            ("dropped_ip", verdicts.decide("ip", distinct_ips, filt.ip_dropped)[ip_codes]),
            ("dropped_asset", labels == _ASSET),
            ("unmapped", labels == _UNMAPPED),
        )
        for counter, dropped in drops:
            setattr(stats, counter, getattr(stats, counter) + int((ok & dropped).sum()))
            ok &= ~dropped
        mapped = np.flatnonzero(ok)
        users = np.array([user_ids.setdefault(ip, len(user_ids)) for ip in distinct_ips], dtype=np.int64)
        parts.append((users[ip_codes[mapped]], epochs[mapped], labels[mapped], ontos[mapped]))
    user_codes, timestamps, labels, onto_codes = (
        np.concatenate([p[i] for p in parts] + [np.empty(0, dtype=np.int64)]) for i in range(4)
    )
    stats.events = len(user_codes)
    batch = EventBatch(list(user_ids), user_codes, timestamps, labels, list(verdicts.onto_ids), onto_codes)
    return batch, stats


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


def _ingest_share(
    tasks: Sequence[tuple[str, int, int | None]], ruleset: RuleSet, filt: CompiledFilter, log_format: str,
) -> list[tuple[EventBatch, IngestStats]]:
    """Each task's part, in order, from one set of verdict tables."""
    verdicts = _Verdicts(ruleset, filt)
    return [_ingest_task(task, verdicts, log_format) for task in tasks]


def _send_share(send: Callable, *share) -> None:
    # a helper's parts; each batch is factorized, so it pickles as small string pools plus index arrays
    send(_ingest_share(*share))


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
    filt: CompiledFilter | None = None,
    log_format: str = "combined",
    jobs: int = 1,
) -> tuple[EventBatch, IngestStats]:
    """Parse, filter and map log files into an event batch, in the order given.

    Each file is one task, read whole through :func:`open_log`; with
    ``jobs > 1`` a plain-text file is split into ``jobs`` byte ranges of
    whole lines instead, and a gzip file stays whole. The tasks are cut
    into ``min(jobs, tasks)`` contiguous shares in path order: this
    process ingests the first, and one helper process each of the others
    (:func:`~trailmine.helpers.start_helpers`). Each process decides with
    its own verdict tables. The parts are merged in task order, so events
    of one user keep the order of the paths. A helper's error is raised
    here with its own type. ``filt`` defaults to the shipped lists
    compiled. Raises ``ValueError`` for an unknown ``log_format``.
    """
    line_pattern(log_format)  # reject an unknown format even when no line is read
    ruleset = ruleset or default_ruleset()
    filt = filt or default_filter_config().compile()
    tasks: list[tuple[str, int, int | None]] = []
    for path in map(str, paths):
        if jobs > 1 and not path.endswith(".gz"):
            tasks += _chunk_file(path, jobs)
        else:
            tasks.append((path, 0, None))
    n = max(1, min(jobs, len(tasks)))
    shares = [(tasks[len(tasks) * i // n : len(tasks) * (i + 1) // n], ruleset, filt, log_format)
              for i in range(n)]
    with start_helpers(_send_share, shares[1:]) as conns:
        results = _ingest_share(*shares[0])
        for conn in conns:
            results += receive(conn)
    stats = IngestStats()
    for _, part_stats in results:
        stats.merge(part_stats)
    return EventBatch.merge([part for part, _ in results]), stats


# ---------------------------------------------------------------------------
# file formats


def _write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV of the header line and one line per row of as many cells.

    Cells are written with ``%s``, which is ``repr`` for a Python float,
    so float cells come from ``tolist()`` and read back exactly. One
    ``%`` template per line formats as fast as an f-string.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


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
    rows = ([uid, *row] for uid, row in zip(features.user_ids, features.X.tolist()))
    _write_rows(path, ["user", *_label_names(features)], rows)


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


def write_usage_stats(stats, record: RunRecord) -> None:
    """Plain-text report plus one CSV per histogram."""
    with open(record.path("usage_stats.txt"), "w", encoding="utf-8") as fh:
        fh.write("corpus usage statistics\n")
        fh.write(f"users: {stats.users}\n")
        fh.write(f"events: {stats.total_events}\n")
        fh.write(f"sessions: {stats.session_count}\n")
        fh.write(f"single_request_sessions: {stats.single_request_sessions}\n")
        fh.write(f"mean_session_duration_s: {stats.mean_session_duration:.3f}\n")
        fh.write(f"median_session_duration_s: {stats.median_session_duration:.1f}\n")
        fh.write("note: a 1-event session has duration 0 s\n")
    for name in ("inter_request_seconds", "requests_per_user", "ontologies_per_user",
                 "requests_per_session"):
        _write_rows(record.path(f"hist_{name}.csv"), [name, "count"], sorted(getattr(stats, name).items()))


def write_cluster_outputs(
    features: FeatureMatrix,
    model: ClusterModel,
    profiles: list[ClusterProfile],
    record: RunRecord,
) -> None:
    names = _label_names(features)
    _write_rows(record.path("assignments.csv"), ["user", "cluster"],
                zip(features.user_ids, map(int, model.assignments)))
    _write_rows(record.path("centroids.csv"), ["cluster", *names],
                ([k, *row] for k, row in enumerate(model.centroids.tolist())))
    with open(record.path("cluster_profiles.txt"), "w", encoding="utf-8") as fh:
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
    for prof in profiles:
        _write_rows(record.path(f"cluster_{prof.cluster}_actions.csv"), ["label", "count"],
                    zip(names, map(int, prof.action_histogram)))


def write_elbow_csv(curve, path: Path) -> None:
    _write_rows(path, ["K", "explained_variance"], ((k, float(ev)) for k, ev in curve.points))


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


def write_pca_outputs(features: FeatureMatrix, model, coords, assignments, record: RunRecord) -> None:
    names = _label_names(features)
    pcs = [f"PC{i + 1}" for i in range(model.r)]
    header = ["id", *pcs]
    rows = [[uid, *row] for uid, row in zip(features.user_ids, coords.tolist())]
    if assignments is not None:
        header.append("cluster")
        for row, cluster in zip(rows, assignments):
            row.append(int(cluster))
    _write_rows(record.path("pca_loadings.csv"), ["label", *pcs],
                ([name, *col] for name, col in zip(names, model.components.T.tolist())))
    _write_rows(record.path("pca_coordinates.csv"), header, rows)
    _write_pca_report(record.path("pca_report.txt"), "principal components over behavior features",
                      model, names)


def write_compare_outputs(profiles, diff, projection, names, record: RunRecord) -> None:
    if profiles:
        K = len(profiles[0].cluster_action_counts)
        _write_rows(
            record.path("resource_profiles.csv"),
            ["resource", "visits", "users", *(f"cluster_{k}" for k in range(K))],
            ([p.resource, p.visits, p.user_count, *map(int, p.cluster_action_counts)] for p in profiles),
        )
    if diff is not None:
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
        name = f"transition_diff_{diff.resource_a}_vs_{diff.resource_b}.json"
        with open(record.path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
    if projection is not None:
        model = projection.model
        header = ["resource", *(f"PC{i + 1}" for i in range(model.r))]
        rows = ([r, *row] for r, row in zip(projection.resources, projection.coordinates.tolist()))
        _write_rows(record.path("resource_coordinates.csv"), header, rows)
        _write_pca_report(record.path("resource_pca_report.txt"),
                          "principal components over per-cluster resource activity",
                          model, [f"cluster_{k}" for k in range(model.n)])


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

    def ruleset(self) -> RuleSet:
        """Compile the rules; a :class:`RunRecord` calls this once, when it is made."""
        return compile_ruleset(self.rules) if self.rules else default_ruleset()


class RunRecord:
    """What one run did: its config, rules and filter, each stage's entry and the files written.

    The rules are compiled once, here, and so is the filter when the
    config has logs to ingest (:func:`stage_ingest` is its only reader),
    so a bad rules or list file fails before any file is written. Stages
    set their entry in ``stages``, and writers name each file they write
    in the out dir through :meth:`path`, so ``outputs`` lists the files
    in the order they were written. The out dir is made when the first
    file needs it.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.ruleset = config.ruleset()
        self.filt: CompiledFilter | None = config.filter_config().compile() if config.logs else None
        self.stages: dict[str, dict] = {}
        self.outputs: list[str] = []

    def path(self, name: str) -> Path:
        """The out-dir path of ``name``, now listed among the outputs."""
        out_dir = Path(self.config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return out_dir / name

    def run(self, stage: str, fn: Callable, *inputs):
        """``fn(self, *inputs)``, timed into the entry it sets.

        A failure saves ``manifest.partial.json`` and raises :class:`PipelineStageError`.
        """
        t0 = time.perf_counter()
        try:
            result = fn(self, *inputs)
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


def stage_features(record: RunRecord, traces: TraceSet, path: Path | None = None) -> FeatureMatrix:
    """The feature matrix, written to ``path`` (default: ``features.csv``)."""
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


def stage_pca(record: RunRecord, features: FeatureMatrix, assignments: dict[str, int] | None) -> PcaModel:
    """Principal components of the features; ``assignments`` color the coordinates."""
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
    there.
    """
    config.validate()
    record = RunRecord(config)
    batch = record.run("ingest", stage_ingest)
    traces = record.run("sessionize", stage_sessionize, batch)
    features = record.run("features", stage_features, traces)
    curve = record.run("elbow", stage_elbow, features)
    model = record.run("cluster", stage_cluster, features, traces, curve)
    assignments = dict(zip(features.user_ids, (int(c) for c in model.assignments)))
    record.run("pca", stage_pca, features, assignments)
    record.run("compare", stage_compare, traces, assignments, model.K)
    record.save("manifest.json")
    return record.manifest()

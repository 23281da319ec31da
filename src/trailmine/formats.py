"""The stage files: each artifact's writer, and readers of the three that later stages read back.

``traces.jsonl``, ``features.csv`` and ``assignments.csv`` are read
back by the per-stage subcommands; a line a reader rejects raises
``ValueError`` naming the file and line. The writers of out-dir
artifacts name each file through the run record, so the manifest lists
it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .compare import ATTRIBUTION_NOTE
from .markov import FeatureMatrix
from .pca import PcaModel, loading_extremes
from .sessions import TraceSet

if TYPE_CHECKING:
    from .actions import ActionVocabulary
    from .cluster import ClusterModel, ClusterProfile
    from .pipeline import RunRecord

__all__ = [
    "write_traces_jsonl", "read_traces_jsonl", "write_feature_csv", "read_feature_csv",
    "read_assignments_csv",
]


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


def _decode_lines(fh: Iterable[str], path: str | Path, decode: Callable, first: int = 1) -> dict:
    """User to value of each line left in ``fh``, which ``decode`` reads as a (user, value) pair.

    The first line left is line ``first`` of ``path``. A line that
    ``decode`` rejects with ``ValueError`` raises one that names the file
    and line, and a user named twice one that names both lines.
    """
    decoded = {}
    for lineno, line in enumerate(fh, first):
        try:
            user, value = decode(line)
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
        if user in decoded:  # each line before added one user, in line order
            earlier = first + list(decoded).index(user)
            raise ValueError(f"{path}, lines {earlier} and {lineno}: user {user!r} appears twice")
        decoded[user] = value
    return decoded


_TRACE_KEYS = frozenset(("user", "sequence", "ontologies", "session_lengths"))
# the types of item each list of a trace may hold; JSON's true and false are bool, not int
_TRACE_LISTS = {
    "sequence": ({int}, "integers"),
    "ontologies": ({str, type(None)}, "strings and nulls"),
    "session_lengths": ({int}, "integers"),
}
_NOT_RUNS = "'session_lengths' are not the runs between the BREAKs of 'sequence'"


def _trace_record(line: str) -> tuple[str, dict]:
    """The user and the one JSON object of a ``traces.jsonl`` line, with a trace's keys, types and lengths."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{exc.msg} at column {exc.colno}") from None
    if type(row) is not dict:
        raise ValueError("not a JSON object")
    if not _TRACE_KEYS <= row.keys():
        raise ValueError(f"no {sorted(_TRACE_KEYS - row.keys())[0]!r} key")
    if type(row["user"]) is not str:
        raise ValueError("'user' is not a string")
    for key, (types, items) in _TRACE_LISTS.items():
        if type(row[key]) is not list or not types.issuperset(map(type, row[key])):
            raise ValueError(f"{key!r} is not a list of {items}")
    sequence, lengths = row["sequence"], row["session_lengths"]
    if len(row["ontologies"]) != len(sequence):
        raise ValueError("'ontologies' and 'sequence' differ in length")
    if lengths and not 1 <= min(lengths) <= max(lengths) <= len(sequence):  # each fits int64 now
        raise ValueError(_NOT_RUNS)
    return row["user"], row


def read_traces_jsonl(path: str | Path, vocabulary: ActionVocabulary) -> TraceSet:
    """The traces ``write_traces_jsonl`` wrote; a line that breaks a rule raises ``ValueError`` naming it.

    Each line is decoded alone, as JSON Lines allows no value over two
    lines, and holds one trace: a user with no other line, labels in
    ``[0, vocabulary.n)``, as many ontology names or nulls, and the
    lengths (each at least 1) of the runs that BREAK labels cut them into.
    """
    with open(path, encoding="utf-8") as fh:
        rows = list(_decode_lines(fh, path, _trace_record).values())
    n = vocabulary.n
    try:
        traces = TraceSet.from_rows(rows)
    except OverflowError:  # a label past int64
        traces = None
    if traces is None or ((traces.labels < 0) | (traces.labels >= n)).any():  # seek the line only now
        line, label = next((i, x) for i, row in enumerate(rows, 1) for x in row["sequence"] if not 0 <= x < n)
        raise ValueError(f"{path}, line {line}: label {label} is not one of the rules' [0, {n})")
    # the runs between BREAKs in row order: one starts at a row start or past a BREAK and ends at a
    # BREAK or a row end, so the sorted starts and ends pair up; a row has one run more than BREAKs
    offsets, breaks = traces.offsets, np.flatnonzero(traces.labels == vocabulary.break_id)
    runs = np.sort(np.concatenate((breaks, offsets[1:]))) - np.sort(np.concatenate((offsets[:-1], breaks + 1)))
    cuts = np.arange(len(offsets)) + breaks.searchsorted(offsets)
    if not (np.array_equal(cuts, traces.session_offsets) and np.array_equal(runs, traces.session_lengths)):
        pairs = zip(np.split(runs, cuts[1:-1]), np.split(traces.session_lengths, traces.session_offsets[1:-1]))
        line = next(i for i, (want, got) in enumerate(pairs, 1) if not np.array_equal(want, got))
        raise ValueError(f"{path}, line {line}: {_NOT_RUNS}")
    return traces


def _label_names(features: FeatureMatrix) -> list[str]:
    """The features' label names, or ``label_0``, ``label_1``, ... when they have none."""
    return features.label_names or [f"label_{i}" for i in range(features.n)]


def write_feature_csv(features: FeatureMatrix, path: str | Path) -> None:
    rows = ([uid, *row] for uid, row in zip(features.user_ids, features.X.tolist()))
    _write_rows(path, ["user", *_label_names(features)], rows)


def read_feature_csv(path: str | Path) -> FeatureMatrix:
    """The features ``write_feature_csv`` wrote; a bad line or a user's second row raises ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")

        def row(line: str) -> tuple[str, list[float]]:
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells, the header has {len(header)}")
            return cells[0], [float(v) for v in cells[1:]]

        rows = _decode_lines(fh, path, row, first=2)
    X = np.asarray(list(rows.values()), dtype=np.float64) if rows else np.zeros((0, len(header) - 1))
    if not np.isfinite(X).all():  # float() reads nan and inf; row i is line i + 2
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{path}, line {i + 2}: {header[j + 1]} is {float(X[i, j])}, not a finite number")
    return FeatureMatrix(list(rows), X, "unknown", header[1:])


def _assignment(line: str) -> tuple[str, int]:
    user, text = line.rstrip("\n").rsplit(",", 1)
    cluster = int(text)
    if cluster < 0:
        raise ValueError(f"cluster id {cluster} is negative")
    return user, cluster


def read_assignments_csv(path: str | Path) -> dict[str, int]:
    """User to cluster, as ``write_cluster_outputs`` wrote ``assignments.csv``.

    A line that is not ``user,cluster`` with an id of at least 0, or a
    user's second line, raises ``ValueError`` naming it.
    """
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return _decode_lines(fh, path, _assignment, first=2)


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


"""Session segmentation, BREAK-joined user traces, and corpus statistics.

A session is a maximal run of one user's events in which every adjacent
gap is below the inactivity threshold (default 30 minutes). A user's
trace is the concatenation of the session label sequences with one BREAK
token between consecutive sessions.

:func:`build_traces` is the one place this rule lives, and the one place
users and ontologies get their final codes: both pools of the event
batch are ranked by sorted name, so pool entries with one name are one
user or one resource, whatever order ingest coded them in. It works on
the columnar event batch in one array pass: a stable sort by (user,
timestamp), session starts from the user changes and the timestamp
gaps, and BREAK slots by index arithmetic. It returns one
:class:`TraceSet`, the flat arrays that features, cluster profiles and
resource comparison all read, and usage statistics from the same
arrays: gaps between two different users' events count neither as
session splits nor as inter-request gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:
    from .pipeline import EventBatch

__all__ = [
    "TraceSet",
    "UsageStats",
    "build_traces",
]

DEFAULT_GAP_MINUTES = 30.0


def _column(rows: list[Mapping], key: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``key`` lists of all rows as one flat array, and the row offsets into it."""
    lists = [row[key] for row in rows]
    return np.fromiter(chain.from_iterable(lists), dtype=np.int64), np.cumsum([0, *map(len, lists)])


@dataclass(slots=True)
class TraceSet:
    """Every user's full chronological action sequence, sessions joined by BREAK.

    Row u is user ``users[u]``: its labels are ``labels[offsets[u]:offsets[u + 1]]``,
    with the parallel ``onto_codes`` indexing ``onto_pool``, distinct names in
    sorted order (-1 at BREAK slots and for actions without resource
    attribution), and its session lengths are
    ``session_lengths[session_offsets[u]:session_offsets[u + 1]]``.
    """

    users: list[str]
    offsets: np.ndarray
    labels: np.ndarray
    onto_codes: np.ndarray
    onto_pool: list[str]
    session_lengths: np.ndarray
    session_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "TraceSet":
        """Build from per-user ``traces.jsonl`` records.

        A record whose ``ontologies`` and ``sequence`` differ in length raises ``ValueError``.
        """
        rows = list(rows)
        bad = [row["user"] for row in rows if len(row["ontologies"]) != len(row["sequence"])]
        if bad:
            raise ValueError(f"trace of {bad[0]!r}: ontologies and sequence differ in length")
        pool = sorted({name for row in rows for name in row["ontologies"]} - {None})
        code = {None: -1, **{name: c for c, name in enumerate(pool)}}
        labels, offsets = _column(rows, "sequence")
        lengths, session_offsets = _column(rows, "session_lengths")
        names = chain.from_iterable(row["ontologies"] for row in rows)
        onto = np.fromiter(map(code.__getitem__, names), dtype=np.int64)
        return cls([row["user"] for row in rows], offsets, labels, onto, pool, lengths, session_offsets)

    def rows(self) -> Iterator[dict]:
        """Each user's trace as its ``traces.jsonl`` record, in row order."""
        names = np.array(self.onto_pool + [None], dtype=object)  # code -1 -> None
        bounds, sessions = self.offsets.tolist(), self.session_offsets.tolist()
        for u, user in enumerate(self.users):
            lo, hi = bounds[u], bounds[u + 1]
            yield {
                "user": user,
                "sequence": self.labels[lo:hi].tolist(),
                "ontologies": names[self.onto_codes[lo:hi]].tolist(),
                "session_lengths": self.session_lengths[sessions[u]:sessions[u + 1]].tolist(),
            }

    def action_counts(self, break_label: int) -> np.ndarray:
        """Number of non-BREAK tokens of each row."""
        breaks = np.searchsorted(np.flatnonzero(self.labels == break_label), self.offsets)
        return np.diff(self.offsets) - np.diff(breaks)


@dataclass(slots=True)
class UsageStats:
    """Corpus-level histograms and session scalars.

    Histograms map an integer value to its occurrence count. Session
    duration of a 1-event session is 0 seconds.
    """

    users: int = 0
    total_events: int = 0
    session_count: int = 0
    single_request_sessions: int = 0
    mean_session_duration: float = 0.0
    median_session_duration: float = 0.0
    inter_request_seconds: dict[int, int] = field(default_factory=dict)
    requests_per_user: dict[int, int] = field(default_factory=dict)
    ontologies_per_user: dict[int, int] = field(default_factory=dict)
    requests_per_session: dict[int, int] = field(default_factory=dict)


def _histogram(values: np.ndarray) -> dict[int, int]:
    keys, counts = np.unique(values, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


def _by_name(pool: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct names of ``pool`` in sorted order, and each entry's index among them."""
    names = sorted(set(pool))
    rank = {name: r for r, name in enumerate(names)}
    return names, np.array([rank[name] for name in pool], dtype=np.int64)


def _split(batch: EventBatch, gap_seconds: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable (user id, timestamp) order of the events, and where users and sessions start in it."""
    users = _by_name(batch.user_pool)[1][batch.user_codes]
    order = np.lexsort((batch.timestamps, users))  # stable: ties keep input order
    users = users[order]
    user_start = np.ones(len(order), dtype=bool)
    user_start[1:] = users[1:] != users[:-1]
    session_start = user_start.copy()
    session_start[1:] |= np.diff(batch.timestamps[order]) >= gap_seconds
    return order, user_start, session_start


def _usage_stats(
    ts: np.ndarray, onto: np.ndarray, n_onto: int, user_start: np.ndarray, starts: np.ndarray,
) -> UsageStats:
    """Usage statistics of the sorted events; ``starts`` are the sessions' first events."""
    n_events = len(ts)
    first = np.flatnonzero(user_start)
    ends = np.append(starts[1:], n_events)
    lengths = ends - starts
    durations = ts[ends - 1] - ts[starts]
    # distinct ontologies per user, from the distinct (user, ontology) keys;
    # return_counts keeps np.unique on its sort route, which never imports numpy.ma
    stride = max(n_onto, 1)
    attributed = onto >= 0
    keys = np.unique((np.cumsum(user_start) - 1)[attributed] * stride + onto[attributed],
                     return_counts=True)[0]
    return UsageStats(
        users=len(first),
        total_events=n_events,
        session_count=len(starts),
        single_request_sessions=int((lengths == 1).sum()),
        mean_session_duration=int(durations.sum()) / len(durations),
        median_session_duration=float(np.median(durations)),
        inter_request_seconds=_histogram(np.diff(ts)[~user_start[1:]]),
        requests_per_user=_histogram(np.diff(np.append(first, n_events))),
        ontologies_per_user=_histogram(np.bincount(keys // stride, minlength=len(first))),
        requests_per_session=_histogram(lengths),
    )


def build_traces(
    batch: EventBatch,
    break_label: int,
    gap_minutes: float = DEFAULT_GAP_MINUTES,
) -> tuple[TraceSet, UsageStats]:
    """Sessionize every user of ``batch``; return the traces and usage statistics.

    Trace rows are sorted by user id. Within a user, events are ordered
    by timestamp, ties in input order; a gap of ``gap_minutes`` or more
    starts a new session. Inter-request gaps include the gaps between a
    user's sessions (the histogram that motivates the threshold in the
    first place). An empty batch gives no traces and zero statistics.
    Raises ``ValueError`` unless ``gap_minutes > 0``.
    """
    if not gap_minutes > 0:  # NaN too: no gap would ever split a session
        raise ValueError(f"gap_minutes must be > 0, got {gap_minutes}")
    n_events = len(batch)
    if n_events == 0:
        return TraceSet.from_rows([]), UsageStats()
    order, user_start, session_start = _split(batch, gap_minutes * 60.0)
    starts = np.flatnonzero(session_start)
    pool, rank = _by_name(batch.onto_pool)  # one code per name, as in from_rows
    events_onto = np.append(rank, -1)[batch.onto_codes[order]]
    usage = _usage_stats(batch.timestamps[order], events_onto, len(pool), user_start, starts)

    # event i moves right by one slot for every BREAK at or before it
    breaks = session_start & ~user_start
    slot = np.arange(n_events) + np.cumsum(breaks)
    labels = np.full(n_events + int(breaks.sum()), break_label, dtype=np.int64)
    labels[slot] = batch.labels[order]
    onto = np.full(len(labels), -1, dtype=np.int64)
    onto[slot] = events_onto
    first = np.flatnonzero(user_start)
    return TraceSet(
        users=[batch.user_pool[code] for code in batch.user_codes[order[first]].tolist()],
        offsets=np.append(slot[first], len(labels)),
        labels=labels,
        onto_codes=onto,
        onto_pool=pool,
        session_lengths=np.diff(np.append(starts, n_events)),
        session_offsets=np.append(np.flatnonzero(user_start[starts]), len(starts)),
    ), usage

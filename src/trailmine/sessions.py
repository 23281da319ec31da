"""Session segmentation, BREAK-joined user traces, and corpus statistics.

A session is a maximal run of one user's events in which every adjacent
gap is below the inactivity threshold (default 30 minutes). A user's
trace is the concatenation of the session label sequences with one BREAK
token between consecutive sessions.

:func:`build_traces` is the one place this rule lives. It works on the
columnar event batch in one array pass: a stable sort by (user,
timestamp), session starts from the user changes and the timestamp
gaps, BREAK slots by index arithmetic, and each user's trace as a slice
of the resulting flat label and ontology arrays. The usage statistics
come from the same arrays; gaps between two different users' events
count neither as session splits nor as inter-request gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .pipeline import EventBatch

__all__ = [
    "UserTrace",
    "UsageStats",
    "build_traces",
]

DEFAULT_GAP_MINUTES = 30.0


@dataclass(slots=True)
class UserTrace:
    """A user's full chronological action sequence, sessions joined by BREAK.

    ``ontologies`` parallels ``sequence`` (None at BREAK positions and for
    actions that carry no resource attribution).
    """

    user: str
    sequence: list[int]
    ontologies: list[str | None]
    session_count: int
    session_lengths: list[int]

    def __len__(self) -> int:
        return len(self.sequence)

    def action_count(self, break_label: int) -> int:
        """Number of non-BREAK tokens."""
        return len(self.sequence) - self.sequence.count(break_label)


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


def _split(batch: EventBatch, gap_seconds: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable (user id, timestamp) order of the events, and where users and sessions start in it."""
    rank = {name: r for r, name in enumerate(sorted(set(batch.user_pool)))}
    users = np.array([rank[name] for name in batch.user_pool], dtype=np.int64)[batch.user_codes]
    order = np.lexsort((batch.timestamps, users))  # stable: ties keep input order
    users = users[order]
    user_start = np.ones(len(order), dtype=bool)
    user_start[1:] = users[1:] != users[:-1]
    session_start = user_start.copy()
    session_start[1:] |= np.diff(batch.timestamps[order]) >= gap_seconds
    return order, user_start, session_start


def _usage_stats(
    batch: EventBatch, order: np.ndarray, user_start: np.ndarray, starts: np.ndarray,
) -> UsageStats:
    """Usage statistics of the sorted events; ``starts`` are the sessions' first events."""
    n_events = len(order)
    ts = batch.timestamps[order]
    onto = batch.onto_codes[order]
    first = np.flatnonzero(user_start)
    ends = np.append(starts[1:], n_events)
    lengths = ends - starts
    durations = ts[ends - 1] - ts[starts]
    # distinct ontologies per user, from the distinct (user, ontology) keys
    stride = max(len(batch.onto_pool), 1)
    attributed = onto >= 0
    keys = np.unique((np.cumsum(user_start) - 1)[attributed] * stride + onto[attributed])
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
) -> tuple[list[UserTrace], UsageStats]:
    """Sessionize every user of ``batch``; return the traces and usage statistics.

    Traces are sorted by user id. Within a user, events are ordered by
    timestamp, ties in input order; a gap of ``gap_minutes`` or more
    starts a new session. Inter-request gaps include the gaps between a
    user's sessions (the histogram that motivates the threshold in the
    first place). An empty batch gives no traces and zero statistics.
    """
    n_events = len(batch)
    if n_events == 0:
        return [], UsageStats()
    order, user_start, session_start = _split(batch, gap_minutes * 60.0)
    starts = np.flatnonzero(session_start)
    usage = _usage_stats(batch, order, user_start, starts)

    # event i moves right by one slot for every BREAK at or before it
    breaks = session_start & ~user_start
    slot = np.arange(n_events) + np.cumsum(breaks)
    labels = np.full(n_events + int(breaks.sum()), break_label, dtype=np.int64)
    labels[slot] = batch.labels[order]
    onto = np.full(len(labels), -1, dtype=np.int64)
    onto[slot] = batch.onto_codes[order]
    onto_names = np.array(batch.onto_pool + [None], dtype=object)  # code -1 -> None

    first = np.flatnonzero(user_start)
    bounds = np.append(slot[first], len(labels)).tolist()
    user_sessions = np.append(np.flatnonzero(user_start[starts]), len(starts)).tolist()
    lengths = np.diff(np.append(starts, n_events)).tolist()
    first_codes = batch.user_codes[order[first]].tolist()
    # free the corpus-length index arrays before the per-user lists are
    # made, so that those reuse the memory (about 0.7 MB less peak RSS
    # on a 38k-event corpus)
    del order, slot
    traces = [
        UserTrace(
            user=batch.user_pool[code],
            sequence=labels[bounds[k]:bounds[k + 1]].tolist(),
            ontologies=onto_names[onto[bounds[k]:bounds[k + 1]]].tolist(),
            session_count=user_sessions[k + 1] - user_sessions[k],
            session_lengths=lengths[user_sessions[k]:user_sessions[k + 1]],
        )
        for k, code in enumerate(first_codes)
    ]
    return traces, usage

"""Bulk ingest: log files parsed, filtered and mapped into one columnar event batch.

Ingest has one pass, :func:`_ingest_lines`, for every route. It takes the
lines in fixed-size chunks: each line is matched against the grammar, the
timestamps of a chunk are decoded as arrays, and each distinct date,
request and user agent is decided once, from bounded tables kept across
chunks, not once per line; each IP once per call, with its user code.
Parsing and mapping are pure per line, so with ``jobs`` processes each
plain file is read as up to ``jobs * 16`` byte ranges: this process and
helper processes forked with ``os.fork``
(:mod:`trailmine.helpers`), no more in all than there are CPUs to run
them, each take the next range as they finish one, and the parts are
concatenated in path order. The elbow shares each K's restarts with
helpers likewise (see :mod:`trailmine.cluster`). Where there is no
``os.fork``, :meth:`~trailmine.pipeline.PipelineConfig.validate` rejects
``jobs > 1`` before any stage runs. :func:`~trailmine.sessions.build_traces`
is the one place that gives users and ontologies their final codes, by
name, and its stable (user, timestamp) sort keeps the path order between
a user's events of one second.
"""

from __future__ import annotations

import io
import os
from dataclasses import asdict, dataclass, fields
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence
from urllib.parse import unquote

import numpy as np

from .actions import RuleSet, default_ruleset
from .helpers import receive, shared_counter, start_helpers, usable_cpus
from .logs import (
    CompiledFilter, InvalidTimestamp, MalformedLine, _EPOCH_MAX, _EPOCH_MIN, _split_request,
    _text_lines, default_filter_config, ingest_pattern, line_pattern, open_log, parse_clf_timestamp,
)

__all__ = ["IngestStats", "EventBatch", "ingest_paths"]


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
    million-event batches cheap to move between helper processes. A
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
# Distinct values whose verdicts each _Verdicts table keeps; _Table.decide
# empties a table at a chunk start once it holds this many.
_VERDICTS_MAX = 1 << 18
# request verdicts that are not a label id
_MALFORMED, _ASSET, _UNMAPPED = -3, -2, -1
# the date and offset columns of a 26-character timestamp field
_DATE_COLUMNS = [*range(12), *range(20, 26)]


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


class _Table(dict):
    """Each value's code, handed out in first-appearance order, and its verdict at that row of ``rows``."""

    rows = np.empty(0)

    def __init__(self, verdict: Callable[[str], object]):
        super().__init__()
        self.verdict = verdict

    def __missing__(self, value: str) -> int:
        code = len(self)
        row = self.verdict(value)
        if not len(self.rows):  # the first verdict sets the dtype and row shape
            first = np.asarray(row)
            self.rows = np.empty((64, *first.shape), first.dtype)
        elif code == len(self.rows):
            self.rows = np.concatenate((self.rows, np.empty_like(self.rows)))
        self.rows[code] = row
        self[value] = code
        return code

    def codes(self, values: Sequence[str]) -> np.ndarray:
        """The code of each value: one table probe per value."""
        return np.fromiter(map(self.__getitem__, values), np.int64, len(values))

    def decide(self, values: Sequence[str]) -> np.ndarray:
        """Each value's verdict row; a table of ``_VERDICTS_MAX`` is emptied first, at a chunk start."""
        if len(self) >= _VERDICTS_MAX:
            self.clear()
        codes = self.codes(values)  # may grow self.rows
        return self.rows[codes]


class _Verdicts:
    """The filter of an ingest, with bounded tables of date, request and user-agent verdicts.

    One set of tables serves every chunk of every :func:`_ingest_lines`
    call that shares it: all tasks of one process's share of an
    ``ingest_paths`` call. Ontology ids are handed out as requests are
    decided, so one id keeps its ontology across those calls. A date key
    is taken only from a 26-character timestamp field, or from a field on
    its own (see :func:`_decode_timestamps`).
    """

    def __init__(self, ruleset: RuleSet, filt: CompiledFilter):
        onto_ids: dict[str, int] = {}
        self.filt, self.onto_ids = filt, onto_ids

        def request_verdict(request: str) -> tuple[int, int]:  # no self: a cycle would outlive the ingest
            return _request_verdict(request, ruleset, filt, onto_ids)

        self.date = _Table(_midnight)
        self.request = _Table(request_verdict)
        self.useragent = _Table(filt.ua_dropped)


def _decode_timestamps(stamps: Sequence[str], date_verdicts: _Table) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each timestamp field, and a mask of the valid ones.

    The fields are read as one ``U26`` code-point matrix. Rows whose 18
    date and offset columns equal the row before form a run, and
    ``date_verdicts`` decides the date and offset of a run's first field
    by :func:`_midnight`, once per distinct key. ``U26`` truncates a
    longer field, so a field that is not 26 characters long starts a run
    and so does the row after it; its key is then not 18 characters and fails. The time of
    day is read from the digit columns under the rules of
    :func:`parse_clf_timestamp`. An instant outside the UTC years 1-9999
    is not valid, as in :func:`~trailmine.logs.parse_log_line`.
    """
    n = len(stamps)
    chars = np.array(stamps, dtype="U26").view(np.uint32).reshape(n, 26)
    odd = np.fromiter(map(len, stamps), np.int64, n) != 26
    dates = chars[:, _DATE_COLUMNS]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = (dates[1:] != dates[:-1]).any(axis=1) | odd[1:] | odd[:-1]
    keys = [stamps[i][:12] + stamps[i][20:] for i in np.flatnonzero(starts).tolist()]
    midnight, date_ok = date_verdicts.decide(keys)[np.cumsum(starts) - 1].T
    digits = chars[:, [12, 13, 15, 16, 18, 19]] - ord("0")  # wraps below "0"
    hh, mm, ss = (digits[:, i].astype(np.int64) * 10 + digits[:, i + 1] for i in (0, 2, 4))
    epochs = midnight + hh * 3600 + mm * 60 + ss
    valid = (
        (date_ok == 1) & (digits < 10).all(axis=1)
        & (chars[:, 14] == ord(":")) & (chars[:, 17] == ord(":"))
        & (hh < 24) & (mm < 60) & (ss < 61)
        # one compare for both ends: an instant before _EPOCH_MIN wraps to a large offset
        & ((epochs - _EPOCH_MIN).view(np.uint64) <= _EPOCH_MAX - _EPOCH_MIN)
    )
    return epochs, valid


def _ingest_lines(
    lines: Iterable[str], verdicts: _Verdicts, log_format: str,
) -> tuple[EventBatch, IngestStats]:
    """Parse, filter and map raw lines, one chunk of ``_CHUNK_LINES`` at a time.

    Each chunk is matched line by line against the grammar's ingest form
    (:func:`~trailmine.logs.ingest_pattern`), which captures only the IP,
    timestamp, request and user-agent fields. Timestamps are decoded
    as arrays (:func:`_decode_timestamps`): a date and offset is decided
    once per run of rows that share them, and a field that is not 26
    characters long is a run of its own. Each distinct date, request
    and user agent is decided once per ``verdicts`` (see
    :class:`_Verdicts`); a request is split, decoded, asset-checked and
    matched to a rule. The user of an event is its IP field, coded in
    first-appearance order by one table per call, whose probe decides
    each IP once too. Each value costs one probe. The verdicts combine
    as boolean arrays in the precedence malformed, user agent, IP,
    asset, unmapped. The pools hold every IP this call saw and every
    ontology ``verdicts`` handed an id.
    """
    stats = IngestStats()
    pattern = ingest_pattern(log_format)
    match = pattern.match
    columns = [itemgetter(i) for i in range(pattern.groups)]
    user_ids = _Table(verdicts.filt.ip_dropped)  # each IP's user code, in first-appearance order
    parts: list[tuple[np.ndarray, ...]] = []
    it = iter(lines)
    while chunk := list(islice(it, _CHUNK_LINES)):
        stats.lines += len(chunk)
        rows = [m.groups() for m in map(match, chunk) if m is not None]
        stats.malformed += len(chunk) - len(rows)
        del chunk  # only the fields are kept
        if not rows:
            continue
        ips, stamps, requests, *uas = (list(map(column, rows)) for column in columns)
        useragents = uas[0] if uas else [""] * len(rows)  # "common" has no user agent
        epochs, ok = _decode_timestamps(stamps, verdicts.date)
        labels, ontos = verdicts.request.decide(requests).T
        ok &= labels != _MALFORMED
        stats.malformed += len(rows) - int(ok.sum())
        stats.parsed += int(ok.sum())
        ip_codes = user_ids.codes(ips)
        drops = (
            ("dropped_useragent", verdicts.useragent.decide(useragents)),
            ("dropped_ip", user_ids.rows[ip_codes]),
            ("dropped_asset", labels == _ASSET),
            ("unmapped", labels == _UNMAPPED),
        )
        for counter, dropped in drops:
            setattr(stats, counter, getattr(stats, counter) + int((ok & dropped).sum()))
            ok &= ~dropped
        mapped = np.flatnonzero(ok)
        parts.append((ip_codes[mapped], epochs[mapped], labels[mapped], ontos[mapped]))
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


def _ingest_claimed(
    next_index: Callable[[], int], tasks: Sequence[tuple[str, int, int | None]],
    ruleset: RuleSet, filt: CompiledFilter, log_format: str,
) -> list[tuple[int, tuple[EventBatch, IngestStats]]]:
    """(index, part) of each task ``next_index`` hands this process, from one set of verdict tables."""
    verdicts = _Verdicts(ruleset, filt)
    parts = []
    while (i := next_index()) < len(tasks):
        parts.append((i, _ingest_task(tasks[i], verdicts, log_format)))
    return parts


def _send_claimed(send: Callable, *args) -> None:
    # a helper's parts; each batch is factorized, so it pickles as small string pools plus index arrays
    send(_ingest_claimed(*args))


# Byte ranges per job that a plain file is cut into when jobs > 1, each of at
# least _MIN_RANGE_BYTES when the file is large enough. Each process takes the
# next range as it finishes one, so it idles at the end for about one range
# at most: on a 1 M-line file at jobs=4 on 2 CPUs, the caller's wait for the
# helper was up to 0.3 s of a 2-3 s ingest at 4 ranges per job, and 0.06-0.17 s
# at 16, the helper's transfer of its parts included.
_RANGES_PER_JOB = 16
_MIN_RANGE_BYTES = 1 << 20


def _chunk_file(path: str, jobs: int) -> list[tuple[str, int, int]]:
    """Byte ranges aligned to line boundaries, for ``jobs`` processes to take one at a time."""
    size = os.path.getsize(path)
    if size == 0:
        return []
    ranges = max(jobs, min(jobs * _RANGES_PER_JOB, size // _MIN_RANGE_BYTES))
    approx = max(1, size // ranges)
    offsets = [0]
    with open(path, "rb") as fh:
        for i in range(1, ranges):
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
    ``jobs > 1`` a plain-text file is split into up to ``jobs * 16`` byte
    ranges of whole lines instead (:func:`_chunk_file`), and a gzip file
    stays whole. This process and ``min(jobs, tasks, usable CPUs) - 1``
    helper processes (:func:`~trailmine.helpers.start_helpers`) each take
    the next task not yet taken (:func:`~trailmine.helpers.shared_counter`)
    until none is left. Each process decides with its own verdict tables.
    The parts are merged in task order, so events of one user keep the
    order of the paths. A helper's error is raised here with its own
    type. With ``jobs > 1``, set ``OPENBLAS_NUM_THREADS=1`` before NumPy
    loads, as :mod:`trailmine.cli` does, for one BLAS thread in each
    process. ``filt`` defaults to the shipped lists compiled. Raises
    ``ValueError`` for an unknown ``log_format``.
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
    n = max(1, min(jobs, len(tasks), usable_cpus()))
    with shared_counter() as next_index:
        args = (next_index, tasks, ruleset, filt, log_format)
        with start_helpers(_send_claimed, [args] * (n - 1)) as conns:
            parts = _ingest_claimed(*args)
            for conn in conns:
                parts += receive(conn)
    results = [part for _, part in sorted(parts, key=itemgetter(0))]
    stats = IngestStats()
    for _, part_stats in results:
        stats.merge(part_stats)
    return EventBatch.merge([part for part, _ in results]), stats

from dataclasses import asdict

import numpy as np
import pytest

from testutil import naive_sessionize, naive_traces, naive_traces_jsonl
from trailmine.logs import parse_log_line
from trailmine.pipeline import EventBatch, read_traces_jsonl, write_traces_jsonl
from trailmine.sessions import TraceSet, build_traces

BREAK = 33

# the nine requests of the worked session example
EXAMPLE_LINES = [
    '1.2.3.4 - - [14/Mar/2016:09:07:32 -0700] "GET / HTTP/1.1" 200 1 "-" "ua"',
    '1.2.3.4 - - [14/Mar/2016:09:07:46 -0700] "GET /login?redirect=http%3A%2F%2Fbioportal.bioontology.org%2F HTTP/1.1" 200 1 "-" "ua"',
    '1.2.3.4 - - [14/Mar/2016:09:07:48 -0700] "POST /login HTTP/1.1" 200 1 "-" "ua"',
    '1.2.3.4 - - [14/Mar/2016:09:07:50 -0700] "GET / HTTP/1.1" 200 1 "-" "ua"',
    '1.2.3.4 - - [14/Mar/2016:09:08:04 -0700] "GET /ontologies/MCCV HTTP/1.1" 200 1 "-" "ua"',
    '1.2.3.4 - - [14/Mar/2016:09:08:22 -0700] "GET /ontologies/MCCV/submissions/new HTTP/1.1" 200 1 "-" "ua"',
    '1.2.3.4 - - [14/Mar/2016:09:09:34 -0700] "POST /ontologies/MCCV/submissions HTTP/1.1" 200 1 "-" "ua"',
    '1.2.3.4 - - [14/Mar/2016:09:09:59 -0700] "GET /ontologies/success/MCCV HTTP/1.1" 200 1 "-" "ua"',
    '1.2.3.4 - - [14/Mar/2016:09:10:14 -0700] "GET /ontologies/MCCV HTTP/1.1" 200 1 "-" "ua"',
]

EXAMPLE_SEQUENCE = [
    "Browse Main Page", "Login", "Login", "Browse Main Page", "Ontology Summary",
    "Create Ontology Submission", "Create Ontology Submission",
    "Create Ontology Submission", "Ontology Summary",
]


def make_batch(timestamps, labels=None, users=None, ontologies=None, user_pool=None):
    """An event batch from parallel per-event lists, in input order.

    ``users`` defaults to one user "u", ``labels`` to 0 and ``ontologies``
    (acronyms or None) to None. ``user_pool`` fixes the pool order; it may
    hold users without events.
    """
    n = len(timestamps)
    labels = [0] * n if labels is None else labels
    users = ["u"] * n if users is None else users
    ontologies = [None] * n if ontologies is None else ontologies
    user_pool = list(dict.fromkeys(users)) if user_pool is None else user_pool
    onto_pool = list(dict.fromkeys(o for o in ontologies if o is not None))
    return EventBatch(
        user_pool=user_pool,
        user_codes=np.array([user_pool.index(u) for u in users], dtype=np.int64),
        timestamps=np.array(timestamps, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        onto_pool=onto_pool,
        onto_codes=np.array([-1 if o is None else onto_pool.index(o) for o in ontologies],
                            dtype=np.int64),
    )


def example_batch(ruleset):
    records = [parse_log_line(line) for line in EXAMPLE_LINES]
    hits = [ruleset.match(r.method, r.path) for r in records]
    return make_batch([r.epoch for r in records], [label for label, _ in hits],
                      [r.ip for r in records], [onto for _, onto in hits])


def one_trace(timestamps, labels=None):
    """The ``traces.jsonl`` record of a one-user batch."""
    traces, _ = build_traces(make_batch(timestamps, labels), BREAK)
    (trace,) = traces.rows()
    return trace


def split_sessions(sequence):
    """The label runs between BREAK tokens."""
    sessions, current = [], []
    for label in sequence:
        if label == BREAK:
            sessions.append(current)
            current = []
        else:
            current.append(label)
    return sessions + [current]


def test_worked_example_is_one_session(ruleset):
    traces, usage = build_traces(example_batch(ruleset), ruleset.vocabulary.break_id)
    assert len(traces) == 1
    (trace,) = traces.rows()
    assert trace["session_lengths"] == [9]
    assert usage.mean_session_duration == 162
    names = [ruleset.vocabulary[i].name for i in trace["sequence"]]
    assert names == EXAMPLE_SEQUENCE


def test_gap_threshold_boundary():
    # 31 minutes apart: two singleton sessions
    assert one_trace([0, 31 * 60])["session_lengths"] == [1, 1]
    # exactly the threshold splits, one second less does not
    assert len(one_trace([0, 1800])["session_lengths"]) == 2
    assert len(one_trace([0, 1799])["session_lengths"]) == 1


@pytest.mark.parametrize("gap", [0, -5, float("nan")])
def test_gap_not_above_zero_is_rejected(gap):
    # a gap of 0 or less would make every event its own session, NaN none
    for timestamps in ([0, 60, 120], []):
        with pytest.raises(ValueError, match="gap_minutes must be > 0"):
            build_traces(make_batch(timestamps), BREAK, gap)


def test_sessionize_matches_naive_splitter():
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        n = int(rng.integers(1, 25))
        gaps = rng.choice([0, 1, 5, 600, 1799, 1800, 1801, 4000], size=n - 1) if n > 1 else []
        ts = np.concatenate([[0], np.cumsum(gaps)]).astype(int) if n > 1 else np.array([0])
        lengths_got = one_trace(ts.tolist())["session_lengths"]
        lengths_want = [len(s) for s in naive_sessionize(list(ts), 1800)]
        assert lengths_got == lengths_want


def test_sessionize_partition_and_gap_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        ts = np.cumsum(rng.integers(0, 2600, size=n)).astype(int)
        trace = one_trace(ts.tolist(), labels=[BREAK + 1 + i for i in range(n)])
        sessions = [[label - BREAK - 1 for label in s] for s in split_sessions(trace["sequence"])]
        assert [i for s in sessions for i in s] == list(range(n))  # partition, order preserved
        assert [len(s) for s in sessions] == trace["session_lengths"]
        for s in sessions:
            for a, b in zip(s, s[1:]):
                assert ts[b] - ts[a] < 1800
        for s1, s2 in zip(sessions, sessions[1:]):
            assert ts[s2[0]] - ts[s1[-1]] >= 1800


def test_ties_keep_order():
    assert one_trace([10, 10, 10], labels=[1, 2, 3])["sequence"] == [1, 2, 3]
    # out-of-order input: ties still keep input order after the sort
    assert one_trace([20, 10, 10, 20], labels=[1, 2, 3, 4])["sequence"] == [2, 3, 1, 4]


def test_trace_break_counting():
    # one session: no BREAK
    t = one_trace([0, 1])
    assert len(t["session_lengths"]) == 1 and BREAK not in t["sequence"]
    # k singleton sessions: length 2k-1 with k-1 BREAKs
    k = 6
    t = one_trace([i * 4000 for i in range(k)])
    assert len(t["sequence"]) == 2 * k - 1
    assert t["sequence"].count(BREAK) == k - 1 == len(t["session_lengths"]) - 1


def test_trace_break_placement_property():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        ts = np.cumsum(rng.integers(0, 3000, size=n)).astype(int)
        labels = rng.integers(0, 5, size=n).tolist()
        t = one_trace(ts.tolist(), labels)
        assert len(t["sequence"]) == sum(t["session_lengths"]) + len(t["session_lengths"]) - 1
        assert t["sequence"][0] != BREAK and t["sequence"][-1] != BREAK
        for a, b in zip(t["sequence"], t["sequence"][1:]):
            assert not (a == BREAK and b == BREAK)
        assert len(t["ontologies"]) == len(t["sequence"])


def test_gap_between_users_is_no_session_split_nor_gap():
    # b's request falls inside a's session; a's two requests are 200 s apart
    traces, usage = build_traces(make_batch([0, 100, 200], users=["a", "b", "a"]), BREAK)
    assert [(t["user"], t["session_lengths"]) for t in traces.rows()] == [("a", [2]), ("b", [1])]
    assert usage.inter_request_seconds == {200: 1}
    # users far apart in time: one session each and no inter-request gap at all
    traces, usage = build_traces(make_batch([0, 10_000], users=["a", "b"]), BREAK)
    rows = list(traces.rows())
    assert [len(t["session_lengths"]) for t in rows] == [1, 1] and BREAK not in rows[0]["sequence"]
    assert usage.inter_request_seconds == {} and usage.session_count == 2


def test_pool_entries_with_one_name_are_one_user():
    batch = EventBatch(["a", "b", "a"], np.array([2, 1, 0, 2]), np.array([30, 0, 10, 20]),
                       np.array([3, 1, 0, 2]), [], np.full(4, -1))
    traces, usage = build_traces(batch, BREAK)
    assert [(t["user"], t["sequence"]) for t in traces.rows()] == [("a", [0, 2, 3]), ("b", [1])]
    assert usage.users == 2 and usage.inter_request_seconds == {10: 2}
    # likewise two ontology-pool entries with one name are one resource
    batch.onto_pool, batch.onto_codes = ["Z", "idle", "Y", "Z"], np.array([0, 2, 3, -1])
    traces, usage = build_traces(batch, BREAK)
    assert traces.onto_pool == ["Y", "Z", "idle"] and traces.onto_codes.tolist() == [1, -1, 1, 0]
    assert [t["ontologies"] for t in traces.rows()] == [["Z", None, "Z"], ["Y"]]
    assert usage.ontologies_per_user == {1: 2}


def test_stats_single_event_corpus():
    _, stats = build_traces(make_batch([5]), BREAK)
    assert stats.session_count == 1
    assert stats.single_request_sessions == 1
    assert stats.median_session_duration == 0.0
    assert stats.requests_per_session == {1: 1}
    assert stats.total_events == 1


def test_stats_worked_example(ruleset):
    _, stats = build_traces(example_batch(ruleset), ruleset.vocabulary.break_id)
    assert stats.requests_per_session == {9: 1}
    assert stats.mean_session_duration == 162.0
    assert stats.ontologies_per_user == {1: 1}  # only MCCV


def test_stats_consistency_invariant():
    rng = np.random.default_rng(11)
    users, ts = [], []
    for u in range(40):
        n = int(rng.integers(1, 30))
        users += [f"u{u}"] * n
        ts += np.cumsum(rng.integers(0, 2600, size=n)).tolist()
    _, stats = build_traces(make_batch(ts, users=users), BREAK)
    mass = sum(k * c for k, c in stats.requests_per_session.items())
    assert mass == stats.total_events
    assert sum(stats.requests_per_user.values()) == stats.users == 40
    assert sum(stats.requests_per_session.values()) == stats.session_count


def random_corpus(rng):
    """Users interleaved and shuffled, shared timestamps, boundary gaps, mixed attribution."""
    n_users = int(rng.integers(1, 12))
    names = [f"{rng.choice(list('zyxab'))}{i}" for i in rng.permutation(n_users)]
    events = []
    for name in names:
        n = 1 if rng.random() < 0.25 else int(rng.integers(1, 20))  # many single-event users
        gaps = rng.choice([0, 1, 5, 600, 1799, 1800, 1801, 4000], size=n - 1)
        start = int(rng.choice([0, 100, 1800]))  # users share timestamps
        for t in np.concatenate([[start], start + np.cumsum(gaps)]).tolist():
            onto = rng.choice(["MCCV", "CPT", "GO", None])
            events.append((name, t, int(rng.integers(0, 6)), onto))
    events = [events[i] for i in rng.permutation(len(events))]
    pool = names + ["idle"]  # a pool entry without events gets no trace
    pool = [pool[i] for i in rng.permutation(len(pool))]
    return [list(column) for column in zip(*events)], pool


def test_build_traces_matches_naive_reference():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        (users, ts, labels, ontologies), pool = random_corpus(rng)
        batch = make_batch(ts, labels, users, ontologies, user_pool=pool)
        traces, usage = build_traces(batch, BREAK, gap_minutes=30.0)
        want_traces, want_usage = naive_traces(users, ts, labels, ontologies, BREAK, 1800)
        assert list(traces.rows()) == want_traces
        assert asdict(usage) == want_usage


def test_traces_jsonl_bytes_match_naive_writer(tmp_path):
    """The flat writer gives the per-user ``json.dumps`` bytes, and a read-back rewrites them."""
    rng = np.random.default_rng(77)
    path, again = tmp_path / "traces.jsonl", tmp_path / "again.jsonl"
    for _ in range(100):
        (users, ts, labels, ontologies), pool = random_corpus(rng)
        users = [u + '"\u00e9' if u.startswith("a") else u for u in users]  # escapes in names
        pool = [u + '"\u00e9' if u.startswith("a") else u for u in pool]
        traces, _ = build_traces(make_batch(ts, labels, users, ontologies, user_pool=pool), BREAK)
        write_traces_jsonl(traces, path)
        want, _ = naive_traces(users, ts, labels, ontologies, BREAK, 1800)
        assert path.read_bytes() == naive_traces_jsonl(want)
        write_traces_jsonl(read_traces_jsonl(path), again)
        assert again.read_bytes() == path.read_bytes()


def test_trace_set_rejects_misaligned_record():
    good = {"user": "a", "sequence": [1, 2], "ontologies": ["X", None], "session_lengths": [2]}
    bad = {"user": "b", "sequence": [1, 2], "ontologies": ["X"], "session_lengths": [2]}
    assert TraceSet.from_rows([good]).onto_codes.tolist() == [0, -1]
    with pytest.raises(ValueError, match="'b'"):
        TraceSet.from_rows([good, bad])


def test_empty_batch_has_no_traces():
    traces, usage = build_traces(make_batch([]), BREAK)
    assert len(traces) == 0 and list(traces.rows()) == [] and usage.users == usage.session_count == 0
    assert usage.inter_request_seconds == {}

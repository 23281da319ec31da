"""Shared helpers for the test suite."""

from __future__ import annotations

import json

import numpy as np


def purity(assignments, truth_labels) -> float:
    """Cluster purity: per cluster, count the majority truth label."""
    assignments = np.asarray(assignments)
    truth_labels = np.asarray(truth_labels)
    total = 0
    for k in np.unique(assignments):
        members = truth_labels[assignments == k]
        _, counts = np.unique(members, return_counts=True)
        total += counts.max()
    return total / len(truth_labels)


def stationary_oracle(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Independent stationary solve: smooth, normalize, solve the linear system."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.shape[0]
    W = counts + alpha / n
    P = W / W.sum(axis=1, keepdims=True)
    M = P.T - np.eye(n)
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def power_iteration(P: np.ndarray, tol: float = 1e-10, max_iter: int = 100_000) -> np.ndarray:
    """Reference stationary vector: pi <- pi P from the uniform start.

    Stops once the l1 residual ||pi P - pi||_1 drops to ``tol``; raises
    ``RuntimeError`` when ``max_iter`` steps do not get there.
    """
    n = P.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = pi @ P
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual <= tol:
            return pi / pi.sum()
    raise RuntimeError(f"power iteration: no convergence after {max_iter} steps")


def naive_sessionize(timestamps, gap_seconds):
    """Quadratic reference splitter: index partition by the gap rule."""
    sessions = []
    current = [0]
    for i in range(1, len(timestamps)):
        if timestamps[i] - timestamps[i - 1] >= gap_seconds:
            sessions.append(current)
            current = [i]
        else:
            current.append(i)
    if current:
        sessions.append(current)
    return sessions


def naive_traces(users, timestamps, labels, ontologies, break_label, gap_seconds):
    """Per-user loop reference for ``build_traces``: (traces, usage) as plain dicts.

    Each trace is the user's ``traces.jsonl`` record. Events arrive as parallel lists in input order. Each user's events are
    stably sorted by timestamp, split with :func:`naive_sessionize` and
    joined with one BREAK between sessions; the usage statistics walk the
    same per-user sessions, so no gap between two users is ever seen.
    """
    by_user = {}
    for event in zip(users, timestamps, labels, ontologies):
        by_user.setdefault(event[0], []).append(event)

    def bump(hist, value):
        hist[value] = hist.get(value, 0) + 1

    traces = []
    usage = {
        "users": 0, "total_events": 0, "session_count": 0, "single_request_sessions": 0,
        "inter_request_seconds": {}, "requests_per_user": {}, "ontologies_per_user": {},
        "requests_per_session": {},
    }
    durations = []
    for user in sorted(by_user):
        events = sorted(by_user[user], key=lambda e: e[1])  # stable: ties keep input order
        ts = [e[1] for e in events]
        sessions = [[events[i] for i in s] for s in naive_sessionize(ts, gap_seconds)]
        sequence, attributed = [], []
        for k, session in enumerate(sessions):
            if k:
                sequence.append(break_label)
                attributed.append(None)
            sequence += [e[2] for e in session]
            attributed += [e[3] for e in session]
            bump(usage["requests_per_session"], len(session))
            durations.append(session[-1][1] - session[0][1])
        traces.append({
            "user": user, "sequence": sequence, "ontologies": attributed,
            "session_lengths": [len(s) for s in sessions],
        })
        for a, b in zip(ts, ts[1:]):
            bump(usage["inter_request_seconds"], b - a)
        usage["users"] += 1
        usage["total_events"] += len(events)
        usage["session_count"] += len(sessions)
        usage["single_request_sessions"] += sum(len(s) == 1 for s in sessions)
        bump(usage["requests_per_user"], len(events))
        bump(usage["ontologies_per_user"], len({e[3] for e in events if e[3] is not None}))
    usage["mean_session_duration"] = sum(durations) / len(durations) if durations else 0.0
    durations.sort()
    mid = len(durations) // 2
    if not durations:
        usage["median_session_duration"] = 0.0
    elif len(durations) % 2:
        usage["median_session_duration"] = float(durations[mid])
    else:
        usage["median_session_duration"] = (durations[mid - 1] + durations[mid]) / 2
    return traces, usage


def naive_traces_jsonl(traces) -> bytes:
    """Reference ``traces.jsonl`` bytes: one ``json.dumps`` per user record."""
    return b"".join(
        json.dumps(
            {
                "user": t["user"],
                "sequence": t["sequence"],
                "ontologies": t["ontologies"],
                "session_lengths": t["session_lengths"],
            },
            separators=(",", ":"),
        ).encode("utf-8") + b"\n"
        for t in traces
    )


def naive_attribution(traces, threshold_pct, break_label):
    """Per-trace loop reference for ``extract_resource_traces``: resource -> users.

    A user counts under every resource holding at least ``threshold_pct``
    percent of the user's non-BREAK actions; users without any action
    count nowhere.
    """
    out = {}
    for t in traces:
        denom = len(t["sequence"]) - t["sequence"].count(break_label)
        if denom == 0:
            continue
        per_resource = {}
        for onto in t["ontologies"]:
            if onto is not None:
                per_resource[onto] = per_resource.get(onto, 0) + 1
        for resource, cnt in per_resource.items():
            if cnt * 100.0 >= threshold_pct * denom:
                out.setdefault(resource, []).append(t["user"])
    return out


def brute_force_two_partition_inertia(X: np.ndarray) -> float:
    """Exhaustive optimum over all 2-partitions (both sides non-empty)."""
    m = X.shape[0]
    best = np.inf
    for mask in range(1, 2 ** (m - 1)):
        sel = np.array([(mask >> i) & 1 for i in range(m)], dtype=bool)
        a, b = X[sel], X[~sel]
        inertia = ((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum()
        best = min(best, inertia)
    return float(best)


# Reference K-means: the Lloyd loop as first written, with np.add.at centroid
# sums, squared norms recomputed in every distance call and rng.choice for the
# k-means++ draws. The library's loop must reproduce it bit for bit.

def _ref_sqdist(X, C):
    d = (X * X).sum(1)[:, None] + (C * C).sum(1)[None, :] - 2.0 * (X @ C.T)
    return np.maximum(d, 0.0)


def _ref_kmeanspp_init(X, K, rng):
    m = X.shape[0]
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[rng.integers(m)]
    d2 = _ref_sqdist(X, centroids[:1]).ravel()
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centroids[k] = X[idx]
        d2 = np.minimum(d2, _ref_sqdist(X, centroids[k : k + 1]).ravel())
    return centroids


def reference_lloyd(X, K, rng, tol=1e-6, max_iter=300):
    """(centroids, assignments, inertia, n_iter, inertia history) of one run."""
    m, n = X.shape
    C = _ref_kmeanspp_init(X, K, rng)
    history = []
    it = 0
    for it in range(1, max_iter + 1):
        D = _ref_sqdist(X, C)
        assign = D.argmin(axis=1)
        history.append(float(D[np.arange(m), assign].sum()))
        sums = np.zeros((K, n))
        np.add.at(sums, assign, X)
        counts = np.bincount(assign, minlength=K)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            dist_own = D[np.arange(m), assign]
            order = np.argsort(-dist_own, kind="stable")
            for k, idx in zip(empty, order[: empty.size]):
                sums[k] = X[idx]
                counts[k] = 1
        newC = sums / counts[:, None]
        shift = float(np.sqrt(((newC - C) ** 2).sum(axis=1)).max())
        C = newC
        if shift < tol:
            break
    D = _ref_sqdist(X, C)
    assign = D.argmin(axis=1)
    inertia = float(D[np.arange(m), assign].sum())
    history.append(inertia)
    return C, assign, inertia, it, history


def reference_kmeans_fit(X, K, seed=0, restarts=10):
    """Best of ``restarts`` reference runs, each on ``default_rng([seed, r])``."""
    best = None
    for r in range(restarts):
        run = reference_lloyd(X, K, np.random.default_rng([seed, r]))
        if best is None or run[2] < best[2]:
            best = run
    return best


def reference_ev_curve(X, ks, seed=0, restarts=10, knee_fraction=0.1):
    """(points, knee) of the elbow over ``ks``, built on the reference fits."""
    total_ss = float(((X - X.mean(axis=0)) ** 2).sum())
    points = []
    for K in ks:
        if total_ss == 0.0:
            points.append((K, 1.0))
            continue
        model = reference_kmeans_fit(X, K, seed, restarts)
        points.append((K, min(1.0, max(0.0, 1.0 - model[2] / total_ss))))
    gains = {k1: ev1 - ev0 for (k0, ev0), (k1, ev1) in zip(points, points[1:]) if k1 == k0 + 1}
    knee = None
    if 2 in gains and gains[2] > 0:
        passing = [k for k, g in gains.items() if g > knee_fraction * gains[2]]
        knee = max(passing) if passing else ks[0]
    return points, knee


# Reference ingest: the fused per-line parse + filter + map loop as first
# written. The chunked pass of ``pipeline._ingest_lines`` must reproduce its
# EventBatch and IngestStats exactly.

def reference_ingest_lines(lines, ruleset, filt, log_format="combined"):
    """(EventBatch, IngestStats) of ``lines``, one line at a time."""
    from urllib.parse import unquote

    from trailmine.logs import (
        MalformedLine, _split_request, line_pattern, parse_clf_timestamp,
    )
    from trailmine.pipeline import EventBatch, IngestStats

    stats = IngestStats()
    user_pool, onto_pool = {}, {}
    ucodes, ts_list, label_list, ocodes = [], [], [], []
    line_re = line_pattern(log_format)
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
        ua = g[8] if log_format == "combined" else ""
        reason = filt.drop_reason(ua, g[0], path)
        if reason is not None:
            setattr(stats, f"dropped_{reason}", getattr(stats, f"dropped_{reason}") + 1)
            continue
        hit = ruleset.match(method, path)
        if hit is None:
            stats.unmapped += 1
            continue
        ucodes.append(user_pool.setdefault(g[0], len(user_pool)))
        ts_list.append(epoch)
        label_list.append(hit[0])
        ocodes.append(-1 if hit[1] is None else onto_pool.setdefault(hit[1], len(onto_pool)))
    stats.events = len(ucodes)
    batch = EventBatch(
        list(user_pool), np.asarray(ucodes, dtype=np.int64), np.asarray(ts_list, dtype=np.int64),
        np.asarray(label_list, dtype=np.int64), list(onto_pool), np.asarray(ocodes, dtype=np.int64),
    )
    return batch, stats


def reference_ingest_paths(paths, ruleset, filter_config, log_format="combined"):
    """The reference loop over each file in turn, merged as ``ingest_paths`` merges."""
    from trailmine.logs import open_log
    from trailmine.pipeline import EventBatch, IngestStats

    filt = filter_config.compile()
    parts, stats = [], IngestStats()
    for path in paths:
        with open_log(path) as fh:
            part, part_stats = reference_ingest_lines(fh, ruleset, filt, log_format)
        parts.append(part)
        stats.merge(part_stats)
    return EventBatch.merge(parts), stats

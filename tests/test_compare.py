import numpy as np
import pytest

from testutil import naive_attribution

from trailmine.compare import (
    TooFewResources,
    UnassignedUser,
    aggregate_cluster_actions,
    extract_resource_traces,
    project_resources,
    transition_diff,
)
from trailmine.markov import count_transitions
from trailmine.pca import RankDeficientWarning
from trailmine.sessions import TraceSet

BREAK = 33
N = 34


def _trace(user, pairs):
    """The ``traces.jsonl`` record of pairs: list of (label, ontology_or_None)."""
    return {
        "user": user,
        "sequence": [p[0] for p in pairs],
        "ontologies": [p[1] for p in pairs],
        "session_lengths": [],
    }


def _set(traces):
    return TraceSet.from_rows(traces)


def test_attribution_to_both_resources():
    pairs = [(12, "CPT")] * 5 + [(12, "RXNORM")] * 5
    ts = _set([_trace("u", pairs)])
    traces = extract_resource_traces(ts, threshold_pct=20, break_label=BREAK)
    assert set(traces) == {"CPT", "RXNORM"}
    assert ts.users[traces["CPT"][0]] == "u"


def test_below_threshold_not_attributed():
    pairs = [(12, "CPT")] * 19 + [(2, None)] * 81
    traces = extract_resource_traces(_set([_trace("u", pairs)]), threshold_pct=20, break_label=BREAK)
    assert "CPT" not in traces


def test_exact_threshold_is_attributed():
    pairs = [(12, "CPT")] * 20 + [(2, None)] * 80
    traces = extract_resource_traces(_set([_trace("u", pairs)]), threshold_pct=20, break_label=BREAK)
    assert "CPT" in traces


def test_break_excluded_from_denominator():
    # 1 resource action of 4 non-BREAK actions = 25%, BREAKs must not dilute it
    pairs = [(12, "CPT"), (2, None), (BREAK, None), (2, None), (2, None), (BREAK, None)]
    traces = extract_resource_traces(_set([_trace("u", pairs)]), threshold_pct=25, break_label=BREAK)
    assert "CPT" in traces


def test_attribution_matches_naive_recount():
    rng = np.random.default_rng(6)
    resources = ["A", "B", "C", None]
    traces = []
    for u in range(60):
        k = int(rng.integers(3, 40))
        pairs = []
        for _ in range(k):
            onto = resources[int(rng.integers(len(resources)))]
            label = BREAK if rng.random() < 0.08 else int(rng.integers(0, 33))
            pairs.append((label, None if label == BREAK else onto))
        traces.append(_trace(f"u{u}", pairs))
    got = extract_resource_traces(_set(traces), threshold_pct=20, break_label=BREAK)
    # naive recount
    want: dict[str, set] = {}
    for t in traces:
        denom = sum(1 for lab in t["sequence"] if lab != BREAK)
        counts: dict[str, int] = {}
        for onto in t["ontologies"]:
            if onto:
                counts[onto] = counts.get(onto, 0) + 1
        for res, c in counts.items():
            if denom and c / denom >= 0.2:
                want.setdefault(res, set()).add(t["user"])
    assert {r: {traces[i]["user"] for i in rows} for r, rows in got.items()} == want


def test_attribution_matches_reference_loop():
    """Rows per resource equal the per-trace loop's users, in trace order, at any threshold."""
    rng = np.random.default_rng(31)
    traces = []
    for u in range(80):
        pairs = []
        for _ in range(int(rng.integers(1, 30))):
            onto = ["A", "B", "C", "D", None][int(rng.integers(5))]
            # a BREAK slot carrying an ontology only comes from a hand-written traces.jsonl
            pairs.append((BREAK if rng.random() < 0.1 else int(rng.integers(0, 33)), onto))
        traces.append(_trace(f"u{u:02d}", pairs))
    traces.append(_trace("breaks_only", [(BREAK, "A"), (BREAK, None)]))  # no action at all
    traces.append(_trace("unattributed", [(2, None)] * 4))
    ts = _set(traces)
    for pct in (0, 20, 25, 100):
        got = extract_resource_traces(ts, threshold_pct=pct, break_label=BREAK)
        want = naive_attribution(traces, pct, BREAK)
        assert {r: [ts.users[i] for i in rows] for r, rows in got.items()} == want
        assert all(rows.dtype == np.int64 and (np.diff(rows) > 0).all() for rows in got.values())


def test_attribution_monotone_in_threshold():
    rng = np.random.default_rng(9)
    traces = []
    for u in range(30):
        pairs = [
            (int(rng.integers(0, 33)), ["X", "Y", None][int(rng.integers(3))])
            for _ in range(int(rng.integers(2, 25)))
        ]
        pairs = [(lab, onto) for lab, onto in pairs]
        traces.append(_trace(f"u{u}", pairs))
    prev = None
    for pct in (5, 20, 50, 80):
        got = extract_resource_traces(_set(traces), threshold_pct=pct, break_label=BREAK)
        flat = {(r, int(i)) for r, rows in got.items() for i in rows}
        if prev is not None:
            assert flat <= prev
        prev = flat


def test_aggregate_single_user():
    pairs = [(12, "CPT")] * 17
    traces = _set([_trace("u", pairs)])
    profiles = aggregate_cluster_actions(traces, {"CPT": [0]}, {"u": 2}, K=5, n=N, break_label=BREAK)
    p = profiles[0]
    assert p.resource == "CPT"
    assert p.cluster_action_counts.tolist() == [0, 0, 17, 0, 0]
    assert p.visits == 17 and p.user_count == 1
    assert p.cluster_ranks()[2] == 1
    assert p.counts.counts[12, 12] == 16


def test_aggregate_counts_equal_sums_of_per_trace_counts():
    rng = np.random.default_rng(4)
    traces = []
    for u in range(40):
        pairs = [(BREAK, None) if rng.random() < 0.1 else
                 (int(rng.integers(0, 33)), ["A", "B", "C"][int(rng.integers(3))])
                 for _ in range(int(rng.integers(1, 30)))]
        traces.append(_trace(f"u{u}", pairs))
    assignments = {t["user"]: int(rng.integers(3)) for t in traces}
    ts = _set(traces)
    by_resource = extract_resource_traces(ts, threshold_pct=20, break_label=BREAK)
    profiles = aggregate_cluster_actions(ts, by_resource, assignments, K=3, n=N, break_label=BREAK)
    assert sorted(p.resource for p in profiles) == sorted(by_resource)
    for p in profiles:
        members = [traces[i] for i in by_resource[p.resource]]
        want = sum((count_transitions(t["sequence"], N).counts for t in members),
                   np.zeros((N, N), dtype=np.int64))
        assert (p.counts.counts == want).all()
        assert p.label_counts.tolist() == np.bincount(
            np.concatenate([t["sequence"] for t in members]), minlength=N).tolist()
        clusters = np.zeros(3, dtype=np.int64)
        for t in members:
            clusters[assignments[t["user"]]] += len(t["sequence"]) - t["sequence"].count(BREAK)
        assert p.cluster_action_counts.tolist() == clusters.tolist()
        assert p.user_count == len(members) and p.visits == clusters.sum()


def test_aggregate_unassigned_user():
    traces = _set([_trace("u", [(12, "CPT")] * 3)])
    with pytest.raises(UnassignedUser):
        aggregate_cluster_actions(traces, {"CPT": [0]}, {}, K=2, n=N, break_label=BREAK)


def _profile_from(pairs_by_user, resource, assignments, K=1):
    traces = [_trace(u, pairs) for u, pairs in pairs_by_user.items()]
    return aggregate_cluster_actions(_set(traces), {resource: np.arange(len(traces))}, assignments,
                                     K=K, n=N, break_label=BREAK)[0]


def test_diff_identical_profiles_is_zero():
    pairs = [(2, None), (12, "Z"), (2, None), (12, "Z")] * 3
    a = _profile_from({"u1": pairs}, "Z", {"u1": 0})
    d = transition_diff(a, a, alpha=0.15, top_t=10)
    assert np.abs(d.diff).max() == 0.0


def test_diff_antisymmetry_exact():
    rng = np.random.default_rng(12)
    mk = lambda u: [(int(rng.integers(0, 33)), "R") for _ in range(30)]
    a = _profile_from({"a": mk("a")}, "R", {"a": 0})
    b = _profile_from({"b": mk("b")}, "R", {"b": 0})
    d_ab = transition_diff(a, b)
    d_ba = transition_diff(b, a)
    assert (d_ab.diff == -d_ba.diff).all()
    assert d_ab.labels_shown == d_ba.labels_shown
    assert np.abs(d_ab.diff).max() <= 1.0


def test_diff_top_labels_by_combined_frequency():
    a = _profile_from({"a": [(2, None)] * 10 + [(12, "R")] * 5}, "R", {"a": 0})
    b = _profile_from({"b": [(13, "R")] * 8 + [(12, "R")] * 4}, "R", {"b": 0})
    d = transition_diff(a, b, top_t=3)
    assert len(d.labels_shown) == 3
    assert set(d.labels_shown) == {2, 12, 13}


def test_project_identical_profiles_coincide():
    pairs = [(12, "A")] * 10
    pa = _profile_from({"u1": pairs}, "A", {"u1": 0}, K=3)
    pb = _profile_from({"u2": pairs}, "B", {"u2": 0}, K=3)
    pc = _profile_from({"u3": [(2, None), (12, "C")] * 8}, "C", {"u3": 1}, K=3)
    with pytest.warns(RankDeficientWarning):  # three resources have two distinct profiles
        proj = project_resources([pa, pb, pc], top_m=50, r=2)
    ia, ib = proj.resources.index("A"), proj.resources.index("B")
    assert np.allclose(proj.coordinates[ia], proj.coordinates[ib], atol=1e-9)


def test_projection_translation_invariance():
    rng = np.random.default_rng(5)
    base = [
        _profile_from({f"u{i}": [(12, "R")] * int(rng.integers(5, 40))}, "R", {f"u{i}": i % 3}, K=3)
        for i in range(6)
    ]
    for i, p in enumerate(base):
        p.resource = f"R{i}"
    proj1 = project_resources(base, r=2)
    for p in base:
        p.cluster_action_counts = p.cluster_action_counts + 100
    proj2 = project_resources(base, r=2)
    assert np.allclose(proj1.coordinates, proj2.coordinates, atol=1e-9)


def test_projection_separates_behavior_families():
    rng = np.random.default_rng(17)
    profiles = []
    for i in range(10):
        # family 0 concentrates in cluster 0, family 1 in cluster 1
        fam = i % 2
        counts = np.zeros(2, dtype=np.int64)
        counts[fam] = 1000 + int(rng.integers(0, 50))
        counts[1 - fam] = 50 + int(rng.integers(0, 20))
        p = _profile_from({f"u{i}": [(12, "R")] * 5}, "R", {f"u{i}": 0}, K=2)
        p.resource = f"R{i}"
        p.cluster_action_counts = counts
        p.visits = int(counts.sum())
        profiles.append(p)
    proj = project_resources(profiles, r=2)
    pc1 = proj.coordinates[:, 0]
    fams = np.array([int(r[1:]) % 2 for r in proj.resources])
    gap = abs(pc1[fams == 0].mean() - pc1[fams == 1].mean())
    spread = max(pc1[fams == 0].std(), pc1[fams == 1].std())
    assert gap > 3 * spread


def test_too_few_resources():
    p = _profile_from({"u": [(12, "A")] * 5}, "A", {"u": 0})
    with pytest.raises(TooFewResources):
        project_resources([p])

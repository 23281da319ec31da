import re

import numpy as np
import pytest

from testutil import power_iteration, stationary_oracle
from trailmine import markov
from trailmine.markov import (
    LabelOutOfRange,
    ZeroRowWithoutTeleport,
    build_feature_matrix,
    build_transition_model,
    count_transitions,
    count_transitions_by_group,
    page_view_vector,
    stationary_distribution,
)
from trailmine.sessions import TraceSet

ABCABC = [0, 1, 2, 0, 1, 2]
AABBCC = [0, 0, 1, 1, 2, 2]


def test_count_transitions_worked_examples():
    assert count_transitions(ABCABC, 3).tolist() == [[0, 2, 0], [0, 0, 2], [1, 0, 0]]
    assert count_transitions(AABBCC, 3).tolist() == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]


def test_count_transitions_single_element():
    assert count_transitions([1], 3).sum() == 0


def test_count_transitions_total_is_length_minus_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        trace = rng.integers(0, 6, size=rng.integers(1, 50))
        assert count_transitions(trace, 6).sum() == len(trace) - 1


def test_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        count_transitions([0, 3], 3)
    with pytest.raises(LabelOutOfRange):
        page_view_vector([-1], 3)


def test_model_alpha_zero_worked_example():
    P = build_transition_model(count_transitions(AABBCC, 3), alpha=0.0)
    assert np.allclose(P, [[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0, 1.0]])


def test_model_zero_row_without_teleport():
    with pytest.raises(ZeroRowWithoutTeleport):
        build_transition_model(count_transitions([0, 0], 2), alpha=0.0)


def test_model_rejects_negative_and_non_square_counts():
    # a negative cell would give P a cell above 1 and one below 0, and pi a silent [0, 1]
    with pytest.raises(ValueError, match="non-negative"):
        build_transition_model(np.array([[-5, 1], [0, 1]]), 0.15)
    for counts in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            build_transition_model(counts, 0.15)


def test_model_smoothing_row_values():
    # row A of the cyclic counts: (0.05, 2.05, 0.05) / 2.15
    P = build_transition_model(count_transitions(ABCABC, 3), alpha=0.15)
    assert np.allclose(P[0], np.array([0.05, 2.05, 0.05]) / 2.15)


def test_all_zero_row_becomes_uniform():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 1] = 3
    P = build_transition_model(counts, alpha=0.15)
    assert np.allclose(P[2], np.full(4, 0.25))


def test_row_stochastic_for_random_counts():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        counts = rng.integers(0, 20, size=(n, n))
        for alpha in (0.01, 0.15, 1.0, 7.5):
            P = build_transition_model(counts, alpha)
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
            assert (P > 0).all()


def test_stationary_symmetric_two_state():
    # alternating trace ending where it started, so counts are symmetric
    trace = [0, 1] * 10 + [0]
    for alpha in (0.0, 0.15, 1.0):
        P = build_transition_model(count_transitions(trace, 2), alpha=alpha)
        pi = stationary_distribution(P)[0]
        assert np.allclose(pi, [0.5, 0.5], atol=1e-9)


def test_stationary_oracle_value():
    P = build_transition_model(count_transitions(ABCABC, 3), alpha=0.15)
    pi = stationary_distribution(P)[0]
    # frozen from an independent linear solve of the smoothed chain
    assert np.abs(pi - np.array([0.3261, 0.3335, 0.3404])).max() < 5e-4


@pytest.mark.parametrize("P, check", [
    ([[0.5, 0.6], [0.1, 0.9]], "sum to 1 within 1e-9, one is off by 0.1"),
    ([[0.5, 0.5 + 2e-9], [0.5, 0.5]], "sum to 1 within 1e-9"),
    ([[-0.5, 1.5], [0.5, 0.5]], "no negative cell"),
    ([[np.nan, 0.5], [0.5, 0.5]], "finite"),
    ([[np.inf, 0.5], [0.5, 0.5]], "finite"),
    ([0.5, 0.5], "square matrix, not of shape (2,)"),
    (np.full((2, 3), 1 / 3), "square matrix, not of shape (2, 3)"),
    (np.zeros((0, 0)), "non-empty square matrix"),
])
def test_stationary_distribution_rejects_a_p_that_is_not_a_chain(P, check):
    with pytest.raises(ValueError, match=re.escape(check)):
        stationary_distribution(P)


def test_stationary_distribution_takes_row_sums_within_tolerance():
    pi, residual = stationary_distribution([[0.5, 0.5 + 5e-10], [0.25, 0.75]])
    assert np.allclose(pi, [1 / 3, 2 / 3]) and residual < 1e-8


def test_power_iteration_agrees_with_direct_solve():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        counts = rng.integers(0, 25, size=(n, n))
        P = build_transition_model(counts, alpha=0.15)
        power = power_iteration(P)
        direct = stationary_distribution(P)[0]
        oracle = stationary_oracle(counts, 0.15)
        assert np.abs(power - direct).sum() < 1e-8
        assert np.abs(power - oracle).sum() < 1e-8


def test_stationary_invariants():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        counts = rng.integers(0, 15, size=(n, n))
        P = build_transition_model(counts, alpha=0.15)
        pi, residual = stationary_distribution(P)
        assert (pi > 0).all()
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.abs(pi @ P - pi).sum() <= 1e-10
        assert residual <= 1e-10


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    trace = rng.integers(0, 5, size=80)
    sigma = rng.permutation(5)
    pi = stationary_distribution(build_transition_model(count_transitions(trace, 5), 0.15))[0]
    permuted_trace = sigma[trace]
    pi_perm = stationary_distribution(
        build_transition_model(count_transitions(permuted_trace, 5), 0.15)
    )[0]
    assert np.allclose(pi_perm[sigma], pi, atol=1e-9)


def test_single_state_concentration():
    alpha = 0.15
    P = build_transition_model(count_transitions([0] * 20, 2), alpha=alpha)
    pi = stationary_distribution(P)[0]
    assert pi[0] >= 1 - alpha


def test_direct_solve_of_slowly_mixing_chain():
    # power iteration needs hundreds of steps to mix this chain; the direct solve needs none
    counts = np.array([[5000, 1], [1, 50]])
    pi, _ = stationary_distribution(build_transition_model(counts, alpha=0.001))
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.abs(pi - stationary_oracle(counts, 0.001)).max() < 1e-12


def test_order_sensitivity_witness():
    v1 = page_view_vector(ABCABC, 3)
    v2 = page_view_vector(AABBCC, 3)
    assert v1.tolist() == v2.tolist() == [2, 2, 2]
    pi1 = stationary_distribution(build_transition_model(count_transitions(ABCABC, 3), 0.15))[0]
    pi2 = stationary_distribution(build_transition_model(count_transitions(AABBCC, 3), 0.15))[0]
    assert np.abs(pi1 - pi2).sum() > 0.1


def test_page_view_vector_empty_and_sum():
    assert page_view_vector([], 4).tolist() == [0, 0, 0, 0]
    rng = np.random.default_rng(1)
    trace = rng.integers(0, 4, size=33)
    assert page_view_vector(trace, 4).sum() == 33


def _trace(user, seq):
    """A one-session ``traces.jsonl`` record."""
    return {"user": user, "sequence": list(seq), "ontologies": [None] * len(seq),
            "session_lengths": [len(seq)]}


def _set(*traces):
    return TraceSet.from_rows(traces)


def test_feature_matrix_shapes_and_simplex():
    traces = _set(_trace("a", [0, 1, 2, 0, 1]), _trace("b", [2, 2, 2, 1]))
    fm = build_feature_matrix(traces, 4, feature_kind="stationary")
    assert fm.X.shape == (2, 4)
    assert np.allclose(fm.X.sum(axis=1), 1.0, atol=1e-9)
    assert fm.user_ids == ["a", "b"]
    pv = build_feature_matrix(traces, 4, feature_kind="pageviews")
    assert pv.X[0].sum() == 5 and pv.X[1].sum() == 4
    with pytest.raises(ValueError):
        build_feature_matrix(traces, 4, feature_kind="nope")


def _random_traces(rng, m, n):
    """Traces of mixed shape: length 1, one repeated label, and random walks."""
    traces = []
    for i in range(m):
        kind = i % 4
        if kind == 0:
            seq = [int(rng.integers(n))]
        elif kind == 1:
            seq = [int(rng.integers(n))] * int(rng.integers(2, 30))
        else:
            seq = rng.integers(0, n, size=int(rng.integers(2, 120))).tolist()
        traces.append(_trace(f"u{i:03d}", seq))
    return traces


@pytest.mark.parametrize("m", [1, 2 * markov._BLOCK + 3, 3 * markov._BLOCK])
def test_batched_features_match_per_user_solves(m):
    rng = np.random.default_rng(m)
    n = 9
    traces = _random_traces(rng, m, n)
    for alpha in (0.15, 1.0):
        fm = build_feature_matrix(_set(*traces), n, alpha=alpha)
        assert fm.X.shape == (m, n) and fm.user_ids == [t["user"] for t in traces]
        assert fm.fallbacks == 0 and fm.max_residual <= 1e-10
        for row, trace in zip(fm.X, traces):
            counts = count_transitions(trace["sequence"], n)
            power = power_iteration(build_transition_model(counts, alpha))
            oracle = stationary_oracle(counts, alpha)
            assert np.abs(row - power).max() <= 1e-8
            assert np.abs(row - oracle).max() <= 1e-8
    pv = build_feature_matrix(_set(*traces), n, feature_kind="pageviews")
    for row, trace in zip(pv.X, traces):
        assert row.tolist() == page_view_vector(trace["sequence"], n).tolist()


def test_feature_matrix_of_no_traces():
    for kind in ("stationary", "pageviews"):
        fm = build_feature_matrix(_set(), 5, feature_kind=kind)
        assert fm.X.shape == (0, 5) and fm.user_ids == []


def test_feature_matrix_errors():
    good = _trace("a", [0, 1, 0, 1])
    with pytest.raises(LabelOutOfRange):
        build_feature_matrix(_set(good, _trace("b", [0, 2])), 2)
    with pytest.raises(LabelOutOfRange):
        build_feature_matrix(_set(_trace("b", [-1])), 2, feature_kind="pageviews")
    with pytest.raises(ValueError):
        build_feature_matrix(_set(good), 2, alpha=-0.1)
    # state 1 of "b" is never left, so alpha = 0 cannot normalize its row
    with pytest.raises(ZeroRowWithoutTeleport):
        build_feature_matrix(_set(good, _trace("b", [0, 0, 1])), 2, alpha=0.0)
    fm = build_feature_matrix(_set(good), 2, alpha=0.0)
    assert np.allclose(fm.X, [[0.5, 0.5]])


def test_singular_system_falls_back_to_lstsq():
    # every state absorbing: pi (P - I) = 0 holds for any pi, the system is singular
    uniform, residual = stationary_distribution(np.eye(3))
    assert np.allclose(uniform, np.full(3, 1 / 3))
    assert residual < 1e-12
    good = build_transition_model(count_transitions(ABCABC, 3), 0.15)
    pi, residual, fallbacks = markov._stationary_direct(np.stack([good, np.eye(3)]))
    assert fallbacks == 2
    assert np.abs(pi[0] - stationary_oracle(count_transitions(ABCABC, 3), 0.15)).max() < 1e-12
    assert residual.max() < 1e-12


def test_grouped_counts_equal_sums_of_per_trace_counts():
    rng = np.random.default_rng(11)
    n, n_groups = 6, 4
    sequences = [rng.integers(0, n, size=int(rng.integers(0, 40))).tolist() for _ in range(30)]
    traces = _set(*(_trace(f"u{i}", s) for i, s in enumerate(sequences)))
    # every row once, then some rows again under other groups
    rows = np.concatenate([np.arange(len(sequences)), rng.integers(0, len(sequences), size=20)])
    groups = rng.integers(0, n_groups, size=len(rows))
    counts, hist = count_transitions_by_group(traces.labels, traces.offsets, rows, groups, n_groups, n)
    for g in range(n_groups):
        own = [sequences[r] for r, h in zip(rows, groups) if h == g]
        want = sum((count_transitions(s, n) for s in own), np.zeros((n, n), dtype=np.int64))
        assert (counts[g] == want).all()
        assert hist[g].tolist() == np.bincount(np.concatenate([[]] + own).astype(int), minlength=n).tolist()
    with pytest.raises(ValueError):
        count_transitions_by_group(traces.labels, traces.offsets, rows, groups, 2, n)

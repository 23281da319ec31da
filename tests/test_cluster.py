import numpy as np
import pytest

from testutil import (
    brute_force_two_partition_inertia,
    purity,
    reference_ev_curve,
    reference_kmeans_fit,
    reference_lloyd,
)
from trailmine import cluster
from trailmine.cluster import (
    LLOYD_MAX_ITER,
    EmptyMatrix,
    KTooLarge,
    _kmeanspp_order,
    _Pcg64Stream,
    _weighted_draw,
    explained_variance_curve,
    kmeans_fit,
    profile_clusters,
    total_sum_of_squares,
)
from trailmine.ingest import ingest_paths
from trailmine.markov import FeatureMatrix, build_feature_matrix, count_transitions
from trailmine.sessions import TraceSet, build_traces
from trailmine.synth import default_archetypes, generate_synthetic_log


def _blobs(rng, centers, per_blob=30, spread=0.05):
    X, y = [], []
    for i, c in enumerate(centers):
        X.append(c + rng.normal(0, spread, size=(per_blob, len(c))))
        y += [i] * per_blob
    return np.vstack(X), np.array(y)


def test_separated_blobs_recovered():
    rng = np.random.default_rng(0)
    X, y = _blobs(rng, [np.array([0.0, 0.0]), np.array([10.0, 10.0])])
    model = kmeans_fit(X, 2, seed=1)
    assert purity(model.assignments, y) == 1.0


def test_k1_degenerate():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3))
    model = kmeans_fit(X, 1, seed=0)
    assert np.allclose(model.centroids[0], X.mean(axis=0), atol=1e-12)
    assert abs(model.inertia - total_sum_of_squares(X)) < 1e-8


def test_matches_exhaustive_two_partition_optimum():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 9))
        X = rng.normal(size=(m, int(rng.integers(2, 5))))
        best = brute_force_two_partition_inertia(X)
        model = kmeans_fit(X, 2, seed=seed, restarts=10)
        assert model.inertia <= best + 1e-9


def test_determinism():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 5))
    a = kmeans_fit(X, 4, seed=7, restarts=5)
    b = kmeans_fit(X, 4, seed=7, restarts=5)
    assert (a.assignments == b.assignments).all()
    assert a.inertia == b.inertia
    assert (a.centroids == b.centroids).all()


def test_assignments_satisfy_argmin_property():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(80, 4))
    model = kmeans_fit(X, 5, seed=3)
    d = ((X[:, None, :] - model.centroids[None]) ** 2).sum(-1)
    assert (model.assignments == d.argmin(axis=1)).all()
    assert abs(model.inertia - d[np.arange(len(X)), model.assignments].sum()) < 1e-8


def test_inertia_non_increasing_within_run():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(120, 6))
    # the history lives in the reference loop only; the fit ends where the reference run does
    hist = reference_lloyd(X, 6, np.random.default_rng([5, 0]))[4]
    assert kmeans_fit(X, 6, seed=5, restarts=1).inertia == hist[-1]
    assert len(hist) >= 2
    for a, b in zip(hist, hist[1:]):
        assert b <= a + 1e-9 * max(1.0, a)


def test_k_bounds_and_empty():
    X = np.zeros((3, 2))
    with pytest.raises(KTooLarge):
        kmeans_fit(X, 4)
    with pytest.raises(KTooLarge):
        kmeans_fit(X, 0)
    with pytest.raises(EmptyMatrix):
        kmeans_fit(np.zeros((0, 2)), 1)
    # the curve checks for rows before any K
    for ks in (range(1, 3), range(0), range(5, 9)):
        with pytest.raises(EmptyMatrix):
            explained_variance_curve(np.zeros((0, 2)), ks)


def test_ev_curve_properties():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    curve = explained_variance_curve(X, k_range=range(1, 13), seed=0, restarts=5)
    evs = dict(curve.points)
    assert evs[1] == 0.0
    assert evs[12] > 1 - 1e-9  # one point per cluster explains everything
    assert all(0.0 <= ev <= 1.0 + 1e-12 for ev in evs.values())


def test_ev_all_identical_points():
    X = np.ones((10, 4))
    curve = explained_variance_curve(X, k_range=range(1, 6), seed=0)
    assert all(ev == 1.0 for _, ev in curve.points)


def test_knee_on_seven_blobs():
    rng = np.random.default_rng(16)
    centers = [np.eye(7)[i] * 5 for i in range(7)]
    X, _ = _blobs(rng, centers, per_blob=25, spread=0.08)
    curve = explained_variance_curve(X, k_range=range(1, 11), seed=0, restarts=5)
    evs = dict(curve.points)
    gains = {k: evs[k] - evs[k - 1] for k in range(2, 11)}
    assert gains[7] > gains[8]
    assert curve.knee == 7


@pytest.mark.parametrize("restarts", [0, -1])
def test_restarts_below_one_rejected(restarts):
    X = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError, match="restarts"):
        kmeans_fit(X, 2, restarts=restarts)
    with pytest.raises(ValueError, match="restarts"):
        explained_variance_curve(X, k_range=range(1, 4), restarts=restarts)
    with pytest.raises(ValueError, match="restarts"):  # even where no K needs a fit
        explained_variance_curve(np.ones((5, 2)), k_range=range(1, 4), restarts=restarts)


def test_seed_must_be_a_non_negative_integer():
    X = np.random.default_rng(0).normal(size=(10, 2))
    model = kmeans_fit(X, 3, seed=np.int64(4), restarts=3)
    assert model.restart_inertias == kmeans_fit(X, 3, seed=4, restarts=3).restart_inertias
    with pytest.raises(TypeError):
        kmeans_fit(X, 2, seed=1.5)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        kmeans_fit(X, 2, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        explained_variance_curve(X, k_range=range(1, 4), seed=-1, jobs=2)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):  # even where nothing is drawn
        explained_variance_curve(np.ones((5, 2)), k_range=range(1, 4), seed=-1)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**100])
def test_pcg64_stream_draws_what_default_rng_draws(seed):
    # numpy.random is the reference; 2**100 is five entropy words with r, one more than the pool holds
    for r in (0, 1, 9):
        ours, ref = _Pcg64Stream(seed, r), np.random.default_rng([seed, r])
        for i in range(200):
            # 2**31 + 11 rejects about half its draws; high=1 draws nothing; a spare 32-bit half waits
            # across the random() calls in between whenever an odd number of halves came before
            for high in (1, 2, 3, 210, 2**31 + 11, 2**32):
                assert ours.integers(high) == ref.integers(high)
            if i % 3:
                assert ours.random() == ref.random()
        state = ref.bit_generator.state
        assert (ours.state, ours.inc) == (state["state"]["state"], state["state"]["inc"])
        assert ours.spare == (state["uinteger"] if state["has_uint32"] else None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    X = np.random.default_rng(1).normal(size=(12, 3))
    X[4, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        kmeans_fit(X, 3)
    with pytest.raises(ValueError, match="non-finite"):
        explained_variance_curve(X, k_range=range(1, 4))
    fm = FeatureMatrix([f"u{i}" for i in range(12)], X, "stationary")
    with pytest.raises(ValueError, match="non-finite"):
        kmeans_fit(fm, 2)


def _assert_same_fit(X, K, seed, restarts, model=None):
    """``model`` (by default a fresh kmeans_fit) is the reference loop's, bit for bit, restart by restart."""
    if model is None:
        model = kmeans_fit(X, K, seed=seed, restarts=restarts)
    C, assign, inertia, n_iter, _, reseeded = reference_kmeans_fit(X, K, seed, restarts)
    assert np.array_equal(model.centroids, C)
    assert np.array_equal(model.assignments, assign)
    assert model.inertia == inertia
    assert model.n_iter == n_iter
    assert model.reseeded == reseeded
    assert model.restart_inertias == [
        reference_lloyd(X, K, np.random.default_rng([seed, r]))[2] for r in range(restarts)
    ]
    return model


def test_lloyd_matches_reference_on_random_matrices():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        m, n = int(rng.integers(20, 90)), int(rng.integers(2, 12))
        X = rng.random((m, n)) * rng.choice([1e-3, 1.0, 50.0])
        for K in (2, 5, 9):
            _assert_same_fit(X, K, seed, restarts=3)


def test_lloyd_matches_reference_on_duplicate_rows():
    # few distinct rows: many points sit at equal distance from two centroids
    rng = np.random.default_rng(7)
    X = rng.integers(0, 3, size=(60, 3)).astype(np.float64)
    for K in (2, 4, 8):
        _assert_same_fit(X, K, seed=K, restarts=4)


def test_lloyd_matches_reference_through_empty_cluster_reseeding():
    # K close to m over four distinct points: clusters empty out and are re-seeded
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 2))
    X = base[rng.integers(0, 4, size=14)]
    reseeded = 0
    for K in (8, 11, 13):
        for seed in range(4):
            reseeded += _assert_same_fit(X, K, seed, restarts=2).reseeded
    assert reseeded > 0


def test_lloyd_matches_reference_at_k_one_and_k_m():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(17, 4))
    _assert_same_fit(X, 1, seed=0, restarts=3)
    model = _assert_same_fit(X, 17, seed=2, restarts=3)
    assert model.inertia < 1e-12  # one point per cluster, up to the rounding of the expanded distance


def test_k_one_fits_one_run(monkeypatch):
    # row 24 sits at the mean, so a restart drawn there stops on LLOYD_TOL after one iteration:
    # restart 0 starts there at seed 39, and only a later restart does at seeds 0 and 3
    A = np.random.default_rng(13).normal(size=(12, 4))
    X = np.vstack([A, -A, np.zeros((1, 4))])
    real, calls = cluster._lloyd, []
    monkeypatch.setattr(cluster, "_lloyd", lambda *a: calls.append(a) or real(*a))
    real_order, draws = cluster._kmeanspp_order, []
    monkeypatch.setattr(cluster, "_kmeanspp_order", lambda *a: draws.append(a) or real_order(*a))
    for seed in (0, 3, 4, 39):
        calls.clear()
        draws.clear()
        model = kmeans_fit(X, 1, seed=seed, restarts=5)
        assert len(calls) == 1 and len(draws) == 1  # one run, from the one order it drew
        _assert_same_fit(X, 1, seed, 5, model)
        assert model.n_iter == (1 if seed == 39 else 2)
        assert model.restart_inertias == [model.inertia] * 5
        assert model.diagnostics()["inertia_spread"] == 0.0


def _assert_same_curve(X, ks, seed, restarts):
    """The elbow's points, knee and every per-K model are the reference ones, on one to three processes.

    Helper processes run the restarts r with r mod min(jobs, restarts) != 0.
    """
    points, knee = reference_ev_curve(X, sorted(ks), seed=seed, restarts=restarts)
    for jobs in (1, 2, 3):
        curve = explained_variance_curve(X, k_range=ks, seed=seed, restarts=restarts, jobs=jobs)
        assert curve.processes == min(jobs, restarts)
        assert curve.points == points
        assert curve.knee == knee
        assert list(curve.models) == sorted(ks)
        for K, model in curve.models.items():
            _assert_same_fit(X, K, seed, restarts, model)
    return curve


def test_ev_curve_matches_reference():
    rng = np.random.default_rng(44)
    centers = rng.normal(scale=4.0, size=(5, 3))
    X = np.vstack([c + rng.normal(scale=0.3, size=(8, 3)) for c in centers])
    X = np.vstack([X, X[:6]])  # duplicate rows too
    _assert_same_curve(X, list(range(1, 13)), seed=5, restarts=3)
    _assert_same_curve(X, {3, 7, 12}, seed=6, restarts=3)  # the orders come from K=12, not from K=3


def test_ev_curve_matches_reference_up_to_k_m():
    X = np.random.default_rng(11).normal(size=(17, 4))
    _assert_same_curve(X, range(1, 18), seed=2, restarts=3)


def test_ev_curve_matches_reference_past_the_distinct_rows():
    # 60 rows, at most 27 distinct: draws past them find every distance 0 and fall back to rng.integers
    X = np.random.default_rng(7).integers(0, 3, size=(60, 3)).astype(np.float64)
    assert len(np.unique(X, axis=0)) < 30
    _assert_same_curve(X, [2, 4, 8, 30], seed=4, restarts=4)


def test_ev_curve_matches_reference_through_empty_cluster_reseeding():
    # the matrix of test_lloyd_matches_reference_through_empty_cluster_reseeding, as one elbow per seed
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 2))
    X = base[rng.integers(0, 4, size=14)]
    reseeded = 0
    for seed in range(4):
        curve = _assert_same_curve(X, (8, 11, 13), seed, restarts=2)
        reseeded += sum(model.reseeded for model in curve.models.values())
    assert reseeded > 0


def test_ev_curve_matches_reference_on_stationary_features(tmp_path, ruleset):
    # rows that sum to 1 with near-ties, from synthetic traffic: most runs end on a repeated assignment
    log = tmp_path / "synth.log"
    generate_synthetic_log(default_archetypes(ruleset.vocabulary), 5, seed=23, path=log, ruleset=ruleset)
    batch, _ = ingest_paths([log], ruleset)
    traces, _ = build_traces(batch, ruleset.vocabulary.break_id)
    X = build_feature_matrix(traces, ruleset.vocabulary.n).X
    assert np.allclose(X.sum(1), 1.0)
    _assert_same_curve(X, range(1, min(25, len(X)) + 1), seed=7, restarts=10)


def test_ev_curve_ties_go_to_the_first_restart_across_processes():
    # a square's corners at K=2: a run ends on one of the two axis splits (inertia 1) or with
    # one corner alone (4/3). At seed 29 restarts 2, 3 and 4 tie restart 0 on other centroids,
    # and at jobs 2 and 3 a helper runs some of them and sends the first
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    runs = [reference_lloyd(X, 2, np.random.default_rng([29, r])) for r in range(5)]
    inertias = [run[2] for run in runs]
    assert inertias[1] > inertias[0] == inertias[2] == inertias[3] == inertias[4]
    assert not any(np.array_equal(run[0], runs[0][0]) for run in runs[1:])
    for jobs in (2, 3):
        model = explained_variance_curve(X, [2], seed=29, restarts=5, jobs=jobs).models[2]
        assert np.array_equal(model.centroids, runs[0][0])
        assert np.array_equal(model.assignments, runs[0][1])
        assert model.restart_inertias == inertias


def test_kmeanspp_order_prefix_is_the_smaller_draw():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(24, 3))
    X = np.vstack([X, X[:10], np.zeros((6, 3))])  # repeated rows: some draws hit the fallback
    xx = (X * X).sum(1)
    for s in range(3):
        for r in range(3):
            full = _kmeanspp_order(X, xx, len(X), np.random.default_rng([s, r]))
            assert len(np.unique(X[full[:25]], axis=0)) == 25  # the 25 distinct rows come first
            for k in range(1, len(X) + 1):
                assert np.array_equal(full[:k], _kmeanspp_order(X, xx, k, np.random.default_rng([s, r])))


def test_orders_of_wrong_shape_rejected():
    X = np.random.default_rng(2).normal(size=(10, 2))
    ref = kmeans_fit(X, 3, seed=1, restarts=2)
    xx = (X * X).sum(1)
    orders = np.array([_kmeanspp_order(X, xx, 5, np.random.default_rng([1, r])) for r in range(2)])
    model = kmeans_fit(X, 3, seed=1, restarts=2, orders=orders)  # wider than K is fine
    assert np.array_equal(model.assignments, ref.assignments) and model.inertia == ref.inertia
    for bad in (orders[:1], np.vstack([orders, orders[:1]]), orders[:, :2], orders[0]):
        with pytest.raises(ValueError, match="orders"):
            kmeans_fit(X, 3, seed=1, restarts=2, orders=bad)


def test_weighted_draw_equals_generator_choice():
    # NumPy's own choice(p=...) must stay the normalized-CDF search the k-means++ draw copies
    seeds = np.random.default_rng(2024)
    for trial in range(3000):
        m = int(seeds.integers(1, 40))
        w = seeds.random(m) * seeds.integers(0, 2, size=m)  # about half the weights are 0
        w[seeds.integers(m)] += 1e-3                          # at least one is not
        w *= 10.0 ** seeds.integers(-8, 8)
        total = w.sum()
        a, b = np.random.default_rng([trial, 1]), np.random.default_rng([trial, 1])
        assert _weighted_draw(w, total, a) == b.choice(m, p=w / total)
        assert a.random() == b.random()  # both consumed the same stream


def test_fit_diagnostics():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    model = kmeans_fit(X, 4, seed=1, restarts=6)
    assert len(model.restart_inertias) == 6
    assert model.inertia == min(model.restart_inertias)
    diag = model.diagnostics()
    assert diag["inertia_spread"] == max(model.restart_inertias) - min(model.restart_inertias)
    assert 1 <= diag["n_iter"] <= LLOYD_MAX_ITER and diag["reseeded"] >= 0
    assert kmeans_fit(X, 4, seed=1, restarts=1).diagnostics()["inertia_spread"] == 0.0
    curve = explained_variance_curve(X, k_range=range(2, 6), seed=1, restarts=3)
    assert list(curve.models) == [2, 3, 4, 5]
    refit = kmeans_fit(X, 4, seed=1, restarts=3)
    kept = curve.models[4]
    assert kept.diagnostics() == refit.diagnostics()
    assert (kept.inertia, kept.restart_inertias) == (refit.inertia, refit.restart_inertias)
    assert (kept.assignments == refit.assignments).all() and (kept.centroids == refit.centroids).all()
    assert explained_variance_curve(np.ones((6, 2)), k_range=range(1, 4)).models == {}


def _trace(user, seq):
    """A ``traces.jsonl`` record without attribution or session lengths."""
    return {"user": user, "sequence": list(seq), "ontologies": [None] * len(seq),
            "session_lengths": []}


def test_profile_clusters_single_user():
    BREAK = 3
    trace = _trace("solo", [0, 1, BREAK, 1, 2, 2])  # 5 non-BREAK actions
    fm = FeatureMatrix(["solo"], np.array([[0.2, 0.4, 0.4, 0.0]]), "stationary",
                       ["a", "b", "c", "BREAK"])
    model = kmeans_fit(fm, 1, seed=0)
    profiles = profile_clusters(fm, model, TraceSet.from_rows([trace]), break_label=BREAK)
    assert profiles[0].size == 1
    assert profiles[0].mean_actions == 5 == profiles[0].median_actions
    assert profiles[0].action_histogram.tolist() == [1, 2, 2, 1]
    assert profiles[0].top_transitions[0][2] >= 1


def test_profile_clusters_user_without_trace_raises():
    fm = FeatureMatrix(["solo", "ghost"], np.array([[0.0, 1.0], [1.0, 0.0]]), "stationary")
    model = kmeans_fit(fm, 1, seed=0)
    with pytest.raises(KeyError):
        profile_clusters(fm, model, TraceSet.from_rows([_trace("solo", [0, 1])]), break_label=3)


def test_profiles_equal_sums_of_per_trace_counts():
    rng = np.random.default_rng(8)
    n, BREAK = 6, 5
    traces = [_trace(f"u{i}", rng.integers(0, n, size=int(rng.integers(1, 25))).tolist())
              for i in range(25)]
    fm = FeatureMatrix([t["user"] for t in traces], rng.random((25, n)), "stationary")
    model = kmeans_fit(fm, 3, seed=0)
    profiles = profile_clusters(fm, model, TraceSet.from_rows(traces), break_label=BREAK,
                                top_transitions=n * n)
    for k, prof in enumerate(profiles):
        members = [t for t, a in zip(traces, model.assignments) if a == k]
        counts = sum((count_transitions(t["sequence"], n) for t in members),
                     np.zeros((n, n), dtype=np.int64))
        flat = counts.ravel()
        order = np.argsort(-flat, kind="stable")
        assert prof.top_transitions == [(int(i // n), int(i % n), int(flat[i]))
                                        for i in order if flat[i] > 0]
        hist = np.bincount(np.concatenate([t["sequence"] for t in members]), minlength=n)
        assert prof.action_histogram.tolist() == hist.tolist()
        actions = [len(t["sequence"]) - t["sequence"].count(BREAK) for t in members]
        assert prof.size == len(members)
        assert prof.mean_actions == float(np.mean(actions))
        assert prof.median_actions == float(np.median(actions))

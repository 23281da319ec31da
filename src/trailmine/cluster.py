"""K-means over user feature vectors, elbow curve, and cluster profiles.

Lloyd's algorithm with k-means++ seeding and best-of-restarts selection.
Everything is deterministic for a fixed (seed, restarts, data order):
ties break to the lowest index, and an emptied cluster is re-seeded at
the point farthest from its assigned centroid. The elbow fits each K
independently and keeps every fit, so the K finally chosen from the
curve needs no second fit. Cluster profiles read the flat arrays of a
:class:`~trailmine.sessions.TraceSet` in one grouped count pass.

The loop is shaped for many small fits (the elbow runs 25 values of K
times 10 restarts), where per-call overhead costs more than arithmetic.
Each step below gives the same floating-point results as the plain
formulation it replaces, so every iterate is bit for bit the same:

- centroid sums are one ``np.bincount`` over the flat cell index
  ``assign * n + column`` weighted by ``X.ravel()``. It adds the rows of
  each cell in row order starting from 0.0, as ``np.add.at(sums, assign,
  X)`` does;
- the squared row norms ``(X * X).sum(1)`` are computed once per fit and
  passed to every distance computation;
- a k-means++ draw searches the normalized cumulative sum of the
  distances with one ``rng.random()``. That is how
  ``Generator.choice(m, p=...)`` draws, so it takes the same index from
  the same random stream, without ``choice``'s per-call checks of ``p``.
  Those checks used to be the only guard against a NaN in the features,
  so the fits now reject non-finite input on entry;
- the elbow draws each restart's k-means++ order once, for its largest
  K, and every K starts Lloyd from the first K rows of that order. This
  is exact: restart ``r`` always draws from ``default_rng([seed, r])``,
  the generator serves only the seeding, and draw ``k`` reads only the
  draws before it. So the first K draws for a larger K are the K draws
  for K itself, from the same random stream;
- a run ends at the first assignment that repeats the last one with no
  cluster empty: ``C`` already holds its means, so the update would
  rebuild ``C`` bit for bit (shift 0.0) and the closing pass would
  recompute the ``D`` at hand, with the same inertia and iteration count;
- K=1 runs Lloyd once: every restart's first update is the same
  ``bincount`` over all rows, so all end at one mean with one inertia.
  Restart 0 wins that tie, and ``restart_inertias`` repeats its inertia.
  Without ``orders`` passed in, only restart 0's order is drawn;
- with ``jobs`` processes the elbow deals its restarts out by ``r mod
  step``, ``step = min(jobs, restarts)``: helper process ``i`` makes the
  ``_lloyd`` runs of restarts ``i, i + step, ...`` of every K > 1 from
  the same ``orders``, each run one process makes alone, and the fit of
  K puts them back by restart index. So ``min`` still keeps the first
  restart on ties and ``restart_inertias`` keeps restart order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .helpers import receive, start_helpers
from .markov import FeatureMatrix, count_transitions_by_group
from .sessions import TraceSet

__all__ = [
    "KTooLarge",
    "EmptyMatrix",
    "ClusterModel",
    "ElbowCurve",
    "ClusterProfile",
    "kmeans_fit",
    "explained_variance_curve",
    "profile_clusters",
]

# Lloyd's algorithm stops when no centroid moves by LLOYD_TOL or more, or
# after LLOYD_MAX_ITER iterations. The elbow's knee is the largest K whose
# marginal EV gain exceeds KNEE_FRACTION of the K=1 to K=2 gain.
LLOYD_TOL = 1e-6
LLOYD_MAX_ITER = 300
KNEE_FRACTION = 0.1


class KTooLarge(ValueError):
    """K exceeds the number of points (or is < 1)."""


class EmptyMatrix(ValueError):
    """No feature rows to cluster."""


@dataclass(slots=True)
class ClusterModel:
    K: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iter: int = 0
    # empty clusters re-seeded during the best restart
    reseeded: int = 0
    # final inertia of each restart, in restart order
    restart_inertias: list[float] = field(default_factory=list)

    def diagnostics(self) -> dict:
        """The best restart's iterations and re-seeds, and the inertia spread."""
        spread = max(self.restart_inertias) - min(self.restart_inertias) if self.restart_inertias else 0.0
        return {"n_iter": self.n_iter, "reseeded": self.reseeded, "inertia_spread": spread}


@dataclass(slots=True)
class ElbowCurve:
    """(K, explained variance) points; EV(K) = 1 - inertia(K) / total_SS."""

    points: list[tuple[int, float]]
    knee: int | None = None
    # the best-of-restarts fit of each K that needed one, by K
    models: dict[int, ClusterModel] = field(default_factory=dict)
    # this process plus the helper processes that shared the restarts
    processes: int = 1


def _feature_rows(features: FeatureMatrix | np.ndarray, restarts: int) -> np.ndarray:
    """The matrix to cluster; rejects ``restarts < 1`` and non-finite values."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    X = features.X if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("feature matrix has non-finite values (NaN or inf)")
    return X


def _sqdist(X: np.ndarray, C: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, m x K; ``xx`` is ``(X * X).sum(1)``."""
    # (x - c)^2 expanded; clip tiny negatives from cancellation
    d = xx[:, None] + (C * C).sum(1)[None, :] - 2.0 * (X @ C.T)
    return np.maximum(d, 0.0)


def _weighted_draw(w: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """``rng.choice(len(w), p=w / total)``, drawn the way ``choice`` draws it."""
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp_order(
    X: np.ndarray, xx: np.ndarray, K: int, rng: np.random.Generator,
) -> np.ndarray:
    """The row indices of ``K`` k-means++ draws from ``rng``, in draw order."""
    m = X.shape[0]
    order = np.empty(K, dtype=np.intp)
    idx = order[0] = int(rng.integers(m))
    d2 = _sqdist(X, X[idx : idx + 1], xx).ravel()
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = _weighted_draw(d2, total, rng)
        order[k] = idx
        if k < K - 1:  # the last draw's distances are never read
            d2 = np.minimum(d2, _sqdist(X, X[idx : idx + 1], xx).ravel())
    return order


def _restart_orders(X: np.ndarray, xx: np.ndarray, K: int, seed: int, restarts: int) -> np.ndarray:
    """``(restarts, K)`` draw orders, restart ``r`` drawn from ``default_rng([seed, r])``."""
    return np.array([
        _kmeanspp_order(X, xx, K, np.random.default_rng([seed, r])) for r in range(restarts)
    ])


def _lloyd(
    X: np.ndarray, xx: np.ndarray, C: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, int, int]:
    """One run from centroids ``C``: (centroids, assignments, inertia, iterations, re-seeds)."""
    m, n = X.shape
    K = C.shape[0]
    rows = np.arange(m)
    cols = np.arange(n)
    weights = X.ravel()
    reseeded = 0
    prev = None  # the last assignment that left no cluster empty, whose means C holds
    it = 0
    for it in range(1, LLOYD_MAX_ITER + 1):
        D = _sqdist(X, C, xx)
        assign = D.argmin(axis=1)          # argmin takes the lowest index on ties
        if prev is not None and (assign == prev).all():
            # a fixed point: C would be rebuilt bit for bit (see the module notes)
            return C, assign, float(D[rows, assign].sum()), it, reseeded
        cells = (assign[:, None] * n + cols).ravel()
        sums = np.bincount(cells, weights=weights, minlength=K * n).reshape(K, n)
        counts = np.bincount(assign, minlength=K)
        empty = np.flatnonzero(counts == 0)
        prev = None if empty.size else assign
        if empty.size:
            # re-seed each empty cluster at the point currently farthest
            # from its centroid, farthest first
            reseeded += empty.size
            order = np.argsort(-D[rows, assign], kind="stable")
            for k, idx in zip(empty, order[: empty.size]):
                sums[k] = X[idx]
                counts[k] = 1
        newC = sums / counts[:, None]
        shift = float(np.sqrt(((newC - C) ** 2).sum(axis=1).max()))
        C = newC
        if shift < LLOYD_TOL:
            break
    D = _sqdist(X, C, xx)
    assign = D.argmin(axis=1)
    return C, assign, float(D[rows, assign].sum()), it, reseeded


def _send_restarts(send, X: np.ndarray, orders: np.ndarray, ks: Sequence[int], first: int, step: int) -> None:
    """A helper's share of an elbow: for each K > 1 of ``ks``, the runs of restarts ``first, first + step, ...``."""
    xx = (X * X).sum(1)
    for K in ks:
        if K > 1:
            send([_lloyd(X, xx, X[orders[r, :K]]) for r in range(first, len(orders), step)])


def kmeans_fit(
    features: FeatureMatrix | np.ndarray,
    K: int,
    seed: int = 0,
    restarts: int = 10,
    *,
    orders: np.ndarray | None = None,
    helpers: Sequence = (),
) -> ClusterModel:
    """Best-of-restarts Lloyd's K-means.

    Each restart draws its own k-means++ initialization from a child
    generator of ``seed``; the restart with the lowest inertia wins
    (first one on exact ties). ``orders`` passes in draw orders already
    drawn for at least ``K`` centres, one row per restart: restart ``r``
    starts from rows ``orders[r, :K]`` (see the module notes). Raises
    :class:`EmptyMatrix` and :class:`KTooLarge` on degenerate inputs, and
    ``ValueError`` for ``restarts < 1``, a NaN or infinite feature, or
    ``orders`` of the wrong shape. ``helpers`` are the pipes of the helper
    processes that :func:`explained_variance_curve` started on these
    ``orders``. With ``step = len(helpers) + 1`` this process runs
    restarts ``0, step, ...``, and the helper behind ``helpers[i - 1]``
    sends the runs of restarts ``i, i + step, ...`` (see the module
    notes); at K=1 none sends anything.
    """
    X = _feature_rows(features, restarts)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix("feature matrix has no rows")
    if not 1 <= K <= X.shape[0]:
        raise KTooLarge(f"K={K} not in [1, {X.shape[0]}]")
    xx = (X * X).sum(1)
    # at K=1 every restart ends at the same mean (see the module notes)
    n_runs = 1 if K == 1 else restarts
    if orders is None:
        orders = _restart_orders(X, xx, K, seed, n_runs)
    else:
        orders = np.asarray(orders)
        if orders.ndim != 2 or orders.shape[0] != restarts or orders.shape[1] < K:
            raise ValueError(f"orders must be ({restarts}, >= {K}), got shape {orders.shape}")
    step = len(helpers) + 1 if n_runs > 1 else 1
    runs: list = [None] * n_runs
    runs[::step] = [_lloyd(X, xx, X[orders[r, :K]]) for r in range(0, n_runs, step)]
    for i, conn in enumerate(helpers[: step - 1], 1):
        runs[i::step] = receive(conn)
    inertias = [run[2] for run in runs] * (restarts if K == 1 else 1)
    C, assign, inertia, iters, reseeded = min(runs, key=lambda run: run[2])  # the first on ties
    return ClusterModel(K=K, centroids=C, assignments=assign, inertia=inertia, n_iter=iters,
                        reseeded=reseeded, restart_inertias=inertias)


def total_sum_of_squares(X: np.ndarray) -> float:
    return float(((X - X.mean(axis=0)) ** 2).sum())


def explained_variance_curve(
    features: FeatureMatrix | np.ndarray,
    k_range: Iterable[int] = range(1, 26),
    seed: int = 0,
    restarts: int = 10,
    jobs: int = 1,
) -> ElbowCurve:
    """Explained variance for each K in ``k_range``, from independent fits.

    Each K gets its own :func:`kmeans_fit`, kept in ``models``; the
    restarts' k-means++ orders are drawn once, for the largest K, and
    each K starts from their first K rows, so every fit equals the one
    ``kmeans_fit`` makes alone. With ``jobs > 1``, ``min(jobs,
    restarts) - 1`` helper processes run a share of every K's restarts
    (see the module notes); ``processes`` counts them plus this one. The
    curve only guarantees EV(K) >= EV(1) = 0, not monotonicity. All
    points identical (zero total sum of squares) defines EV = 1 for
    every K, with no fit and no helper. The knee suggestion is the largest K whose
    marginal EV gain still exceeds :data:`KNEE_FRACTION` of the K=1 to
    K=2 gain. Raises :class:`EmptyMatrix` for a matrix without rows,
    before any check of ``k_range``.
    """
    X = _feature_rows(features, restarts)
    if X.shape[0] == 0:
        raise EmptyMatrix("feature matrix has no rows: no users to cluster")
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty K range")
    if ks[0] < 1 or ks[-1] > X.shape[0]:
        raise KTooLarge(f"K range must lie within [1, {X.shape[0]}]")
    total_ss = total_sum_of_squares(X)
    points: list[tuple[int, float]] = []
    models: dict[int, ClusterModel] = {}
    step = 1
    if total_ss == 0.0:
        points = [(K, 1.0) for K in ks]
    else:
        orders = _restart_orders(X, (X * X).sum(1), ks[-1], seed, restarts)
        step = min(jobs, restarts) if ks[-1] > 1 else 1  # K=1 is one run
        shares = [(X, orders, ks, i, step) for i in range(1, step)]
        with start_helpers(_send_restarts, shares) as helpers:
            for K in ks:
                # one kmeans_fit call per K in this process, whichever process made its runs
                model = models[K] = kmeans_fit(X, K, seed=seed, restarts=restarts, orders=orders,
                                               helpers=helpers)
                points.append((K, min(1.0, max(0.0, 1.0 - model.inertia / total_ss))))
    knee = None
    gains = {
        k1: ev1 - ev0
        for (k0, ev0), (k1, ev1) in zip(points, points[1:])
        if k1 == k0 + 1
    }
    if 2 in gains and gains[2] > 0:
        threshold = KNEE_FRACTION * gains[2]
        passing = [k for k, g in gains.items() if g > threshold]
        knee = max(passing) if passing else ks[0]
    return ElbowCurve(points=points, knee=knee, models=models, processes=step)


@dataclass(slots=True)
class ClusterProfile:
    """Per-cluster activity summary behind the behavior-type reports."""

    cluster: int
    size: int
    mean_actions: float
    median_actions: float
    action_histogram: np.ndarray
    top_transitions: list[tuple[int, int, int]]


def profile_clusters(
    features: FeatureMatrix,
    model: ClusterModel,
    traces: TraceSet,
    break_label: int,
    top_transitions: int = 10,
) -> list[ClusterProfile]:
    """Summarize each cluster: size, actions per user, histogram, transitions.

    Actions per user count non-BREAK tokens; the aggregate histogram and
    the summed transition counts cover the full vocabulary, BREAK
    included. Every user in ``features`` needs a trace (else ``KeyError``).
    """
    n = features.n
    row_of = {user: r for r, user in enumerate(traces.users)}
    rows = np.array([row_of[user] for user in features.user_ids], dtype=np.int64)
    counts, hists = count_transitions_by_group(
        traces.labels, traces.offsets, rows, model.assignments, model.K, n,
    )
    actions = traces.action_counts(break_label)[rows]
    profiles = []
    for k in range(model.K):
        own = actions[model.assignments == k]
        flat = counts[k].ravel()
        order = np.argsort(-flat, kind="stable")[:top_transitions]
        top = [(int(i // n), int(i % n), int(flat[i])) for i in order if flat[i] > 0]
        profiles.append(
            ClusterProfile(
                cluster=k,
                size=len(own),
                mean_actions=float(np.mean(own)) if own.size else 0.0,
                median_actions=float(np.median(own)) if own.size else 0.0,
                action_histogram=hists[k],
                top_transitions=top,
            )
        )
    return profiles

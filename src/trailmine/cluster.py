"""K-means over user feature vectors, elbow curve, and cluster profiles.

Lloyd's algorithm with k-means++ seeding and best-of-restarts selection.
Everything is deterministic for a fixed (seed, restarts, data order):
ties break to the lowest index, and an emptied cluster is re-seeded at
the point farthest from its assigned centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .markov import FeatureMatrix, count_transitions_by_group
from .sessions import UserTrace

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
    seed: int
    restarts: int
    n_iter: int = 0
    # within-run inertia after each assignment step, for the best restart
    inertia_history: list[float] = field(default_factory=list)


@dataclass(slots=True)
class ElbowCurve:
    """(K, explained variance) points; EV(K) = 1 - inertia(K) / total_SS."""

    points: list[tuple[int, float]]
    knee: int | None = None


def _sqdist(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, m x K."""
    # (x - c)^2 expanded; clip tiny negatives from cancellation
    d = (X * X).sum(1)[:, None] + (C * C).sum(1)[None, :] - 2.0 * (X @ C.T)
    return np.maximum(d, 0.0)


def _kmeanspp_init(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    m = X.shape[0]
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[rng.integers(m)]
    d2 = _sqdist(X, centroids[:1]).ravel()
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centroids[k] = X[idx]
        d2 = np.minimum(d2, _sqdist(X, centroids[k : k + 1]).ravel())
    return centroids


def _lloyd(
    X: np.ndarray,
    K: int,
    rng: np.random.Generator,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float, int, list[float]]:
    m, n = X.shape
    C = _kmeanspp_init(X, K, rng) if init is None else init.copy()
    history: list[float] = []
    assign = np.zeros(m, dtype=np.int64)
    it = 0
    for it in range(1, LLOYD_MAX_ITER + 1):
        D = _sqdist(X, C)
        assign = D.argmin(axis=1)          # argmin takes the lowest index on ties
        history.append(float(D[np.arange(m), assign].sum()))
        sums = np.zeros((K, n))
        np.add.at(sums, assign, X)
        counts = np.bincount(assign, minlength=K)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # re-seed each empty cluster at the point currently farthest
            # from its centroid, farthest first
            dist_own = D[np.arange(m), assign]
            order = np.argsort(-dist_own, kind="stable")
            for k, idx in zip(empty, order[: empty.size]):
                sums[k] = X[idx]
                counts[k] = 1
        newC = sums / counts[:, None]
        shift = float(np.sqrt(((newC - C) ** 2).sum(axis=1)).max())
        C = newC
        if shift < LLOYD_TOL:
            break
    D = _sqdist(X, C)
    assign = D.argmin(axis=1)
    inertia = float(D[np.arange(m), assign].sum())
    history.append(inertia)
    return C, assign, inertia, it, history


def kmeans_fit(
    features: FeatureMatrix | np.ndarray,
    K: int,
    seed: int = 0,
    restarts: int = 10,
) -> ClusterModel:
    """Best-of-restarts Lloyd's K-means.

    Each restart draws its own k-means++ initialization from a child
    generator of ``seed``; the restart with the lowest inertia wins
    (first one on exact ties). Raises :class:`EmptyMatrix` and
    :class:`KTooLarge` on degenerate inputs.
    """
    X = features.X if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix("feature matrix has no rows")
    if not 1 <= K <= X.shape[0]:
        raise KTooLarge(f"K={K} not in [1, {X.shape[0]}]")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        C, assign, inertia, iters, history = _lloyd(X, K, rng)
        if best is None or inertia < best[2]:
            best = (C, assign, inertia, iters, history)
    C, assign, inertia, iters, history = best
    return ClusterModel(
        K=K,
        centroids=C,
        assignments=assign,
        inertia=inertia,
        seed=seed,
        restarts=restarts,
        n_iter=iters,
        inertia_history=history,
    )


def total_sum_of_squares(X: np.ndarray) -> float:
    return float(((X - X.mean(axis=0)) ** 2).sum())


def explained_variance_curve(
    features: FeatureMatrix | np.ndarray,
    k_range: Iterable[int] = range(1, 26),
    seed: int = 0,
    restarts: int = 10,
    nested: bool = False,
) -> ElbowCurve:
    """Explained variance for each K in ``k_range``.

    All points identical (zero total sum of squares) defines EV = 1 for
    every K. The knee suggestion is the largest K whose marginal EV gain
    still exceeds :data:`KNEE_FRACTION` of the K=1 to K=2 gain.

    With ``nested=True`` each K additionally tries an initialization made
    of the previous best centroids plus the point farthest from its
    centroid, which makes the curve non-decreasing in K; the default
    independent-restart mode only guarantees EV(K) >= EV(1) = 0.
    """
    X = features.X if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty K range")
    if ks[0] < 1 or ks[-1] > X.shape[0]:
        raise KTooLarge(f"K range must lie within [1, {X.shape[0]}]")
    total_ss = total_sum_of_squares(X)
    points: list[tuple[int, float]] = []
    prev: ClusterModel | None = None
    for K in ks:
        if total_ss == 0.0:
            points.append((K, 1.0))
            continue
        model = kmeans_fit(X, K, seed=seed, restarts=restarts)
        if nested and prev is not None and K == prev.K + 1:
            d_own = _sqdist(X, prev.centroids)[np.arange(X.shape[0]), prev.assignments]
            extra = X[int(d_own.argmax())]
            init = np.vstack([prev.centroids, extra[None, :]])
            rng = np.random.default_rng([seed, restarts])
            C, assign, inertia, iters, history = _lloyd(X, K, rng, init=init)
            if inertia < model.inertia:
                model = ClusterModel(
                    K=K, centroids=C, assignments=assign, inertia=inertia,
                    seed=seed, restarts=restarts, n_iter=iters, inertia_history=history,
                )
        prev = model
        ev = min(1.0, max(0.0, 1.0 - model.inertia / total_ss))
        points.append((K, ev))
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
    return ElbowCurve(points=points, knee=knee)


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
    traces: Mapping[str, UserTrace] | Sequence[UserTrace],
    break_label: int,
    top_transitions: int = 10,
) -> list[ClusterProfile]:
    """Summarize each cluster: size, actions per user, histogram, transitions.

    Actions per user count non-BREAK tokens; the aggregate histogram and
    the summed transition counts cover the full vocabulary, BREAK
    included. ``traces`` must cover every user in ``features``.
    """
    if not isinstance(traces, Mapping):
        traces = {t.user: t for t in traces}
    n = features.n
    members = [traces[user] for user in features.user_ids]
    counts, hists = count_transitions_by_group(
        [t.sequence for t in members], model.assignments, model.K, n,
    )
    actions = np.array([t.action_count(break_label) for t in members], dtype=np.int64)
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

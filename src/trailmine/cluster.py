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
  X)`` does. A run takes the index rows of ``assign`` from one table
  ``arange(K * n).reshape(K, n)``, and re-seeds only when some count is 0;
- the squared row norms ``(X * X).sum(1)`` are computed once per fit.
  A distance is ``(xx + cc) - 2g`` with ``g *= 2.0`` in place, and the
  means, shift and k-means++ minima are updated in place too. ``(X + X)
  @ C.T`` is not used: it equals ``2.0 * (X @ C.T)`` only while no
  product leaves the normal range;
- restart ``r`` draws its k-means++ seeding from :class:`_Pcg64Stream`
  ``(seed, r)``, which gives the draws of ``np.random.default_rng([seed,
  r])`` for the two calls the seeding makes, ``integers(high)`` and
  ``random()``. It is NumPy's SeedSequence pool and PCG64 XSL-RR stream
  (O'Neill, HMC-CS-2014-0905) with Lemire's bounded draw (ACM TOMACS
  2019), carried in Python ints, so no fit imports ``numpy.random``
  (19 modules) for the ~25 draws of a restart. The tests check it draw
  for draw against NumPy's generator;
- a k-means++ draw searches the normalized cumulative sum of the
  distances with one ``rng.random()``. That is how
  ``Generator.choice(m, p=...)`` draws, so it takes the same index from
  the same random stream, without ``choice``'s per-call checks of ``p``.
  Those checks used to be the only guard against a NaN in the features,
  so the fits now reject non-finite input on entry;
- the elbow draws each restart's k-means++ order once, for its largest
  K, in the process that runs that restart, and every K starts Lloyd
  from the first K rows of that order. This is exact: restart ``r``
  always draws from the stream of ``(seed, r)``, the stream serves only
  the seeding, and draw ``k`` reads only the draws before it. So the
  first K draws for a larger K are the K draws for K itself, from the
  same random stream, whichever process draws them;
- a run ends at the first assignment that repeats the last one with no
  cluster empty: ``C`` already holds its means, so the update would
  rebuild ``C`` bit for bit (shift 0.0) and the closing pass would
  recompute the ``D`` at hand, with the same inertia and iteration count;
- K=1 runs Lloyd once: every restart's first update is the same
  ``bincount`` over all rows, so all end at one mean with one inertia.
  Restart 0 wins that tie, and ``restart_inertias`` repeats its inertia.
  Without ``orders`` passed in, only restart 0's order is drawn;
- with ``jobs`` processes the elbow deals its restarts out by ``r mod
  step``, ``step = min(jobs, restarts)``. The helpers are forked before
  any order is drawn: helper process ``i`` draws the orders of restarts
  ``i, i + step, ...`` and makes their ``_lloyd`` runs for every K > 1,
  each run one process makes alone, while this process draws and runs
  restarts ``0, step, ...``. Per K a helper sends its inertias and its
  first lowest run that is not NaN; the fit takes the first lowest of
  all inertias in restart order, which is ``min``'s pick over every run
  (a NaN wins only at restart 0, which this process runs).
"""

from __future__ import annotations

import operator
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


def _feature_rows(features: FeatureMatrix | np.ndarray, seed: int, restarts: int) -> np.ndarray:
    """The matrix to cluster; rejects a ``seed`` that is not an integer >= 0, ``restarts < 1`` and NaN or inf."""
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    X = features.X if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("feature matrix has non-finite values (NaN or inf)")
    return X


def _sqdist(X: np.ndarray, C: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, m x K; ``xx`` is ``(X * X).sum(1)``."""
    # (x - c)^2 expanded as (xx + cc) - 2g, in place; clip tiny negatives from cancellation
    d = xx[:, None] + (C * C).sum(1)
    g = X @ C.T
    g *= 2.0
    d -= g
    return np.maximum(d, 0.0, out=d)


# NumPy's SeedSequence hash constants (bit_generator.pyx) and PCG64's 128-bit multiplier (pcg64.h)
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(*entropy: int) -> list[int]:
    """``SeedSequence(list(entropy)).generate_state(8)``: NumPy's 4-word pool, then 8 output words."""
    words = [n >> s & _MASK32 for n in map(operator.index, entropy)
             for s in range(0, max(n.bit_length(), 1), 32)]
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value = (value ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = (_MIX_L * x - _MIX_R * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # entropy beyond the pool is mixed into every pool word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, h = [], _INIT_B
    for i in range(8):
        value = (pool[i % 4] ^ h) * (h := h * _MULT_B & _MASK32) & _MASK32
        out.append(value ^ value >> 16)
    return out


class _Pcg64Stream:
    """The draws of ``np.random.default_rng(list(entropy))`` for ``integers(high)`` and ``random()``.

    ``integers`` holds for ``1 <= high <= 2**32`` only; ``high == 1``
    consumes nothing, as in NumPy. A 32-bit draw takes the low half of
    a 64-bit output and keeps the high half for the next one, which
    ``random()`` leaves in place.
    """

    __slots__ = ("state", "inc", "spare")

    def __init__(self, *entropy: int):
        # NumPy reads the 8 words as 4 little-endian uint64s: (state high, low, increment high, low)
        w = _seed_words(*entropy)
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self.inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
        # PCG's srandom: step from 0, add the initial state, step again
        self.state = ((self.inc + initstate) * _PCG_MULT + self.inc) & _MASK128
        self.spare: int | None = None

    def next64(self) -> int:
        """PCG64 XSL-RR: step the 128-bit LCG, then rotate the xor of its halves."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        x, rot = (s >> 64 ^ s) & _MASK64, s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def next32(self) -> int:
        if self.spare is not None:
            x, self.spare = self.spare, None
            return x
        x = self.next64()
        self.spare = x >> 32
        return x & _MASK32

    def integers(self, high: int) -> int:
        """A draw from ``range(high)`` by Lemire's multiply-and-reject."""
        if high == 1:
            return 0
        # at high == 2**32 the threshold is 0 and this returns next32(), as NumPy's own branch does
        m, threshold = self.next32() * high, (1 << 32) % high
        while m & _MASK32 < threshold:
            m = self.next32() * high
        return m >> 32

    def random(self) -> float:
        return (self.next64() >> 11) * 2.0**-53


def _weighted_draw(w: np.ndarray, total: float, rng: _Pcg64Stream) -> int:
    """The index ``Generator.choice(len(w), p=w / total)`` draws: one ``rng.random()`` searched in the CDF.

    ``rng`` is a :class:`_Pcg64Stream` or a NumPy ``Generator``; both take the same draw.
    """
    cdf = np.divide(w, total)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp_order(
    X: np.ndarray, xx: np.ndarray, K: int, rng: _Pcg64Stream,
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
            np.minimum(d2, _sqdist(X, X[idx : idx + 1], xx).ravel(), out=d2)
    return order


def _restart_orders(X: np.ndarray, xx: np.ndarray, K: int, seed: int, restarts: range) -> np.ndarray:
    """``(len(restarts), K)`` draw orders, restart ``r`` drawn from ``_Pcg64Stream(seed, r)``.

    That stream is ``np.random.default_rng([seed, r])``'s, without the import.
    """
    return np.array([_kmeanspp_order(X, xx, K, _Pcg64Stream(seed, r)) for r in restarts])


def _lloyd(
    X: np.ndarray, xx: np.ndarray, C: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, int, int]:
    """One run from centroids ``C``: (centroids, assignments, inertia, iterations, re-seeds)."""
    m, n = X.shape
    K = C.shape[0]
    rows = np.arange(m)
    cells_of = np.arange(K * n).reshape(K, n)  # row k: the flat sums cells of cluster k
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
        cells = cells_of.take(assign, axis=0).ravel()
        sums = np.bincount(cells, weights=weights, minlength=K * n).reshape(K, n)
        counts = np.bincount(assign, minlength=K)
        prev = assign
        if not counts.all():
            # re-seed each empty cluster at the point currently farthest
            # from its centroid, farthest first
            prev = None
            empty = np.flatnonzero(counts == 0)
            reseeded += empty.size
            order = np.argsort(-D[rows, assign], kind="stable")
            for k, idx in zip(empty, order[: empty.size]):
                sums[k] = X[idx]
                counts[k] = 1
        sums /= counts[:, None]
        diff = sums - C
        diff *= diff
        shift = float(np.sqrt(diff.sum(axis=1).max()))
        C = sums
        if shift < LLOYD_TOL:
            break
    D = _sqdist(X, C, xx)
    assign = D.argmin(axis=1)
    return C, assign, float(D[rows, assign].sum()), it, reseeded


def _send_restarts(send, X: np.ndarray, ks: Sequence[int], seed: int, restarts: int, first: int,
                   step: int) -> None:
    """A helper's share of an elbow: restarts ``first, first + step, ...`` for each K > 1.

    The helper draws those restarts' orders itself, for the largest K of ``ks``, and sends one
    message per K: the inertias, and the index and run of the first lowest that is not NaN.
    """
    xx = (X * X).sum(1)
    orders = _restart_orders(X, xx, ks[-1], seed, range(first, restarts, step))
    for K in ks:
        if K > 1:
            runs = [_lloyd(X, xx, X[order[:K]]) for order in orders]
            inertias = [run[2] for run in runs]
            j = min(range(len(runs)), key=lambda j: (inertias[j] != inertias[j], inertias[j]))
            send((inertias, j, runs[j]))


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

    Restart ``r`` draws its k-means++ initialization from the stream of
    ``(seed, r)``; the restart with the lowest inertia wins (first one
    on exact ties). ``orders`` passes in draw orders already drawn for
    at least ``K`` centres, one row per restart: restart ``r`` starts
    from rows ``orders[r, :K]`` (see the module notes). Raises
    :class:`EmptyMatrix` and :class:`KTooLarge` on degenerate inputs,
    and ``ValueError`` for a negative ``seed``, ``restarts < 1``, a NaN
    or infinite feature, or ``orders`` of the wrong shape. ``helpers``
    are the pipes of the helper
    processes that :func:`explained_variance_curve` started. With ``step
    = len(helpers) + 1`` this process runs restarts ``0, step, ...``, and
    reads only those rows of ``orders``; the helper behind ``helpers[i -
    1]`` runs restarts ``i, i + step, ...`` and sends their inertias and
    first lowest run (see the module notes). At K=1 none sends anything.
    """
    X = _feature_rows(features, seed, restarts)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix("feature matrix has no rows")
    if not 1 <= K <= X.shape[0]:
        raise KTooLarge(f"K={K} not in [1, {X.shape[0]}]")
    xx = (X * X).sum(1)
    # at K=1 every restart ends at the same mean (see the module notes)
    n_runs = 1 if K == 1 else restarts
    if orders is None:
        orders = _restart_orders(X, xx, K, seed, range(n_runs))
    else:
        orders = np.asarray(orders)
        if orders.ndim != 2 or orders.shape[0] != restarts or orders.shape[1] < K:
            raise ValueError(f"orders must be ({restarts}, >= {K}), got shape {orders.shape}")
    step = len(helpers) + 1 if n_runs > 1 else 1
    runs = {r: _lloyd(X, xx, X[orders[r, :K]]) for r in range(0, n_runs, step)}
    inertias = [runs[r][2] if r in runs else None for r in range(n_runs)]
    for i, conn in enumerate(helpers[: step - 1], 1):
        inertias[i::step], j, runs[i + j * step] = receive(conn)
    best = min(range(n_runs), key=inertias.__getitem__)  # the first restart on ties
    C, assign, inertia, iters, reseeded = runs[best]
    inertias *= restarts if K == 1 else 1
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

    Each K gets its own :func:`kmeans_fit`, kept in ``models``; each
    restart's k-means++ order is drawn once, for the largest K, and each
    K starts from its first K rows, so every fit equals the one
    ``kmeans_fit`` makes alone. With ``jobs > 1``, ``min(jobs,
    restarts) - 1`` forked helper processes draw and run a share of
    every K's restarts (see the module notes); ``processes`` counts them
    plus this one; set ``OPENBLAS_NUM_THREADS=1`` before NumPy loads, as
    :mod:`trailmine.cli` does, for one BLAS thread in each. The curve only guarantees EV(K) >= EV(1) = 0, not
    monotonicity. All points identical (zero total sum of squares)
    defines EV = 1 for every K, with no fit and no helper. The knee
    suggestion is the largest K whose marginal EV gain still exceeds
    :data:`KNEE_FRACTION` of the K=1 to K=2 gain. Raises
    :class:`EmptyMatrix` for a matrix without rows, before any check of
    ``k_range``, and ``ValueError`` for a negative ``seed`` even where
    no fit draws from it.
    """
    X = _feature_rows(features, seed, restarts)
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
        step = min(jobs, restarts) if ks[-1] > 1 else 1  # K=1 is one run
        shares = [(X, ks, seed, restarts, i, step) for i in range(1, step)]
        with start_helpers(_send_restarts, shares) as helpers:
            # this process's own orders; the rows of the restarts the helpers run stay unread
            orders = np.zeros((restarts, ks[-1]), dtype=np.intp)
            orders[::step] = _restart_orders(X, (X * X).sum(1), ks[-1], seed, range(0, restarts, step))
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

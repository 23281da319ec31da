"""First-order Markov chains over action traces.

Transition counts are smoothed by adding ``alpha / n`` to every cell of
the count matrix before row normalization, which connects each state to
all others (including a self loop) with a small teleport probability.
Any positive ``alpha`` therefore makes the chain irreducible and
aperiodic, so a unique stationary distribution exists. The stationary
vector, not the order-blind page-view vector, is the per-user behavior
feature: two traces with identical page views but different ordering get
different stationary vectors.

Features are built in one columnar pass over the flat labels of a
``TraceSet`` (range-checked once) in blocks of at most 16 users: a block
is a view of consecutive rows, each user's transition counts come from
one ``bincount`` over ``user*n*n + from*n + to``, and the block's
stationary vectors come from one stacked linear solve of ``pi (P - I) =
0`` with its last equation replaced by ``sum(pi) = 1``. For these small
dense chains a direct solve is exact to rounding and far cheaper than power
iteration, which the test suite keeps as the independent reference.
:func:`stationary_distribution` runs the same solve on one chain.
Cluster profiles and resource comparison share the same count pass over
chosen rows of the same flat arrays, :func:`count_transitions_by_group`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .sessions import TraceSet

__all__ = [
    "LabelOutOfRange",
    "ZeroRowWithoutTeleport",
    "FeatureMatrix",
    "count_transitions",
    "count_transitions_by_group",
    "build_transition_model",
    "stationary_distribution",
    "page_view_vector",
    "build_feature_matrix",
    "DEFAULT_ALPHA",
    "FEATURE_KINDS",
]

DEFAULT_ALPHA = 0.15
# the per-user features build_feature_matrix can stack
FEATURE_KINDS = ("stationary", "pageviews")

# A block holds at most _BLOCK sequences (the users of one stacked solve)
# and, unless one sequence alone is longer, at most _BLOCK_LABELS labels.
# This bounds the working set: the feature pass never holds an (m, n, n)
# tensor, and no pass holds step keys for more than one block.
_BLOCK = 16
_BLOCK_LABELS = 1 << 13


class LabelOutOfRange(ValueError):
    """Trace contains a label outside [0, n)."""


class ZeroRowWithoutTeleport(ValueError):
    """alpha = 0 cannot normalize a row with no observed transitions."""


def _check_labels(arr: np.ndarray, n: int) -> np.ndarray:
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise LabelOutOfRange(f"trace labels must lie in [0, {n})")
    return arr


def _as_label_array(trace: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    arr = np.asarray(trace, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    return _check_labels(arr, n)


def _blocks(lengths: np.ndarray):
    """``(lo, hi)`` of consecutive blocks of sequences with these lengths, within the block bounds."""
    sizes = lengths.tolist()
    lo, m = 0, len(sizes)
    while lo < m:
        hi, size = lo + 1, sizes[lo]
        while hi < min(lo + _BLOCK, m) and size + sizes[hi] <= _BLOCK_LABELS:
            size += sizes[hi]
            hi += 1
        yield lo, hi
        lo = hi


def _step_keys(labels: np.ndarray, seq: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """``group*n*n + from*n + to`` of every step that stays inside one sequence.

    ``groups[s]`` is the group of block sequence s.
    """
    keys = groups[seq[1:]]  # built in place: one step-sized array at a time
    keys *= n
    keys += labels[:-1]
    keys *= n
    keys += labels[1:]
    return keys[seq[1:] == seq[:-1]]


def _add_counts(flat: np.ndarray, keys: np.ndarray) -> None:
    """``flat[k] += (keys == k).sum()`` for every k; shifts ``keys`` in place.

    Only the range of ``keys`` is counted, so a block touching few groups
    allocates no array the size of ``flat``.
    """
    if keys.size:
        base = int(keys.min())
        keys -= base
        hits = np.bincount(keys)
        flat[base:base + hits.size] += hits


def count_transitions_by_group(
    labels: np.ndarray,
    offsets: np.ndarray,
    rows: Sequence[int] | np.ndarray,
    groups: Sequence[int] | np.ndarray,
    n_groups: int,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum transition and label counts of chosen rows over groups in one pass.

    Row r is the sequence ``labels[offsets[r]:offsets[r + 1]]``. Each
    ``(rows[s], groups[s])`` pair counts row ``rows[s]`` under group
    ``groups[s]`` in [0, n_groups); a row may appear several times under
    different groups. Returns ``(counts, label_counts)`` of shapes
    (n_groups, n, n) and (n_groups, n), where ``counts[g, i, j]`` sums
    the i -> j steps of the group's rows.
    """
    labels = _check_labels(labels, n)
    rows = np.asarray(rows, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    if groups.shape != rows.shape or rows.ndim != 1:
        raise ValueError("groups must name one group per counted row")
    if groups.size and (groups.min() < 0 or groups.max() >= n_groups):
        raise ValueError(f"groups must lie in [0, {n_groups})")
    counts = np.zeros(n_groups * n * n, dtype=np.int64)
    label_counts = np.zeros(n_groups * n, dtype=np.int64)
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    for lo, hi in _blocks(lengths):
        seq = np.repeat(np.arange(hi - lo), lengths[lo:hi])
        # slot i of the block is label (row start - block-local start) + i
        shift = starts[lo:hi] - (np.cumsum(lengths[lo:hi]) - lengths[lo:hi])
        block = labels[np.arange(len(seq)) + shift[seq]]
        own = groups[lo:hi]
        _add_counts(counts, _step_keys(block, seq, own, n))
        keys = own[seq]
        keys *= n
        keys += block
        _add_counts(label_counts, keys)
    return counts.reshape(n_groups, n, n), label_counts.reshape(n_groups, n)


def count_transitions(trace: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Count adjacent label pairs of a trace into an n x n int64 matrix."""
    arr = _as_label_array(trace, n)
    return count_transitions_by_group(arr, np.array([0, len(arr)]), [0], [0], 1, n)[0][0]


def _smooth(counts: np.ndarray, alpha: float) -> np.ndarray:
    """(counts + alpha/n) / (rowsum + alpha) over the last two axes of a count stack."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    rowsums = counts.sum(axis=-1, dtype=np.float64)
    if alpha == 0 and (rowsums == 0).any():
        bad = int(np.argwhere(rowsums == 0)[0][-1])
        raise ZeroRowWithoutTeleport(f"row {bad} has no transitions and alpha = 0")
    P = counts + alpha / counts.shape[-1]
    P /= (rowsums + alpha)[..., None]
    return P


def build_transition_model(counts: np.ndarray, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """The row-stochastic P of n x n counts, smoothed with alpha/n per cell.

    P[i, j] = (counts[i, j] + alpha/n) / (rowsum_i + alpha). Counts must
    be non-negative. With alpha = 0 every row must have at least one
    observed transition, else :class:`ZeroRowWithoutTeleport` is raised.
    """
    A = np.asarray(counts)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("counts must be a square matrix")
    if (A < 0).any():
        raise ValueError("counts must be non-negative")
    return _smooth(A, alpha)


def _stationary_direct(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Stationary vectors of a (B, n, n) stack of row-stochastic matrices.

    Solves pi (P - I) = 0 with the normalization sum(pi) = 1 replacing
    the last (redundant) equation, in one stacked solve. If any system of
    the stack is singular, every one of them is solved with ``lstsq``.
    Overwrites ``P``. Returns the (B, n) vectors, their l1 residuals
    ||pi P - pi||_1 and the number of ``lstsq`` solves.
    """
    B, n, _ = P.shape
    M = P.transpose(0, 2, 1)  # a view: the system P^T - I is built in place
    diag = np.arange(n)
    M[:, diag, diag] -= 1.0
    last = M[:, -1, :].copy()  # the replaced equation, kept for the residual
    M[:, -1, :] = 1.0
    b = np.zeros((B, n, 1))
    b[:, -1] = 1.0
    fallbacks = 0
    try:
        pi = np.linalg.solve(M, b)[..., 0]
    except np.linalg.LinAlgError:
        pi = np.stack([np.linalg.lstsq(M[u], b[u, :, 0], rcond=None)[0] for u in range(B)])
        fallbacks = B
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum(axis=1, keepdims=True)
    r = np.einsum("uij,uj->ui", M, pi)
    r[:, -1] = np.einsum("uj,uj->u", last, pi)
    return pi, np.abs(r).sum(axis=1), fallbacks


def stationary_distribution(P: np.ndarray) -> tuple[np.ndarray, float]:
    """Left principal eigenvector pi of P for its eigenvalue 1, and ||pi P - pi||_1.

    Solves the linear system of one chain, as :func:`build_feature_matrix`
    does for each block of users. P must be a non-empty square matrix of
    finite, non-negative cells whose rows sum to 1 within 1e-9; else a
    ``ValueError`` names the check that failed.
    """
    P = np.array(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.size == 0:
        raise ValueError(f"P must be a non-empty square matrix, not of shape {P.shape}")
    if not np.isfinite(P).all():
        raise ValueError("P must be finite")
    if (P < 0).any():
        raise ValueError("P must have no negative cell")
    off = np.abs(P.sum(axis=1) - 1.0).max()
    if off > 1e-9:
        raise ValueError(f"each row of P must sum to 1 within 1e-9, one is off by {off:.3g}")
    pi, residual, _ = _stationary_direct(P[None])
    return pi[0], float(residual[0])


def page_view_vector(trace: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Multiplicity of each label in the trace as int64; unaffected by ordering."""
    return np.bincount(_as_label_array(trace, n), minlength=n).astype(np.int64)


@dataclass(slots=True)
class FeatureMatrix:
    """Per-user feature vectors over the shared n-dimensional label space.

    For stationary features, ``max_residual`` is the worst l1 residual
    ||pi P - pi||_1 over the users and ``fallbacks`` counts the users
    whose stationary vector came from ``lstsq``.
    """

    user_ids: list[str]
    X: np.ndarray
    feature_kind: str
    label_names: list[str] = field(default_factory=list)
    max_residual: float = 0.0
    fallbacks: int = 0

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


def build_feature_matrix(
    traces: TraceSet,
    n: int,
    feature_kind: str = "stationary",
    alpha: float = DEFAULT_ALPHA,
    label_names: list[str] | None = None,
) -> FeatureMatrix:
    """Stack per-user features into an m x n matrix, one row per trace row.

    Chains are built over the full vocabulary dimension (BREAK included)
    so all users share one coordinate system. Stationary vectors are
    solved directly, a block of users per stacked solve.
    """
    if feature_kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {feature_kind!r}")
    _check_labels(traces.labels, n)
    lengths = np.diff(traces.offsets)
    X = np.zeros((len(traces), n))
    max_residual, fallbacks = 0.0, 0
    for lo, hi in _blocks(lengths):
        size = hi - lo
        labels = traces.labels[traces.offsets[lo]:traces.offsets[hi]]
        seq = np.repeat(np.arange(size), lengths[lo:hi])
        if feature_kind == "pageviews":
            X[lo:hi] = np.bincount(seq * n + labels, minlength=size * n).reshape(size, n)
            continue
        keys = _step_keys(labels, seq, np.arange(size), n)
        counts = np.bincount(keys, minlength=size * n * n).reshape(size, n, n)
        X[lo:hi], residual, lstsq_solves = _stationary_direct(_smooth(counts, alpha))
        max_residual = max(max_residual, float(residual.max()))
        fallbacks += lstsq_solves
    return FeatureMatrix(list(traces.users), X, feature_kind, list(label_names or []), max_residual, fallbacks)

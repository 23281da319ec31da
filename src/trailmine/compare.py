"""Per-resource behavior comparison.

Users are attributed to a resource (ontology acronym) when at least a
threshold share of their actions target it; attribution is not
exclusive, so one user can count under several resources. Attribution
reads the flat ontology codes of a :class:`~trailmine.sessions.TraceSet`
and names the attributed rows of each resource. Per resource the module
aggregates actions by behavior cluster, fits a chain on the whole
traces of the attributed users, and diffs transition matrices between
two resources over their most frequent labels.

The attribution ratio uses non-BREAK tokens in both numerator and
denominator (BREAK is an analysis artifact, not a user action); reports
state this convention in their headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .markov import build_transition_model, count_transitions_by_group
from .pca import PcaModel, pca_fit, pca_project
from .sessions import TraceSet

__all__ = [
    "UnassignedUser",
    "TooFewResources",
    "ResourceProfile",
    "TransitionDiff",
    "ResourceProjection",
    "extract_resource_traces",
    "aggregate_cluster_actions",
    "transition_diff",
    "project_resources",
    "ATTRIBUTION_NOTE",
]

DEFAULT_THRESHOLD_PCT = 20.0

ATTRIBUTION_NOTE = (
    "attribution ratio = (user's actions on the resource) / (user's non-BREAK "
    "actions); BREAK tokens count on neither side"
)


class UnassignedUser(KeyError):
    """An attributed user has no cluster assignment."""


class TooFewResources(ValueError):
    """Projection needs at least two resources."""


def extract_resource_traces(
    traces: TraceSet,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    *,
    break_label: int,
) -> dict[str, np.ndarray]:
    """Attribute whole user traces to resources via the threshold rule.

    A user belongs to every resource holding at least ``threshold_pct``
    percent of the user's non-BREAK actions, so the returned row sets
    are not mutually exclusive. Returns the ascending trace rows of each
    resource that has any.
    """
    attributed = traces.onto_codes >= 0
    stride = max(len(traces.onto_pool), 1)
    rows = np.repeat(np.arange(len(traces)), np.diff(traces.offsets))[attributed]
    keys, hits = np.unique(rows * stride + traces.onto_codes[attributed], return_counts=True)
    rows, codes = keys // stride, keys % stride
    denom = traces.action_counts(break_label)[rows]
    keep = (denom > 0) & (hits * 100.0 >= threshold_pct * denom)
    rows, codes = rows[keep], codes[keep]
    # return_counts keeps np.unique on its sort route, which never imports numpy.ma
    return {traces.onto_pool[code]: rows[codes == code]
            for code in np.unique(codes, return_counts=True)[0].tolist()}


@dataclass(slots=True)
class ResourceProfile:
    """Aggregated behavior of the users attributed to one resource."""

    resource: str
    visits: int                        # total actions of attributed users
    user_count: int
    cluster_action_counts: np.ndarray  # length K
    counts: np.ndarray                 # summed whole-trace transition counts, n x n
    label_counts: np.ndarray           # per-label frequencies, length n

    def cluster_ranks(self) -> np.ndarray:
        """Rank per cluster by action count (1 = largest; ties by cluster id)."""
        order = np.argsort(-self.cluster_action_counts, kind="stable")
        ranks = np.empty_like(order)
        ranks[order] = np.arange(1, len(order) + 1)
        return ranks


def aggregate_cluster_actions(
    traces: TraceSet,
    resource_rows: Mapping[str, np.ndarray],
    assignments: Mapping[str, int],
    K: int,
    n: int,
    break_label: int,
) -> list[ResourceProfile]:
    """Build one :class:`ResourceProfile` per resource.

    ``resource_rows`` holds the trace rows of :func:`extract_resource_traces`.
    ``cluster_action_counts[k]`` sums the total (non-BREAK) actions of
    the attributed users assigned to cluster k; an action is counted
    once per resource its user is attributed under. Raises
    :class:`UnassignedUser` when a user has no assignment.
    """
    resources = sorted(resource_rows)
    parts = [np.asarray(resource_rows[resource], dtype=np.int64) for resource in resources]
    rows = np.concatenate(parts + [np.empty(0, dtype=np.int64)])
    groups = np.repeat(np.arange(len(resources)), [len(part) for part in parts])
    users = [traces.users[row] for row in rows.tolist()]
    clusters = np.array([assignments.get(user, -1) for user in users], dtype=np.int64)
    bad = np.flatnonzero((clusters < 0) | (clusters >= K))
    if bad.size:
        user = users[bad[0]]
        if user not in assignments:
            raise UnassignedUser(user)
        raise UnassignedUser(f"{user}: cluster {assignments[user]} out of range")
    cluster_counts = np.zeros((len(resources), K), dtype=np.int64)
    np.add.at(cluster_counts, (groups, clusters), traces.action_counts(break_label)[rows])
    counts, label_counts = count_transitions_by_group(
        traces.labels, traces.offsets, rows, groups, len(resources), n,
    )
    profiles = [
        ResourceProfile(
            resource=resource,
            visits=int(cluster_counts[r].sum()),
            user_count=len(parts[r]),
            cluster_action_counts=cluster_counts[r],
            counts=counts[r],
            label_counts=label_counts[r],
        )
        for r, resource in enumerate(resources)
    ]
    profiles.sort(key=lambda p: (-p.visits, p.resource))
    return profiles


@dataclass(slots=True)
class TransitionDiff:
    """Difference of two resources' transition matrices over shown labels.

    ``diff[i, j] = P_a[i, j] - P_b[i, j]`` restricted to the top
    ``labels_shown`` (most frequent by combined label counts), so
    ``transition_diff(a, b)`` is the exact negation of
    ``transition_diff(b, a)``.
    """

    resource_a: str
    resource_b: str
    labels_shown: list[int]
    diff: np.ndarray
    histogram_a: np.ndarray   # full-length label frequencies for resource a
    histogram_b: np.ndarray


def transition_diff(
    profile_a: ResourceProfile,
    profile_b: ResourceProfile,
    alpha: float = 0.15,
    top_t: int = 10,
) -> TransitionDiff:
    """Fit a smoothed chain per resource and diff them over top labels."""
    n = len(profile_a.counts)
    if len(profile_b.counts) != n:
        raise ValueError("profiles cover different vocabularies")
    combined = profile_a.label_counts + profile_b.label_counts
    order = np.argsort(-combined, kind="stable")
    shown = [int(i) for i in order[: min(top_t, n)]]
    P_a = build_transition_model(profile_a.counts, alpha)
    P_b = build_transition_model(profile_b.counts, alpha)
    ix = np.ix_(shown, shown)
    return TransitionDiff(
        resource_a=profile_a.resource,
        resource_b=profile_b.resource,
        labels_shown=shown,
        diff=P_a[ix] - P_b[ix],
        histogram_a=profile_a.label_counts.copy(),
        histogram_b=profile_b.label_counts.copy(),
    )


@dataclass(slots=True)
class ResourceProjection:
    """PCA landscape of resources by their cluster activity mix."""

    resources: list[str]
    coordinates: np.ndarray
    model: PcaModel


def project_resources(
    profiles: Sequence[ResourceProfile],
    top_m: int = 50,
    r: int = 3,
) -> ResourceProjection:
    """Project the most-visited resources by their per-cluster action counts.

    Resources with similar behavior mixes land close together; the
    distance grows with the difference in actions performed per behavior
    cluster.
    """
    if len(profiles) < 2:
        raise TooFewResources("need at least two resource profiles")
    chosen = sorted(profiles, key=lambda p: (-p.visits, p.resource))[:top_m]
    if len(chosen) < 2:
        raise TooFewResources("need at least two resources after top-m selection")
    X = np.vstack([p.cluster_action_counts for p in chosen]).astype(np.float64)
    r_eff = max(1, min(r, min(X.shape)))
    model = pca_fit(X, r_eff)
    coords = pca_project(model, X)
    return ResourceProjection(
        resources=[p.resource for p in chosen],
        coordinates=coords,
        model=model,
    )

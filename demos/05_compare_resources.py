# Compare how differently users behave on two resources.
#
# Users are attributed to every ontology that holds at least 20% of
# their actions (non-exclusive). Per resource the module aggregates
# actions by behavior cluster, fits a chain on the attributed users'
# traces, and diffs the transition matrices. Here one resource is
# "flat" (no class hierarchy, so no tree browsing), which shifts its
# users toward the search-to-class transition.

import tempfile
from pathlib import Path

import numpy as np

from trailmine import (
    aggregate_cluster_actions,
    build_feature_matrix,
    extract_resource_traces,
    kmeans_fit,
    project_resources,
    transition_diff,
)
from trailmine.actions import default_ruleset
from trailmine.pipeline import build_traces, ingest_paths
from trailmine.synth import default_archetypes, generate_synthetic_log

ruleset = default_ruleset()
vocab = ruleset.vocabulary
with tempfile.TemporaryDirectory() as workdir:
    log = Path(workdir) / "corpus.log"
    generate_synthetic_log(default_archetypes(), users_per_archetype=150, seed=5, path=log)
    batch, _ = ingest_paths([log], ruleset=ruleset)
traces, _ = build_traces(batch, vocab.break_id)

features = build_feature_matrix(traces, vocab.n, label_names=vocab.names())
model = kmeans_fit(features, 7, seed=0)
assignments = dict(zip(features.user_ids, (int(c) for c in model.assignments)))

# the attributed trace rows of each resource; a user can count under several
by_resource = extract_resource_traces(traces, threshold_pct=20, break_label=vocab.break_id)
print("attributed users per resource:")
for res in sorted(by_resource, key=lambda r: -len(by_resource[r])):
    print(f"  {res:10s} {len(by_resource[res]):4d} users")

profiles = aggregate_cluster_actions(traces, by_resource, assignments, model.K, vocab.n, vocab.break_id)
print("\nresource profiles (visits = actions of attributed users):")
for p in profiles[:5]:
    ranks = p.cluster_ranks()
    print(f"  {p.resource:10s} visits={p.visits:6d} users={p.user_count:4d} "
          f"cluster action counts {p.cluster_action_counts.tolist()} (ranks {ranks.tolist()})")

# diff the two most visited resources over their ten most frequent labels
a, b = profiles[0], profiles[1]
diff = transition_diff(a, b, alpha=0.15, top_t=10)
names = [vocab[i].name for i in diff.labels_shown]
print(f"\ntransition diff {a.resource} minus {b.resource} over top labels:")
print(" shown:", ", ".join(names))
extreme = np.unravel_index(np.abs(diff.diff).argmax(), diff.diff.shape)
print(f" largest gap: {names[extreme[0]]!r} -> {names[extreme[1]]!r} "
      f"= {diff.diff[extreme]:+.3f}")

# the behavior-mix landscape of all resources
projection = project_resources(profiles, top_m=50, r=2)
print(f"\nresource map over {len(projection.resources)} resources "
      f"(PC variance {np.round(projection.model.explained_variance_ratio, 3)}):")
for res, (x, y) in zip(projection.resources, projection.coordinates):
    print(f"  {res:10s} ({x:10.1f}, {y:10.1f})")

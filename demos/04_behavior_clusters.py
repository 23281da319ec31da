# Cluster users into behavior types and inspect the result.
#
# Generates a labeled corpus from the seven built-in archetypes, runs
# ingest -> traces -> stationary features, picks K with the elbow
# curve, clusters, and projects everything to three principal
# components for plotting.

import tempfile
from pathlib import Path

import numpy as np

from trailmine import build_feature_matrix, explained_variance_curve, kmeans_fit, pca_fit, pca_project
from trailmine.actions import default_ruleset
from trailmine.cluster import profile_clusters
from trailmine.pca import loading_extremes
from trailmine.pipeline import build_traces, ingest_paths
from trailmine.synth import default_archetypes, generate_synthetic_log

archetypes = default_archetypes()
ruleset = default_ruleset()
vocab = ruleset.vocabulary
with tempfile.TemporaryDirectory() as workdir:
    log = Path(workdir) / "corpus.log"
    _, truth = generate_synthetic_log(archetypes, users_per_archetype=120, seed=42,
                                      bot_fraction=0.1, path=log)
    batch, stats = ingest_paths([log], ruleset=ruleset)

# one TraceSet: every user's BREAK-joined trace as a row of flat arrays
traces, _ = build_traces(batch, vocab.break_id)
print(f"{stats.lines} lines -> {stats.events} events from {len(traces)} users")
features = build_feature_matrix(traces, vocab.n, feature_kind="stationary",
                                label_names=vocab.names())

# elbow: explained variance flattens once the real structure is covered
curve = explained_variance_curve(features, k_range=range(1, 11), seed=0, restarts=5)
for k, ev in curve.points:
    bar = "#" * int(ev * 40)
    print(f"K={k:2d}  EV={ev:.3f}  {bar}")
print(f"knee suggestion: K={curve.knee}")

model = kmeans_fit(features, curve.knee, seed=0)
print(f"\nK={model.K}, inertia={model.inertia:.4f}")

# per-cluster activity summaries; recovered clusters match the archetypes
profiles = profile_clusters(features, model, traces, vocab.break_id)
by_user = dict(zip(features.user_ids, model.assignments))
for prof in profiles:
    members = [u for u, c in by_user.items() if c == prof.cluster]
    top_arch = np.bincount([truth.users[u].archetype for u in members]).argmax()
    top_label = int(np.argmax(prof.action_histogram[: vocab.n - 1]))
    print(f"cluster {prof.cluster}: {prof.size:4d} users, "
          f"avg {prof.mean_actions:5.1f} actions (median {prof.median_actions:g}); "
          f"top action {vocab[top_label].name!r}; "
          f"mostly {archetypes[top_arch].name!r}")

# three principal axes for the cluster landscape plot
pca = pca_fit(features.X, 3)
coords = pca_project(pca, features.X)
print(f"\nPCA cumulative variance: {np.round(pca.cumulative_ratio, 3)}")
for ext in loading_extremes(pca, vocab.names()):
    print(f"  PC{ext['component']}: + {ext['largest']}  /  - {ext['smallest']}")
print(f"coordinates shape: {coords.shape} (write to CSV for plotting)")

"""The benchmark's workloads: a seeded synthetic corpus plus the CLI calls that process it.

Every workload generates its corpus with ``trailmine.synth`` from the
seed it is given, then drives the pipeline through ``trailmine.cli.main``
exactly as a user would type the commands. ``FULL`` sizes are the
measured ones; ``TINY`` sizes exist for the self-test only.

Why each workload exists (see README.md for the measured layer shares):

- ``archetypes``: the paper's analysis as a user runs it, ``trailmine run``
  with the default elbow (K 1..25, 10 restarts, K from the knee) at
  ``--jobs 2``. The elbow dominates, then features; it exercises the
  worker-pool ingest path.
- ``long_traces``: few users with 40 sessions each and 30% bot lines, so
  per-event work (the single-worker ingest loop, sessionizing, compare)
  dominates. Elbow and feature changes should not move it.
- ``stagewise``: the resumable per-stage subcommands at a fixed K=7, the
  only workload that reads ``traces.jsonl`` and ``features.csv`` back.
  Features dominate and there is no elbow.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

LOG_NAME = "access.log"
TRUTH_NAME = "truth.json"
ALPHA = 0.15  # the pipeline's default teleport weight; the feature checks rebuild P with it


@dataclass(frozen=True)
class Workload:
    name: str
    users_per_archetype: dict  # size name -> users per archetype
    bot_fraction: float
    sessions_per_user: int | None  # None keeps each archetype's own distribution
    jobs: int
    predicted_largest_layer: str
    stagewise: bool = False

    def users(self, size: str) -> int:
        return self.users_per_archetype[size]

    def archetypes(self):
        from dataclasses import replace

        from trailmine.synth import default_archetypes

        specs = default_archetypes()
        if self.sessions_per_user is not None:
            specs = [replace(s, sessions_per_user=("constant", self.sessions_per_user)) for s in specs]
        return specs

    def commands(self, log: Path, out: Path) -> list[list[str]]:
        """The ``trailmine`` argument lists one run executes, in order."""
        log, out = str(log), str(out)
        if not self.stagewise:
            return [["run", "--logs", log, "--out-dir", out, "--jobs", str(self.jobs)]]
        traces, features, assignments = f"{out}/traces.jsonl", f"{out}/features.csv", f"{out}/assignments.csv"
        return [
            ["ingest", "--logs", log, "--out-dir", out, "--jobs", str(self.jobs)],
            ["features", "--traces", traces, "--out", features],
            ["cluster", "--features", features, "--out-dir", out, "--k", "7", "--k-range", "7:7",
             "--traces", traces],
            ["pca", "--features", features, "--out-dir", out, "--assignments", assignments],
            ["compare", "--traces", traces, "--assignments", assignments, "--out-dir", out],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("archetypes", {"full": 30, "tiny": 5}, 0.1, None, jobs=2,
                 predicted_largest_layer="cluster"),
        Workload("long_traces", {"full": 7, "tiny": 4}, 0.3, 40, jobs=1,
                 predicted_largest_layer="ingest"),
        Workload("stagewise", {"full": 50, "tiny": 5}, 0.1, None, jobs=1,
                 predicted_largest_layer="markov", stagewise=True),
    )
}

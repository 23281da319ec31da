"""Output checks of one run against the generator's ground truth.

Each check returns a list of failure messages; an empty list means the
run's outputs are correct. The checks read the documented artifacts
(``manifest.json`` or ``ingest_stats.json``, ``traces.jsonl``,
``features.csv``, ``assignments.csv``) and rebuild the smoothed chains
with plain NumPy, so they do not trust the code under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# artifacts the per-stage subcommands write; they write no manifest
STAGE_OUTPUTS = (
    "traces.jsonl", "ingest_stats.json", "usage_stats.txt", "features.csv", "elbow.csv",
    "assignments.csv", "centroids.csv", "pca_coordinates.csv", "resource_profiles.csv",
)
ROW_SUM_TOL = 1e-9
RESIDUAL_TOL = 1e-8
MAX_REPORTED = 3


def load_truth(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_traces(out_dir: Path) -> list[dict]:
    with open(out_dir / "traces.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def read_features(out_dir: Path) -> tuple[list[str], np.ndarray]:
    with open(out_dir / "features.csv", encoding="utf-8") as fh:
        n = len(fh.readline().rstrip("\n").split(",")) - 1
        users, rows = [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            users.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    return users, np.asarray(rows, dtype=np.float64).reshape(len(rows), n)


def check_funnel(out_dir: Path, truth: dict) -> list[str]:
    manifest = out_dir / "manifest.json"
    if manifest.exists():
        with open(manifest, encoding="utf-8") as fh:
            funnel = json.load(fh)["stages"]["ingest"]
    else:
        with open(out_dir / "ingest_stats.json", encoding="utf-8") as fh:
            funnel = json.load(fh)
    human, bots = truth["human_lines"], truth["bot_lines"]
    expected = {
        "lines": human + bots, "malformed": 0, "dropped_useragent": bots,
        "events": human, "unmapped": 0,
    }
    return [
        f"funnel {key}={funnel.get(key)} expected {want}"
        for key, want in expected.items()
        if funnel.get(key) != want
    ]


def check_traces(traces: list[dict], truth: dict) -> list[str]:
    users = truth["users"]
    failures = []
    if len(traces) != len(users):
        failures.append(f"{len(traces)} traces for {len(users)} true users")
    for t in traces:
        want = users.get(t["user"])
        if want is None:
            failures.append(f"trace for unknown user {t['user']}")
        elif t["sequence"] != want["sequence"]:
            failures.append(f"sequence of {t['user']} differs from the truth")
        elif t["session_lengths"] != want["session_lengths"]:
            failures.append(f"session_lengths of {t['user']} differ from the truth")
    return failures[:MAX_REPORTED]


def check_features(traces: list[dict], users: list[str], X: np.ndarray, alpha: float) -> list[str]:
    """Rows sum to 1 and are stationary for the chain rebuilt from each trace."""
    failures = []
    m, n = X.shape
    by_user = {t["user"]: t["sequence"] for t in traces}
    if sorted(by_user) != sorted(users):
        return ["features.csv users differ from traces.jsonl users"]
    worst_sum = float(np.abs(X.sum(axis=1) - 1.0).max()) if m else 0.0
    if worst_sum > ROW_SUM_TOL:
        failures.append(f"a feature row sums to 1 only within {worst_sum:.3e}")
    # one (m, n, n) transition-count tensor, rows smoothed with alpha/n
    keys = []
    for i, user in enumerate(users):
        seq = np.asarray(by_user[user], dtype=np.int64)
        keys.append(i * n * n + seq[:-1] * n + seq[1:])
    counts = np.bincount(np.concatenate(keys), minlength=m * n * n).reshape(m, n, n)
    P = (counts + alpha / n) / (counts.sum(axis=2, dtype=np.float64) + alpha)[:, :, None]
    residual = np.abs(np.einsum("ui,uij->uj", X, P) - X).sum(axis=1)
    worst = int(residual.argmax()) if m else 0
    if m and residual[worst] > RESIDUAL_TOL:
        failures.append(f"stationary residual {residual[worst]:.3e} for user {users[worst]}")
    return failures


def check_artifacts(out_dir: Path) -> list[str]:
    manifest = out_dir / "manifest.json"
    if manifest.exists():
        with open(manifest, encoding="utf-8") as fh:
            listed = json.load(fh)["outputs"]
    else:
        listed = STAGE_OUTPUTS
    return [f"missing artifact {name}" for name in listed if not (out_dir / name).exists()]


def check_run(out_dir: Path, truth: dict, alpha: float) -> list[str]:
    """Every output check of one run; an unreadable artifact is a failure too."""
    try:
        failures = check_funnel(out_dir, truth) + check_artifacts(out_dir)
        traces = read_traces(out_dir)
        failures += check_traces(traces, truth)
        users, X = read_features(out_dir)
        failures += check_features(traces, users, X, alpha)
    except (OSError, ValueError, KeyError) as exc:
        failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return failures


def purity(out_dir: Path, truth: dict) -> float:
    """Share of users whose cluster's majority archetype is their own."""
    with open(out_dir / "assignments.csv", encoding="utf-8") as fh:
        fh.readline()
        pairs = [line.rstrip("\n").rsplit(",", 1) for line in fh]
    archetype = truth["users"]
    table: dict[int, dict[int, int]] = {}
    for user, cluster in pairs:
        row = table.setdefault(int(cluster), {})
        a = archetype[user]["archetype"]
        row[a] = row.get(a, 0) + 1
    return sum(max(row.values()) for row in table.values()) / len(pairs)

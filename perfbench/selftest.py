"""Self-test of the benchmark; run from the root of a checkout:

  python3 perfbench/selftest.py

1. Runs every workload end to end at the tiny size, untraced and traced,
   and checks that each result carries every metric BENCHMARK.json names,
   that no run failed, and that the traced run also reports the
   workload's own layers (per-K elbow fits, per-subcommand CLI time,
   reading traces and features back).
2. Generates a tiny corpus, runs the pipeline, changes one label in
   ``traces.jsonl`` and checks that the output checks report it.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import ALPHA, LOG_NAME, TRUTH_NAME, WORKLOADS

# per-layer metrics that exist only on some workloads, so they are reported
# beside the JSON result rather than in it
WORKLOAD_EXTRAS = {
    "archetypes": [f"cluster.elbow.k{k:02d}_s" for k in range(1, 26)] + ["cli.run_s"],
    "long_traces": [f"cluster.elbow.k{k:02d}_s" for k in range(1, 26)] + ["cli.run_s"],
    "stagewise": ["cli.ingest_s", "cli.features_s", "cli.cluster_s", "cli.pca_s",
                  "cli.compare_s", "io.traces_read_s", "io.features_read_s"],
}


def run_workload(root: Path, workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_metrics(root: Path, spec: dict) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run_workload(root, workload, trace)
            want = {m["name"] for m in spec[key]}
            got = set(result["metrics"])
            label = f"{workload} trace={trace}"
            if got != want:
                problems.append(f"{label}: missing {sorted(want - got)}, unexpected {sorted(got - want)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} runs failed")
            if "fail_rate" not in text:
                problems.append(f"{label}: no fail_rate line")
            if trace:
                report = root / ".perfbench" / "reports" / f"{workload}-seed1-trace1.json"
                with open(report, encoding="utf-8") as fh:
                    values = json.load(fh)["metrics"]
                missing = [m for m in WORKLOAD_EXTRAS[workload] if m not in values]
                if missing:
                    problems.append(f"{label}: report lacks {missing}")
                if "largest layer by self time" not in text:
                    problems.append(f"{label}: no largest-layer line")
            print(f"selftest: {label} ran {result['attempted']} runs")
    return problems


def check_mutation(root: Path) -> list[str]:
    """The output checks must catch one changed label in traces.jsonl."""
    sys.path.insert(0, str(root / "src"))
    from checks import check_run, load_truth
    from trailmine import cli
    from trailmine.synth import generate_synthetic_log

    wl = WORKLOADS["archetypes"]
    work = root / ".perfbench" / f"selftest-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        _, truth = generate_synthetic_log(wl.archetypes(), wl.users("tiny"), seed=1,
                                          bot_fraction=wl.bot_fraction, path=work / LOG_NAME)
        truth.save(work / TRUTH_NAME)
        out = work / "out"
        if cli.main(["run", "--logs", str(work / LOG_NAME), "--out-dir", str(out)]) != 0:
            return ["mutation: the pipeline run failed"]
        truth = load_truth(work / TRUTH_NAME)
        clean = check_run(out, truth, ALPHA)
        if clean:
            return [f"mutation: the unmodified run already fails: {clean}"]
        path = out / "traces.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["sequence"][0] = 1 if first["sequence"][0] == 0 else 0
        lines[0] = json.dumps(first, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        caught = check_run(out, truth, ALPHA)
        print(f"selftest: one changed label gives {caught}")
        return [] if any("sequence" in f for f in caught) else ["mutation: changed label not reported"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_metrics(root, spec) + check_mutation(root)
    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

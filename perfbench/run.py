"""trailmine benchmark: one workload, one seed, one measured run.

Run from the root of a checkout:

  python3 perfbench/run.py --workload archetypes --seed 1 --seconds 30 --trace 0

The corpus is generated from ``--seed`` with ``trailmine.synth``. With
``--trace 0`` the benchmark sets up several times, then repeats timed
runs (each in a fresh process) for ``--seconds`` seconds and prints the
end-to-end metrics. With ``--trace 1`` it sets up once, makes the same
timed runs, then one traced run, and prints the per-layer metrics. Every
run's outputs are checked against the generator's ground truth. The last
line of standard output is the JSON result; lines before it are the
same metrics for people, the provenance and the checks that failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SETUPS = 5          # set-ups per untraced run; setup_s is their median
MIN_RUNS = 3        # timed runs made even when --seconds runs out first
BUDGET_S = 170      # the whole invocation ends within this
BLAS_THREADS = "1"  # one BLAS thread per process, so busy threads never exceed the ingest pool


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "trailmine").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Steps:
    """Starts worker processes for one invocation and collects their results."""

    def __init__(self, root: Path, work: Path, args, deadline: float):
        self.root, self.work, self.args, self.deadline = root, work, args, deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS)
        self.count = 0

    def __call__(self, step: str, *extra: str) -> dict:
        self.count += 1
        result = self.work / f"{step}-{self.count}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), step,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--src", str(self.root / "src"),
               "--corpus", str(self.work / "corpus"), "--result", str(result), *extra]
        # own session, so a step past the time limit is killed with its ingest pool
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"failures": [f"{step} step still running at the time limit"]}
        if not result.exists():
            return {"failures": [f"{step} step exited {proc.returncode}: {stderr[-2000:]}"]}
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def measure(args, root: Path, work: Path) -> tuple[dict, list[str], dict]:
    """All set-ups, timed runs and the traced run of one invocation."""
    wl = WORKLOADS[args.workload]
    steps = Steps(root, work, args, time.monotonic() + BUDGET_S)
    failures: list[str] = []
    (work / "corpus").mkdir(parents=True)

    setups = [steps("setup", "--save-truth")]
    while len(setups) < (1 if args.trace else SETUPS) and not setups[-1].get("failures"):
        setups.append(steps("setup"))
    for s in setups:
        failures += s.get("failures", [])
    if failures:
        return {"setups": setups, "runs": [], "attempted": len(setups)}, failures, {}
    if len({s["corpus_sha256"] for s in setups}) != 1:
        failures.append("set-ups of one seed wrote different corpora")

    runs: list[dict] = []
    out = work / "out"
    t_loop = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - t_loop < args.seconds:
        shutil.rmtree(out, ignore_errors=True)
        runs.append(steps("run", "--out", str(out)))
        if time.monotonic() > steps.deadline:
            break
    for i, r in enumerate(runs):
        failures += [f"run {i}: {f}" for f in r.get("failures", [])]
    digests = {json.dumps(r["digest"], sort_keys=True) for r in runs if "digest" in r}
    if len(digests) > 1:
        failures.append("timed runs of one seed wrote different data artifacts")

    traced = {}
    if args.trace and not failures:
        traced = steps("trace", "--out", str(work / "traced"), "--reference", str(out))
        failures += [f"traced run: {f}" for f in traced.get("failures", [])]
    record = {
        "setups": setups, "runs": runs, "traced": traced,
        "attempted": len(runs) + (1 if args.trace else 0),
        "failed": sum(1 for r in runs if r.get("failures")) + (1 if traced.get("failures") else 0),
    }
    return record, failures, setups[0]


def end_to_end(record: dict) -> dict[str, float]:
    ok = [r for r in record["runs"] if not r.get("failures")]
    return {
        "run_cal": statistics.median(r["run_s"] / r["cal_s"] for r in ok),
        "run_s": statistics.median(r["run_s"] for r in ok),
        "cal_s": statistics.median(r["cal_s"] for r in ok),
        "setup_s": statistics.median(s["setup_s"] for s in record["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "purity": statistics.median(r["purity"] for r in ok),
    }


def per_layer(record: dict, setup: dict) -> dict[str, float]:
    metrics = dict(record["traced"]["metrics"])
    metrics["synth.generate_s"] = setup["generate_s"]
    metrics["synth.lines_per_s"] = setup["lines"] / setup["generate_s"]
    run_s = statistics.median(r["run_s"] for r in record["runs"] if not r.get("failures"))
    metrics["trace.untraced_run_s"] = run_s
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - run_s
    layers = {k: v for k, v in metrics.items() if k.startswith("self.")}
    metrics["trace.accounted_share"] = sum(layers.values()) / metrics["trace.total_s"]
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed runs repeat")
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: self-test only")
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "trailmine" / "__init__.py").is_file():
        return _fail(f"no trailmine sources under {root / 'src'}; run from the root of a checkout")
    try:
        with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    wl = WORKLOADS[args.workload]

    work = root / ".perfbench" / f"work-{os.getpid()}"
    try:
        record, failures, setup = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    nproc = os.cpu_count() or 1
    provenance = {
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root / "src"),
        "nproc": nproc,
        "python": setup.get("python"),
        "numpy": setup.get("numpy"),
        "openblas_num_threads": BLAS_THREADS,
        "threads": (f"ingest pool of {wl.jobs} worker(s), each process limited to {BLAS_THREADS} "
                    f"BLAS thread by OPENBLAS/OMP/MKL_NUM_THREADS; at most {wl.jobs} busy threads "
                    f"on {nproc} CPUs" + ("" if wl.jobs <= nproc else " (OVER nproc)")),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "lines": setup.get("lines"),
        "human_lines": setup.get("human_lines"),
        "bot_lines": setup.get("bot_lines"),
        "users": setup.get("users"),
        "timed_runs": len(record["runs"]),
        "setups": len(record["setups"]),
    }
    attempted = record["attempted"]
    failed = record.get("failed", attempted)
    print(f"workload {args.workload} seed {args.seed}: {setup.get('lines')} lines, "
          f"{setup.get('users')} users; {len(record['runs'])} timed runs")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for f in failures:
        print(f"FAILED {f}")
    print(f"fail_rate {failed / attempted:.4f} ({failed} of {attempted} runs failed)")
    if failures and not any(not r.get("failures") for r in record["runs"]):
        return _fail("no run completed; no metrics")

    if args.trace:
        if not record["traced"].get("metrics"):
            return _fail("the traced run produced no metrics")
        values = per_layer(record, setup)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(record)
        ok = [r for r in record["runs"] if not r.get("failures")]
        q1, q3 = _quartiles([r["run_s"] for r in ok])
        print(f"run_s quartiles {q1:.4f} .. {q3:.4f} s over {len(ok)} runs")
        q1, q3 = _quartiles([r["run_s"] / r["cal_s"] for r in ok])
        print(f"run_cal quartiles {q1:.2f} .. {q3:.2f} over {len(ok)} runs")
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:28s} {value:14.6g} {m['unit']}")
    for name in sorted(set(values) - names):
        unit = "s" if name.endswith("_s") else ""
        print(f"  {name:28s} {values[name]:14.6g} {unit} (extra)")
    if args.trace:
        self_times = {k[5:-2]: v for k, v in values.items() if k.startswith("self.")}
        largest = max(self_times, key=self_times.get)
        verdict = "matches" if largest == wl.predicted_largest_layer else "does not match"
        print(f"largest layer by self time: {largest} ({verdict} the prediction "
              f"{wl.predicted_largest_layer})")
    report = root / ".perfbench" / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "failures": failures, "metrics": values,
                   "record": record}, fh)
    print(f"report {report.relative_to(root)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

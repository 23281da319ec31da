"""One benchmark step in its own process: set-up, a timed run, or the traced run.

``run.py`` starts one process per step so that import time counts in
set-up and peak memory is per run. Each step writes its result as JSON
to ``--result``; the trailmine CLI's own output goes to this process's
standard output, which the parent discards.

  setup  import trailmine, generate the workload corpus and write it
  run    time a calibration loop, then the workload's CLI commands, then
         check the outputs
  trace  run the same commands with spans on every module call, then
         check that the traced outputs match a timed run's
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import ALPHA, LOG_NAME, TRUTH_NAME, WORKLOADS

# data artifacts that must repeat byte for byte for a fixed seed (the manifest holds timings)
DATA_ARTIFACTS = ("traces.jsonl", "features.csv", "elbow.csv", "assignments.csv")
EV_TOL = 1e-12
CAL_REPEATS = 8
CAL_ITERATIONS = 20000


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_source(src: Path) -> None:
    import trailmine

    if Path(trailmine.__file__).resolve().parent != (src / "trailmine").resolve():
        raise RuntimeError(f"trailmine imported from {trailmine.__file__}, not from {src}")


def setup(args, wl) -> dict:
    """Time importing trailmine plus generating and writing the corpus."""
    t0 = time.perf_counter()
    from trailmine.synth import generate_synthetic_log

    specs = wl.archetypes()
    t1 = time.perf_counter()
    lines, truth = generate_synthetic_log(
        specs, wl.users(args.size), seed=args.seed, bot_fraction=wl.bot_fraction,
        path=args.corpus / LOG_NAME,
    )
    t2 = time.perf_counter()
    _check_source(args.src)
    if args.save_truth:
        truth.save(args.corpus / TRUTH_NAME)
    import numpy as np

    return {
        "setup_s": t2 - t0,
        "generate_s": t2 - t1,
        "lines": len(lines),
        "human_lines": truth.human_lines,
        "bot_lines": truth.bot_lines,
        "users": len(truth.users),
        "corpus_sha256": _sha256(args.corpus / LOG_NAME),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def _execute(cli, commands, failures: list[str], span=None) -> None:
    for argv in commands:
        if span is None:
            rc = cli.main(argv)
        else:
            with span(f"cli.{argv[0]}"):
                rc = cli.main(argv)
        if rc != 0:
            failures.append(f"trailmine {argv[0]} exited {rc}")
            return


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop that uses no trailmine code.

    The host runs Python up to about 1.8x slower for stretches of seconds
    to minutes (README.md, *Noise*). Timed right before a run on the same
    CPU, this loop slows down with it, so ``run_s / cal_s`` keeps the
    program's cost and drops most of the host's.
    """
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(CAL_ITERATIONS):
            k = i % 977
            counts[k] = counts.get(k, 0) + i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_run(args, wl) -> dict:
    """Time the calibration loop and the workload's commands, tracing off; then check every output."""
    import trailmine.cli as cli

    _check_source(args.src)
    commands = wl.commands(args.corpus / LOG_NAME, args.out)
    failures: list[str] = []
    cal_s = calibration_s()
    t0 = time.perf_counter()
    _execute(cli, commands, failures)
    run_s = time.perf_counter() - t0
    # read before the checks allocate anything
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"run_s": run_s, "cal_s": cal_s, "peak_rss_mb": peak_kb / 1024.0,
            **_outputs(args, failures)}


def _outputs(args, failures: list[str]) -> dict:
    from checks import check_run, load_truth, purity

    truth = load_truth(args.corpus / TRUTH_NAME)
    if not failures:
        failures += check_run(args.out, truth, ALPHA)
    result = {"failures": failures}
    if not failures:
        result["purity"] = purity(args.out, truth)
        result["digest"] = {name: _sha256(args.out / name) for name in DATA_ARTIFACTS}
    return result


def traced_run(args, wl) -> dict:
    """The timed run's commands with spans, plus the replay fidelity checks."""
    import trailmine.cli as cli
    from spans import Tracer

    _check_source(args.src)
    commands = wl.commands(args.corpus / LOG_NAME, args.out)
    failures: list[str] = []
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("trace"):
            _execute(cli, commands, failures, tracer.span)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["io.artifact_bytes"] = sum(p.stat().st_size for p in args.out.iterdir() if p.is_file())
    result = _outputs(args, failures)
    if not failures:
        failures += fidelity(args, wl, tracer)
    result.update(metrics=metrics, spans=tracer.spans)
    return result


def fidelity(args, wl, tracer) -> list[str]:
    """The traced outputs and per-K fits must reproduce the timed run's artifacts."""
    import numpy as np

    from checks import read_features

    ref = args.reference
    failures = [
        f"traced {name} differs from the timed run's"
        for name in ("traces.jsonl", "features.csv")
        if (args.out / name).read_bytes() != (ref / name).read_bytes()
    ]
    _, X = read_features(ref)
    tss = float(((X - X.mean(axis=0)) ** 2).sum())
    with open(ref / "elbow.csv", encoding="utf-8") as fh:
        fh.readline()
        elbow = {int(k): float(ev) for k, ev in (line.split(",") for line in fh)}
    replayed = {
        k: 1.0 if tss == 0.0 else min(1.0, max(0.0, 1.0 - inertia / tss))
        for k, inertia in tracer.elbow_inertia.items()
    }
    if sorted(replayed) != sorted(elbow):
        failures.append(f"per-K fits {sorted(replayed)} do not match elbow.csv K {sorted(elbow)}")
    else:
        worst = max(abs(replayed[k] - elbow[k]) for k in elbow)
        if worst > EV_TOL:
            failures.append(f"EV(K) from the per-K fits misses elbow.csv by {worst:.3e}")
    if wl.jobs > 1:
        failures += ingest_routes_agree(args, ref)
    return failures


def ingest_routes_agree(args, ref: Path) -> list[str]:
    """A jobs=1 ingest must give the funnel and traces of the timed jobs>1 run."""
    from trailmine.actions import default_ruleset
    from trailmine.pipeline import build_traces, ingest_paths, write_traces_jsonl

    ruleset = default_ruleset()
    batch, stats = ingest_paths([args.corpus / LOG_NAME], ruleset=ruleset, jobs=1)
    traces, _ = build_traces(batch, ruleset.vocabulary.break_id)
    single = args.out / "traces.jobs1.jsonl"
    write_traces_jsonl(traces, single)
    failures = []
    if single.read_bytes() != (ref / "traces.jsonl").read_bytes():
        failures.append("jobs=1 ingest gives other traces than the jobs>1 run")
    with open(ref / "manifest.json", encoding="utf-8") as fh:
        funnel = json.load(fh)["stages"]["ingest"]
    for key in ("lines", "parsed", "malformed", "dropped_useragent", "dropped_ip",
                "dropped_asset", "unmapped", "events"):
        if funnel[key] != getattr(stats, key):
            failures.append(f"jobs=1 ingest {key}={getattr(stats, key)}, jobs>1 run {funnel[key]}")
    single.unlink()
    return failures


STEPS = {"setup": setup, "run": timed_run, "trace": traced_run}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("step", choices=sorted(STEPS))
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    p.add_argument("--corpus", type=Path, required=True, help="directory of the corpus and truth")
    p.add_argument("--out", type=Path, help="artifact directory of this run")
    p.add_argument("--reference", type=Path, help="a timed run's artifacts (trace step)")
    p.add_argument("--save-truth", action="store_true")
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args()
    sys.path.insert(0, str(args.src))
    try:
        result = STEPS[args.step](args, WORKLOADS[args.workload])
    except Exception:  # the parent counts the step as failed and reports why
        result = {"failures": [traceback.format_exc(limit=3)]}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

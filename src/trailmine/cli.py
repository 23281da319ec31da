"""Command line interface.

Subcommands mirror the pipeline stages (each consumes and produces the
documented file formats, so stages can be re-run independently), plus
``synth`` for the generator and ``run`` for the whole pipeline.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cluster import explained_variance_curve, kmeans_fit, profile_clusters
from .compare import (
    TooFewResources,
    aggregate_cluster_actions,
    extract_resource_traces,
    project_resources,
    transition_diff,
)
from .markov import build_feature_matrix
from .pca import pca_fit, pca_project
from .pipeline import (
    PipelineConfig,
    PipelineStageError,
    build_traces,
    ingest_paths,
    read_feature_csv,
    read_traces_jsonl,
    run_pipeline,
    write_cluster_outputs,
    write_compare_outputs,
    write_elbow_csv,
    write_feature_csv,
    write_pca_outputs,
    write_traces_jsonl,
    write_usage_stats,
)
from .sessions import compute_usage_stats
from .synth import default_archetypes, generate_synthetic_log, load_archetypes_json

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trailmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic access log with ground truth")
    p.add_argument("--out", required=True, help="log file to write (.gz supported)")
    p.add_argument("--truth", help="ground-truth JSON file")
    p.add_argument("--users", type=int, default=500, help="users per archetype")
    p.add_argument("--bots", type=float, default=0.0, help="bot line fraction in [0,1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--archetypes", help="archetype JSON config (default: built-in set)")

    p = sub.add_parser("ingest", help="parse logs into traces and usage statistics")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--log-format", choices=["combined", "common"], default="combined")
    p.add_argument("--rules", help="action mapping rules file")
    p.add_argument("--ua-blacklist")
    p.add_argument("--ip-blacklist")
    p.add_argument("--asset-patterns")
    p.add_argument("--gap-minutes", type=float, default=30.0)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("features", help="per-user feature matrix from traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--features", choices=["stationary", "pageviews"], default="stationary")
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--rules", help="rules file fixing the vocabulary (default: built-in)")

    p = sub.add_parser("cluster", help="K-means over the feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--k-range", default="1:25", help="elbow range, LO:HI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--traces", help="traces.jsonl for cluster profiles")
    p.add_argument("--rules", help="rules file fixing the vocabulary (default: built-in)")

    p = sub.add_parser("pca", help="principal components of the feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pca-components", type=int, default=3)
    p.add_argument("--assignments", help="assignments.csv to color coordinates")

    p = sub.add_parser("compare", help="per-resource behavior comparison")
    p.add_argument("--traces", required=True)
    p.add_argument("--assignments", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--threshold-pct", type=float, default=20.0)
    p.add_argument("--top-actions", type=int, default=10)
    p.add_argument("--top-resources", type=int, default=50)
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), help="resources to diff (default: top two)")
    p.add_argument("--rules", help="rules file fixing the vocabulary (default: built-in)")

    p = sub.add_parser("run", help="run the whole pipeline")
    p.add_argument("--config", help="INI config file ([pipeline] section)")
    p.add_argument("--logs", nargs="+")
    p.add_argument("--out-dir")
    p.add_argument("--log-format", choices=["combined", "common"])
    p.add_argument("--rules")
    p.add_argument("--ua-blacklist")
    p.add_argument("--ip-blacklist")
    p.add_argument("--asset-patterns")
    p.add_argument("--gap-minutes", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--features", choices=["stationary", "pageviews"], dest="feature_kind")
    p.add_argument("--k", type=int)
    p.add_argument("--k-range")
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--pca-components", type=int)
    p.add_argument("--threshold-pct", type=float)
    p.add_argument("--top-actions", type=int)
    p.add_argument("--top-resources", type=int)
    p.add_argument("--jobs", type=int)
    return parser


def _vocabulary(rules_file):
    from .actions import compile_ruleset, default_ruleset

    rs = compile_ruleset(rules_file) if rules_file else default_ruleset()
    return rs.vocabulary


def _read_assignments(path) -> dict[str, int]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            user, cluster = line.rstrip("\n").rsplit(",", 1)
            out[user] = int(cluster)
    return out


def _cmd_synth(args) -> int:
    archetypes = (
        load_archetypes_json(args.archetypes) if args.archetypes else default_archetypes()
    )
    lines, truth = generate_synthetic_log(
        archetypes, args.users, seed=args.seed, bot_fraction=args.bots, path=args.out,
    )
    if args.truth:
        truth.save(args.truth)
    print(f"wrote {len(lines)} lines ({truth.human_lines} human, {truth.bot_lines} bot) to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    cfg = PipelineConfig(
        logs=args.logs,
        out_dir=args.out_dir,
        log_format=args.log_format,
        rules=args.rules,
        ua_blacklist=args.ua_blacklist,
        ip_blacklist=args.ip_blacklist,
        asset_patterns=args.asset_patterns,
        gap_minutes=args.gap_minutes,
        jobs=args.jobs,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ruleset = cfg.ruleset()
    batch, stats = ingest_paths(
        args.logs,
        ruleset=ruleset,
        filter_config=cfg.filter_config(),
        log_format=args.log_format,
        jobs=args.jobs,
        rules_file=args.rules,
    )
    traces, sessions_by_user = build_traces(batch, ruleset.vocabulary.break_id, args.gap_minutes)
    write_traces_jsonl(traces, out_dir / "traces.jsonl")
    write_usage_stats(compute_usage_stats(sessions_by_user), out_dir)
    with open(out_dir / "ingest_stats.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "lines": stats.lines, "parsed": stats.parsed, "malformed": stats.malformed,
                "dropped_useragent": stats.dropped_useragent, "dropped_ip": stats.dropped_ip,
                "dropped_asset": stats.dropped_asset, "filtered": stats.filtered,
                "unmapped": stats.unmapped, "events": stats.events, "users": len(traces),
            },
            fh, indent=1,
        )
    print(f"{stats.lines} lines -> {stats.events} events, {len(traces)} users; wrote {out_dir}")
    return 0


def _cmd_features(args) -> int:
    vocab = _vocabulary(args.rules)
    traces = read_traces_jsonl(args.traces)
    features = build_feature_matrix(
        traces, vocab.n,
        feature_kind=args.features, alpha=args.alpha, label_names=vocab.names(),
    )
    write_feature_csv(features, args.out)
    print(f"wrote {features.m} x {features.n} {args.features} features to {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    features = read_feature_csv(args.features)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lo, hi = args.k_range.replace("..", ":").split(":")
    k_range = range(int(lo), min(int(hi), features.m) + 1)
    curve = explained_variance_curve(features, k_range, seed=args.seed, restarts=args.restarts)
    write_elbow_csv(curve, out_dir / "elbow.csv")
    K = args.k if args.k is not None else (curve.knee or 1)
    model = kmeans_fit(features, K, seed=args.seed, restarts=args.restarts)
    if args.traces:
        traces = read_traces_jsonl(args.traces)
        vocab = _vocabulary(args.rules)
        profiles = profile_clusters(features, model, traces, vocab.break_id)
    else:
        profiles = []
    write_cluster_outputs(features, model, profiles, out_dir)
    print(f"K={K} (knee suggestion {curve.knee}), inertia {model.inertia:.6g}; wrote {out_dir}")
    return 0


def _cmd_pca(args) -> int:
    features = read_feature_csv(args.features)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    r = min(args.pca_components, features.m, features.n)
    model = pca_fit(features.X, r)
    coords = pca_project(model, features.X)
    assignments = None
    if args.assignments:
        amap = _read_assignments(args.assignments)
        assignments = np.array([amap.get(u, -1) for u in features.user_ids])
    write_pca_outputs(features, model, coords, assignments, out_dir)
    print(f"{model.r} components, cumulative variance {model.cumulative_ratio[-1]:.4f}; wrote {out_dir}")
    return 0


def _cmd_compare(args) -> int:
    vocab = _vocabulary(args.rules)
    traces = read_traces_jsonl(args.traces)
    assignments = _read_assignments(args.assignments)
    K = max(assignments.values()) + 1 if assignments else 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resource_traces = extract_resource_traces(
        traces, threshold_pct=args.threshold_pct, break_label=vocab.break_id,
    )
    profiles = aggregate_cluster_actions(resource_traces, assignments, K, vocab.n, vocab.break_id)
    by_name = {p.resource: p for p in profiles}
    diff = None
    if args.pair:
        a, b = args.pair
        if a not in by_name or b not in by_name:
            missing = [x for x in (a, b) if x not in by_name]
            raise TooFewResources(f"no attributed users for resource(s): {', '.join(missing)}")
        diff = transition_diff(by_name[a], by_name[b], alpha=args.alpha, top_t=args.top_actions)
    elif len(profiles) >= 2:
        diff = transition_diff(profiles[0], profiles[1], alpha=args.alpha, top_t=args.top_actions)
    projection = None
    if len(profiles) >= 2:
        projection = project_resources(profiles, top_m=args.top_resources, r=3)
    write_compare_outputs(profiles, diff, projection, vocab.names(), out_dir)
    print(f"{len(profiles)} resources; wrote {out_dir}")
    return 0


def _cmd_run(args) -> int:
    cfg = PipelineConfig.from_ini(args.config) if args.config else PipelineConfig()
    overrides = {
        "logs": args.logs, "out_dir": args.out_dir, "log_format": args.log_format,
        "rules": args.rules, "ua_blacklist": args.ua_blacklist,
        "ip_blacklist": args.ip_blacklist, "asset_patterns": args.asset_patterns,
        "gap_minutes": args.gap_minutes, "alpha": args.alpha,
        "feature_kind": args.feature_kind, "k": args.k, "seed": args.seed,
        "restarts": args.restarts, "pca_components": args.pca_components,
        "threshold_pct": args.threshold_pct, "top_actions": args.top_actions,
        "top_resources": args.top_resources, "jobs": args.jobs,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    if args.k_range:
        lo, hi = args.k_range.replace("..", ":").split(":")
        cfg.k_range = (int(lo), int(hi))
    if not cfg.logs:
        print("trailmine run: error: no input logs (use --logs or the config file)", file=sys.stderr)
        return USAGE_EXIT
    manifest = run_pipeline(cfg)
    stages = ", ".join(f"{s}={e['seconds']}s" for s, e in manifest["stages"].items())
    print(f"pipeline done ({stages}); artifacts in {cfg.out_dir}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "features": _cmd_features,
    "cluster": _cmd_cluster,
    "pca": _cmd_pca,
    "compare": _cmd_compare,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, RuntimeError, PipelineStageError) as exc:
        print(f"trailmine {args.command}: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())

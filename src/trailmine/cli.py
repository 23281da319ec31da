"""Command line interface.

Subcommands mirror the pipeline stages (each consumes and produces the
documented file formats, so stages can be re-run independently), plus
``synth`` for the generator and ``run`` for the whole pipeline.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

# one BLAS thread per process unless the user set one, before NumPy loads: unpinned, each process
# of --jobs 2 kept its own spinning pool and a 700-user elbow took 1.5 s, against 0.45 s at --jobs 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from .logs import LOG_FORMATS
from .markov import FEATURE_KINDS
from .pipeline import (
    PipelineConfig,
    PipelineStageError,
    RunRecord,
    read_assignments_csv,
    read_feature_csv,
    read_traces_jsonl,
    run_pipeline,
    setting_parser,
    stage_cluster,
    stage_compare,
    stage_elbow,
    stage_features,
    stage_ingest,
    stage_pca,
    stage_sessionize,
)
from .synth import default_archetypes, generate_synthetic_log, load_archetypes_json

USAGE_EXIT = 1
DATA_EXIT = 2

# one flag per PipelineConfig field, read by its setting_parser; a subcommand takes
# those its stages read, and a flag left unset keeps the config's default
_CONFIG_FLAGS = {
    "logs": {"nargs": "+"},
    "log_format": {"choices": LOG_FORMATS},
    "rules": {"help": "action mapping rules file, which fixes the vocabulary (default: built-in)"},
    "feature_kind": {"flag": "--features", "choices": FEATURE_KINDS},
    "k_range": {"help": "elbow range, LO:HI"},
}
_FIELDS = {f.name: f for f in fields(PipelineConfig)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _add_config_flags(p: argparse.ArgumentParser, *names: str, required=("out_dir",)) -> None:
    for name in names:
        spec = dict(_CONFIG_FLAGS.get(name, {}))
        flag = spec.pop("flag", "--" + name.replace("_", "-"))
        parse = str if "nargs" in spec else setting_parser(_FIELDS[name])  # each --logs token is one path
        p.add_argument(flag, dest=name, type=parse, required=name in required, **spec)


def _synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="log file to write (.gz supported)")
    p.add_argument("--truth", help="ground-truth JSON file")
    p.add_argument("--users", type=int, default=500, help="users per archetype")
    p.add_argument("--bots", type=float, default=0.0, help="bot line fraction in [0,1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--archetypes", help="archetype JSON config (default: built-in set)")


def _ingest_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, "logs", "out_dir", "log_format", "rules", "ua_blacklist",
                      "ip_blacklist", "asset_patterns", "gap_minutes", "jobs",
                      required=("logs", "out_dir"))


def _features_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "feature_kind", "alpha", "rules")


def _cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    p.add_argument("--traces", help="traces.jsonl for cluster profiles")
    _add_config_flags(p, "out_dir", "k", "k_range", "seed", "restarts", "rules")


def _pca_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    p.add_argument("--assignments", help="assignments.csv to color coordinates")
    _add_config_flags(p, "out_dir", "pca_components")


def _compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--traces", required=True)
    p.add_argument("--assignments", required=True)
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), help="resources to diff (default: top two)")
    _add_config_flags(p, "out_dir", "alpha", "threshold_pct", "top_actions", "top_resources", "rules")


def _run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file ([pipeline] section)")
    _add_config_flags(p, *_FIELDS, required=())


def _build_parser(only: str | None = None) -> _Parser:
    """The parser of every subcommand, or of ``only`` alone with the same texts.

    A one-subcommand parser prints the full subcommand list in its usage
    line, so its usage errors read as the full parser's do; its other
    texts come from the subparser, which is the same in both.
    """
    parser = _Parser(prog="trailmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="{" + ",".join(_SUBCOMMANDS) + "}" if only else None)
    for name, (help_text, add_flags, _) in _SUBCOMMANDS.items():
        if only in (None, name):
            add_flags(sub.add_parser(name, help=help_text))
    return parser


def _config(args) -> PipelineConfig:
    """The INI file of ``--config`` if given, overridden by every flag set."""
    config = getattr(args, "config", None)
    cfg = PipelineConfig.from_ini(config) if config else PipelineConfig()
    for name in _FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


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
    record = RunRecord(_config(args))
    batch = stage_ingest(record)
    traces = stage_sessionize(record, batch)
    funnel = record.stages["ingest"]
    with open(record.path("ingest_stats.json"), "w", encoding="utf-8") as fh:
        json.dump({**funnel, "users": len(traces)}, fh, indent=1)
    print(f"{funnel['lines']} lines -> {funnel['events']} events, {len(traces)} users; "
          f"wrote {record.config.out_dir}")
    return 0


def _cmd_features(args) -> int:
    record = RunRecord(_config(args))
    features = stage_features(record, read_traces_jsonl(args.traces), Path(args.out))
    print(f"wrote {features.m} x {features.n} {record.config.feature_kind} features to {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    record = RunRecord(_config(args))
    features = read_feature_csv(args.features)
    traces = read_traces_jsonl(args.traces) if args.traces else None
    curve = stage_elbow(record, features)
    model = stage_cluster(record, features, traces, curve)
    print(f"K={model.K} (knee suggestion {curve.knee}), inertia {model.inertia:.6g}; "
          f"wrote {record.config.out_dir}")
    return 0


def _cmd_pca(args) -> int:
    record = RunRecord(_config(args), rules=False)
    assignments = read_assignments_csv(args.assignments) if args.assignments else None
    model = stage_pca(record, read_feature_csv(args.features), assignments)
    print(f"{model.r} components, cumulative variance {model.cumulative_ratio[-1]:.4f}; "
          f"wrote {record.config.out_dir}")
    return 0


def _cmd_compare(args) -> int:
    record = RunRecord(_config(args))
    assignments = read_assignments_csv(args.assignments)
    K = max(assignments.values(), default=0) + 1
    profiles = stage_compare(record, read_traces_jsonl(args.traces), assignments, K, args.pair)
    print(f"{len(profiles)} resources; wrote {record.config.out_dir}")
    return 0


def _cmd_run(args) -> int:
    cfg = _config(args)
    if not cfg.logs:
        print("trailmine run: error: no input logs (use --logs or the config file)", file=sys.stderr)
        return USAGE_EXIT
    manifest = run_pipeline(cfg)
    stages = ", ".join(f"{s}={e['seconds']}s" for s, e in manifest["stages"].items())
    print(f"pipeline done ({stages}); artifacts in {cfg.out_dir}")
    return 0


# each subcommand's help line, flags and handler, in the order the help lists them
_SUBCOMMANDS = {
    "synth": ("generate a synthetic access log with ground truth", _synth_flags, _cmd_synth),
    "ingest": ("parse logs into traces and usage statistics", _ingest_flags, _cmd_ingest),
    "features": ("per-user feature matrix from traces", _features_flags, _cmd_features),
    "cluster": ("K-means over the feature matrix", _cluster_flags, _cmd_cluster),
    "pca": ("principal components of the feature matrix", _pca_flags, _cmd_pca),
    "compare": ("per-resource behavior comparison", _compare_flags, _cmd_compare),
    "run": ("run the whole pipeline", _run_flags, _cmd_run),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the named subcommand's parser; an unknown name gets all of them for its error text
    args = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][2](args)
    except (ValueError, KeyError, OSError, RuntimeError, PipelineStageError) as exc:
        print(f"trailmine {args.command}: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())

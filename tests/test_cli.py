import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from trailmine import cli
from trailmine.cli import main
from trailmine.pipeline import PipelineConfig


@pytest.fixture(scope="module")
def synth_log(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    log = tmp / "synth.log"
    truth = tmp / "truth.json"
    rc = main([
        "synth", "--out", str(log), "--truth", str(truth),
        "--users", "15", "--bots", "0.1", "--seed", "4",
    ])
    assert rc == 0
    return log


def test_stagewise_chain(tmp_path, synth_log):
    ingest_dir = tmp_path / "ingest"
    assert main(["ingest", "--logs", str(synth_log), "--out-dir", str(ingest_dir)]) == 0
    traces = ingest_dir / "traces.jsonl"
    assert traces.exists()
    stats = json.loads((ingest_dir / "ingest_stats.json").read_text())
    assert stats["events"] <= stats["filtered"] <= stats["parsed"]

    features = tmp_path / "features.csv"
    assert main(["features", "--traces", str(traces), "--out", str(features)]) == 0

    cluster_dir = tmp_path / "cluster"
    assert main([
        "cluster", "--features", str(features), "--out-dir", str(cluster_dir),
        "--k", "7", "--k-range", "1:8", "--traces", str(traces),
    ]) == 0
    assert (cluster_dir / "assignments.csv").exists()
    assert (cluster_dir / "elbow.csv").exists()

    pca_dir = tmp_path / "pca"
    assert main([
        "pca", "--features", str(features), "--out-dir", str(pca_dir),
        "--assignments", str(cluster_dir / "assignments.csv"),
    ]) == 0
    assert (pca_dir / "pca_loadings.csv").exists()

    compare_dir = tmp_path / "compare"
    assert main([
        "compare", "--traces", str(traces),
        "--assignments", str(cluster_dir / "assignments.csv"),
        "--out-dir", str(compare_dir),
    ]) == 0
    assert (compare_dir / "resource_profiles.csv").exists()

    # `run` calls the same stage code: every artifact both routes write is identical
    run_dir = tmp_path / "run"
    assert main([
        "run", "--logs", str(synth_log), "--out-dir", str(run_dir), "--k", "7", "--k-range", "1:8",
    ]) == 0
    chain = {p.name: p for d in (ingest_dir, cluster_dir, pca_dir, compare_dir) for p in d.iterdir()}
    chain["features.csv"] = features
    shared = sorted(set(chain) & {p.name for p in run_dir.iterdir()})
    assert len(shared) == 25
    for name in shared:
        assert chain[name].read_bytes() == (run_dir / name).read_bytes(), name
    manifest = json.loads((run_dir / "manifest.json").read_text())
    funnel = {k: v for k, v in manifest["stages"]["ingest"].items() if k != "seconds"}
    funnel["users"] = manifest["stages"]["sessionize"]["users"]
    assert list(stats.items()) == list(funnel.items())
    # only `run` saves a manifest
    assert not any((d / "manifest.json").exists() for d in (ingest_dir, cluster_dir, pca_dir, compare_dir))


def test_features_writes_only_its_out_file(tmp_path, synth_log, monkeypatch):
    ingest_dir = tmp_path / "ingest"
    assert main(["ingest", "--logs", str(synth_log), "--out-dir", str(ingest_dir)]) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    features = tmp_path / "features.csv"
    assert main(["features", "--traces", str(ingest_dir / "traces.jsonl"), "--out", str(features)]) == 0
    assert features.exists()
    assert list(cwd.iterdir()) == []  # no default out dir was made


def test_run_subcommand_with_config(tmp_path, synth_log):
    out = tmp_path / "artifacts"
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        f"[pipeline]\nlogs = {synth_log}\nout_dir = {out}\nk = 7\nk_range = 1:8\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(ini), "--seed", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 2  # flag overrides config file
    assert manifest["stages"]["cluster"]["K"] == 7


def _imported_by_run(tmp_path, synth_log, module, *flags):
    """Whether a fresh process that runs ``trailmine run ... flags`` has imported ``module``."""
    argv = ["run", "--logs", str(synth_log), "--out-dir", "out", "--k", "7", "--k-range", "1:8", *flags]
    script = (
        "import sys\nfrom trailmine.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print({module!r} in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()[-1] == "True"


def test_run_does_not_import_numpy_ma(tmp_path, synth_log):
    # NumPy 2's plain np.unique(x) imports numpy.ma; a run uses only its sort route
    assert not _imported_by_run(tmp_path, synth_log, "numpy.ma")


def test_one_process_run_does_not_import_multiprocessing(tmp_path, synth_log):
    # it costs 7-12 ms (with socket and selectors), paid only where helper processes start
    assert not _imported_by_run(tmp_path, synth_log, "multiprocessing", "--jobs", "1")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    for flag in ("--tol", "--max-iter"):  # the stationary solve is direct, no iteration knobs
        with pytest.raises(SystemExit) as exc:
            main(["features", "--traces", "t.jsonl", "--out", "f.csv", flag, "1"])
        assert exc.value.code == 1
    for flag, value in (("--seed", "abc"), ("--k-range", "abc"), ("--k-range", "1:x")):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--logs", "a.log", flag, value])
        assert exc.value.code == 1, (flag, value)


# a valid value, other than the default, of every PipelineConfig field
NON_DEFAULT = {
    "logs": "a.log b.log",
    "out_dir": "elsewhere",
    "log_format": "common",
    "rules": "rules.txt",
    "ua_blacklist": "ua.txt",
    "ip_blacklist": "ip.txt",
    "asset_patterns": "assets.txt",
    "gap_minutes": "45.5",
    "alpha": "0.2",
    "feature_kind": "pageviews",
    "k": "5",
    "k_range": "2:12",
    "seed": "3",
    "restarts": "4",
    "pca_components": "2",
    "threshold_pct": "12.5",
    "top_actions": "7",
    "top_resources": "9",
    "jobs": "2",
}


def test_every_setting_reads_the_same_from_ini_and_flag(tmp_path):
    """Each config field is one INI key and one ``run`` flag, and the two agree."""
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    run_flags = {a.dest: a.option_strings[0] for a in subparsers.choices["run"]._actions}
    default = PipelineConfig()
    ini = tmp_path / "cfg.ini"
    for f in fields(PipelineConfig):
        text = NON_DEFAULT[f.name]
        ini.write_text(f"[pipeline]\n{f.name} = {text}\n", encoding="utf-8")
        from_ini = PipelineConfig.from_ini(ini)
        tokens = text.split() if f.name == "logs" else [text]
        from_flag = cli._config(cli._build_parser().parse_args(["run", run_flags[f.name], *tokens]))
        assert from_ini == from_flag, f.name
        assert getattr(from_ini, f.name) != getattr(default, f.name), f.name


def test_data_error_exit_code(tmp_path):
    rc = main(["features", "--traces", str(tmp_path / "missing.jsonl"), "--out", "x.csv"])
    assert rc == 2
    rc = main(["run", "--logs", str(tmp_path / "nope.log"), "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_run_without_logs_is_usage_error(tmp_path):
    assert main(["run", "--out-dir", str(tmp_path / "o")]) == 1


def test_compare_pair_missing_resource(tmp_path, synth_log):
    ingest_dir = tmp_path / "ingest"
    main(["ingest", "--logs", str(synth_log), "--out-dir", str(ingest_dir)])
    features = tmp_path / "features.csv"
    main(["features", "--traces", str(ingest_dir / "traces.jsonl"), "--out", str(features)])
    cluster_dir = tmp_path / "cluster"
    main(["cluster", "--features", str(features), "--out-dir", str(cluster_dir),
          "--k", "3", "--k-range", "1:4", "--traces", str(ingest_dir / "traces.jsonl")])
    rc = main([
        "compare", "--traces", str(ingest_dir / "traces.jsonl"),
        "--assignments", str(cluster_dir / "assignments.csv"),
        "--out-dir", str(tmp_path / "cmp"), "--pair", "NOPE1", "NOPE2",
    ])
    assert rc == 2


def test_ingest_without_parseable_lines_is_a_data_error(tmp_path):
    log = tmp_path / "garbage.log"
    log.write_text("not a log line\n<<< more garbage >>>\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--logs", str(log), "--out-dir", str(out)]) == 2
    assert not (out / "traces.jsonl").exists()


def test_all_bot_corpus_is_a_data_error_naming_no_users(tmp_path, capsys):
    log = tmp_path / "bot.log"
    log.write_text('1.2.3.4 - - [14/Mar/2016:09:07:32 -0700] "GET /ontologies/MCCV HTTP/1.1" 200 512 '
                   '"-" "Googlebot/2.1"\n', encoding="utf-8")
    assert main(["run", "--logs", str(log), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "stage 'elbow' failed" in err and "no users" in err


def test_unknown_log_format_in_config(tmp_path, synth_log, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        f"[pipeline]\nlogs = {synth_log}\nout_dir = {tmp_path / 'o'}\n"
        "log_format = combind\njobs = 2\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(ini)]) == 2
    assert "unknown log format: 'combind'" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("seed = abc", "seed: invalid literal"),
    ("k_range = 3", "k_range: K range '3' is not LO:HI"),
])
def test_malformed_ini_value_names_its_key(tmp_path, capsys, setting, message):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[pipeline]\nlogs = a.log\nout_dir = {tmp_path / 'o'}\n{setting}\n",
                   encoding="utf-8")
    assert main(["run", "--config", str(ini)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_synth_rejects_negative_users(tmp_path, capsys):
    log = tmp_path / "synth.log"
    assert main(["synth", "--out", str(log), "--users", "-3"]) == 2
    assert "users_per_archetype must be >= 0" in capsys.readouterr().err
    assert not log.exists()


@pytest.mark.parametrize("item, message", [
    ({"name": "x", "rows": {"Browse Foo": {"Browse Search": 1.0}}}, "archetype 'x': unknown label 'Browse Foo'"),
    ({"name": "x", "rows": {"Browse Search": {"Browse Foo": 1.0}}}, "archetype 'x': unknown label 'Browse Foo'"),
    ({"name": "x", "session_length": ["geometric", 5]}, "archetype 'x': needs 'rows' or 'template'"),
    ({"name": "x", "template": ["Browse Search", "Nope"]}, "archetype 'x': unknown label 'Nope'"),
    ({"name": "x", "rows": {"Browse Search": {"Browse Search": 1.0}}, "start": "Nope"},
     "archetype 'x': unknown label 'Nope'"),
    *(({"name": "x", "rows": {"Browse Search": {"Browse Search": 1.0}, "Browse Help": row}},
       "archetype 'x': row 'Browse Help' needs finite weights >= 0 with a positive sum")
      for row in ({"Browse Search": 0}, {}, {"Browse Search": -1, "Login": 2},
                  {"Browse Search": float("nan")}, {"Browse Search": float("inf")})),
])
def test_synth_names_the_archetype_of_a_bad_json_item(tmp_path, capsys, item, message):
    archetypes = tmp_path / "archetypes.json"
    archetypes.write_text(json.dumps([item]), encoding="utf-8")
    log = tmp_path / "synth.log"
    assert main(["synth", "--out", str(log), "--archetypes", str(archetypes)]) == 2
    assert f"trailmine synth: error: {message}" in capsys.readouterr().err
    assert not log.exists()


@pytest.mark.parametrize("route", ["flag", "ini", "cluster"])
def test_restarts_below_one_is_a_data_error_before_any_stage(tmp_path, synth_log, capsys, route):
    out = tmp_path / "o"
    if route == "flag":
        argv = ["run", "--logs", str(synth_log), "--out-dir", str(out), "--restarts", "0"]
    elif route == "ini":
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[pipeline]\nlogs = {synth_log}\nout_dir = {out}\nrestarts = 0\n",
                       encoding="utf-8")
        argv = ["run", "--config", str(ini)]
    else:
        argv = ["cluster", "--features", str(tmp_path / "features.csv"), "--out-dir", str(out),
                "--restarts", "-2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "restarts must be >= 1" in err and "stage" not in err
    assert not out.exists()  # nothing ran, nothing was written


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize("flag, text, message", [
    ("--asset-patterns", "([\n", "asset pattern '([' does not compile"),
    ("--ua-blacklist", None, "No such file or directory"),
])
def test_bad_list_file_is_a_data_error_before_any_file(
    tmp_path, synth_log, capsys, command, flag, text, message,
):
    listed = tmp_path / "list.txt"
    if text is not None:
        listed.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--logs", str(synth_log), "--out-dir", str(out), flag, str(listed)]) == 2
    err = capsys.readouterr().err
    assert message in err and "stage" not in err
    assert not out.exists()  # nothing ran, nothing was written


def test_compare_skips_projection_of_one_resource(tmp_path, synth_log):
    out = tmp_path / "out"
    traces, assignments = out / "traces.jsonl", out / "assignments.csv"
    assert main(["ingest", "--logs", str(synth_log), "--out-dir", str(out)]) == 0
    assert main(["features", "--traces", str(traces), "--out", str(out / "features.csv")]) == 0
    assert main(["cluster", "--features", str(out / "features.csv"), "--out-dir", str(out),
                 "--k", "3", "--k-range", "3:3"]) == 0
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", "--traces", str(traces), "--assignments", str(assignments),
                 "--out-dir", str(cmp_dir), "--top-resources", "1"]) == 0
    assert (cmp_dir / "resource_profiles.csv").exists()
    assert not (cmp_dir / "resource_coordinates.csv").exists()

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
    """Whether a fresh process that runs ``trailmine run ... flags`` has imported ``module``.

    A module that ``import numpy`` loads by itself, as NumPy 1.x does ``numpy.random`` and
    ``numpy.ma``, is not the run's import.
    """
    argv = ["run", "--logs", str(synth_log), "--out-dir", "out", "--k", "7", "--k-range", "1:8", *flags]
    script = (
        f"import sys\nimport numpy\nbefore = {module!r} in sys.modules\nfrom trailmine.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print({module!r} in sys.modules and not before)\n"
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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_does_not_import_multiprocessing(tmp_path, synth_log, jobs):
    # it costs 9-16 ms (with socket, selectors and subprocess); helpers are plain os.fork children
    assert not _imported_by_run(tmp_path, synth_log, "multiprocessing", "--jobs", jobs)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_does_not_import_numpy_random(tmp_path, synth_log, jobs):
    # 19 modules, 11-16 ms, for about 25 draws per restart; the k-means++ seeding draws NumPy's stream itself
    assert not _imported_by_run(tmp_path, synth_log, "numpy.random", "--jobs", jobs)


# the modules outside the package that trailmine's modules import as the CLI loads; one
# more (or one that these start to pull in) is start-up time that every run and benchmark set-up pays
TOP_LEVEL_IMPORTS = (
    "numpy", "__future__", "argparse", "bisect", "calendar", "configparser", "contextlib",
    "dataclasses", "datetime", "gettext", "gzip", "io", "ipaddress", "itertools", "json", "operator",
    "os", "pathlib", "pickle", "re", "sys", "time", "typing", "urllib.parse", "warnings",
)
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(script, **env_changes):
    """The stdout of ``script`` run by a fresh interpreter, with each ``None`` variable removed."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"), **env_changes}
    env = {name: value for name, value in env.items() if value is not None}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_import_loads_no_module_beyond_its_list():
    loaded = set(_fresh(
        f"import {', '.join(TOP_LEVEL_IMPORTS)}\nbefore = set(sys.modules)\nimport trailmine.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    ).split())
    assert "trailmine.helpers" in loaded
    assert all(m == "trailmine" or m.startswith("trailmine.") for m in loaded), sorted(loaded)


@pytest.mark.parametrize("module, unloaded", [
    ("trailmine.cli", ["synth"]),  # the synth subcommand imports it itself
    ("trailmine.ingest", ["cluster", "compare", "markov", "pca", "sessions", "synth"]),
    ("trailmine.formats", ["logs", "actions", "helpers", "cluster", "synth"]),
])
def test_import_loads_none_of_the_modules_it_does_not_run(module, unloaded):
    loaded = set(_fresh(f"import sys, {module}\nprint(*sys.modules)\n").split())
    assert not loaded & {f"trailmine.{name}" for name in unloaded}


def test_package_import_loads_no_numpy():
    # the re-exports load on first use, so the CLI runs before NumPy starts its BLAS threads
    assert _fresh("import sys, trailmine\nprint('numpy' in sys.modules)\n").split() == ["False"]


def test_cli_pins_one_blas_thread_unless_set():
    script = "import os, trailmine.cli\nprint(*(os.environ[v] for v in %r))\n" % (_BLAS_VARIABLES,)
    assert _fresh(script, **dict.fromkeys(_BLAS_VARIABLES)).split() == ["1", "1", "1"]
    # a value the user set wins
    unset = dict.fromkeys(_BLAS_VARIABLES[1:])
    assert _fresh(script, OPENBLAS_NUM_THREADS="2", **unset).split() == ["2", "1", "1"]


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


def test_one_user_run_is_a_data_error_before_features(tmp_path, capsys):
    log = tmp_path / "one.log"
    log.write_text("".join(f'1.2.3.4 - - [14/Mar/2016:09:07:{s} -0700] "GET /ontologies/MCCV HTTP/1.1" '
                           f'200 512 "-" "Mozilla/5.0"\n' for s in (10, 20)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--logs", str(log), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage 'features' failed: PCA needs at least 2 users, got 1" in err
    assert (out / "traces.jsonl").exists() and not (out / "features.csv").exists()


def test_pca_of_one_row_is_a_data_error_naming_users(tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text("user,a,b\nu1,0.5,0.5\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["pca", "--features", str(features), "--out-dir", str(out)]) == 2
    assert "trailmine pca: error: PCA needs at least 2 users, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_pca_compiles_no_rules(tmp_path, monkeypatch):
    import trailmine.pipeline

    def compile_rules(*args):
        raise AssertionError("pca compiled the rules")

    for compiler in ("compile_ruleset", "default_ruleset"):
        monkeypatch.setattr(trailmine.pipeline, compiler, compile_rules)
    features = tmp_path / "features.csv"
    features.write_text("user,a,b\nu1,0.5,0.1\nu2,0.2,0.9\nu3,0.7,0.3\n", encoding="utf-8")
    assert main(["pca", "--features", str(features), "--out-dir", str(tmp_path / "o")]) == 0


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


def test_synth_rejects_negative_seed_by_name(tmp_path, capsys):
    log = tmp_path / "synth.log"
    assert main(["synth", "--out", str(log), "--seed", "-1"]) == 2
    assert "trailmine synth: error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not log.exists()


@pytest.mark.parametrize("command", ["cluster", "pca"])
def test_ragged_features_csv_is_a_data_error_before_any_file(tmp_path, capsys, command):
    # each row has one cell more than the header
    features = tmp_path / "features.csv"
    features.write_text("user,a,b\nu1,0.5,0.5,0.0\nu2,0.25,0.75,0.0\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--features", str(features), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"trailmine {command}: error: {features}, line 2: 4 cells, the header has 3" in err
    assert not out.exists()  # nothing ran, nothing was written


@pytest.mark.parametrize("command", ["cluster", "pca"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_features_csv_is_a_data_error_before_any_file(tmp_path, capsys, command, cell):
    features = tmp_path / "features.csv"
    features.write_text(f"user,a,b\nu1,0.5,0.5\nu2,0.25,{cell}\nu3,0.75,0.25\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--features", str(features), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    value = float(cell)
    assert f"trailmine {command}: error: {features}, line 3: b is {value}, not a finite number" in err
    assert not out.exists()  # nothing ran, nothing was written


@pytest.mark.parametrize("command", ["pca", "compare"])
def test_bad_assignments_csv_is_a_data_error_before_any_file(tmp_path, capsys, command):
    assignments = tmp_path / "assignments.csv"
    assignments.write_text("user,cluster\nu1,0\nu2\n", encoding="utf-8")
    source = "--features" if command == "pca" else "--traces"
    out = tmp_path / "o"
    argv = [command, source, str(tmp_path / "missing"), "--assignments", str(assignments),
            "--out-dir", str(out)]
    assert main(argv) == 2
    assert f"trailmine {command}: error: {assignments}, line 3: " in capsys.readouterr().err
    assert not out.exists()  # nothing ran, nothing was written


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


@pytest.mark.parametrize("command", ["run", "cluster"])
def test_negative_seed_is_a_data_error_before_any_file(tmp_path, synth_log, capsys, command):
    out = tmp_path / "o"
    source = ["--logs", str(synth_log)] if command == "run" else ["--features", str(tmp_path / "f.csv")]
    assert main([command, *source, "--out-dir", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -1" in err and "stage" not in err
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


def _bad_trace(key, value, message, **others):
    """A param: the second line of a traces file, user "b" with ``value`` for ``key``, and the error it gives.

    ``others`` are the JSON texts of the other lists where they are not the one-label defaults.
    """
    lists = {"sequence": "[0]", "ontologies": "[null]", "session_lengths": "[1]", **others, key: value}
    line = json.dumps({"user": "b", **{k: json.loads(v) for k, v in lists.items()}}, separators=(",", ":"))
    return pytest.param(line, message, id=f"{key}={value}" + "".join(f",{k}={v}" for k, v in others.items()))


_HUGE = "100000000000000000000000"  # past int64
_NOT_RUNS = "'session_lengths' are not the runs between the BREAKs of 'sequence'"


@pytest.mark.parametrize("command", ["features", "cluster", "compare"])
@pytest.mark.parametrize("line, message", [
    pytest.param("[0]", "not a JSON object", id="not-an-object"),
    *(_bad_trace("sequence", value, "'sequence' is not a list of integers")
      for value in ("5", "null", "[1.5]", '["7"]', "[true]")),
    *(_bad_trace("ontologies", value, "'ontologies' is not a list of strings and nulls")
      for value in ("null", "[3]", "[false]")),
    *(_bad_trace("session_lengths", value, "'session_lengths' is not a list of integers")
      for value in ("1", "[false]", "[1.0]")),
    _bad_trace("sequence", "[99]", "label 99 is not one of the rules' [0, 34)"),
    _bad_trace("sequence", "[-1]", "label -1 is not one of the rules' [0, 34)"),
    _bad_trace("sequence", f"[{_HUGE}]", f"label {_HUGE} is not one of the rules' [0, 34)"),
    _bad_trace("ontologies", "[]", "'ontologies' and 'sequence' differ in length"),
    _bad_trace("ontologies", "[null,null]", "'ontologies' and 'sequence' differ in length"),
    _bad_trace("session_lengths", "[7,-3]", _NOT_RUNS, sequence="[0,1]", ontologies="[null,null]"),
    _bad_trace("session_lengths", f"[{_HUGE}]", _NOT_RUNS),
    _bad_trace("session_lengths", "[0]", _NOT_RUNS),
    _bad_trace("session_lengths", "[]", _NOT_RUNS),
    # the BREAK label is 33: runs [1, 2] in another order, one length for two runs, a doubled BREAK,
    # a trailing BREAK and an empty trace
    _bad_trace("session_lengths", "[2,1]", _NOT_RUNS, sequence="[0,33,1,2]", ontologies="[null,null,null,null]"),
    _bad_trace("session_lengths", "[3]", _NOT_RUNS, sequence="[0,33,1]", ontologies="[null,null,null]"),
    _bad_trace("session_lengths", "[1,1]", _NOT_RUNS, sequence="[0,33,33,1]", ontologies="[null,null,null,null]"),
    _bad_trace("session_lengths", "[1]", _NOT_RUNS, sequence="[0,33]", ontologies="[null,null]"),
    _bad_trace("session_lengths", "[]", _NOT_RUNS, sequence="[]", ontologies="[]"),
])
def test_bad_traces_jsonl_is_a_data_error_before_any_file(tmp_path, capsys, command, line, message):
    traces = tmp_path / "traces.jsonl"
    traces.write_text('{"user":"a","sequence":[0],"ontologies":[null],"session_lengths":[1]}\n' + line + "\n",
                      encoding="utf-8")
    features, assignments = tmp_path / "features.csv", tmp_path / "assignments.csv"
    features.write_text("user,a,b\nu1,0.5,0.5\nu2,0.25,0.75\n", encoding="utf-8")
    assignments.write_text("user,cluster\na,0\n", encoding="utf-8")
    out = tmp_path / "o"
    argv = {
        "features": ["--traces", str(traces), "--out", str(out / "features.csv")],
        "cluster": ["--features", str(features), "--traces", str(traces), "--k", "1",
                    "--k-range", "1:1", "--out-dir", str(out)],
        "compare": ["--traces", str(traces), "--assignments", str(assignments), "--out-dir", str(out)],
    }[command]
    assert main([command, *argv]) == 2
    assert f"trailmine {command}: error: {traces}, line 2: {message}" in capsys.readouterr().err
    assert not out.exists()  # nothing ran, nothing was written


_TRACE_LINE = '{"user":"%s","sequence":[0],"ontologies":[null],"session_lengths":[1]}\n'


@pytest.mark.parametrize("command, read, lines, user", [
    ("features", "traces", "1 and 3", "a"),
    ("cluster", "features", "2 and 5", "u1"),
    ("pca", "assignments", "2 and 3", "u1"),
])
def test_a_user_named_twice_is_a_data_error_before_any_file(tmp_path, capsys, command, read, lines, user):
    files = {name: tmp_path / name for name in ("traces", "features", "assignments")}
    files["traces"].write_text("".join(_TRACE_LINE % u for u in "aba"), encoding="utf-8")
    files["features"].write_text("user,a,b\nu1,0.5,0.1\nu2,0.2,0.9\nu3,0.7,0.3\nu1,0.5,0.1\n", encoding="utf-8")
    files["assignments"].write_text("user,cluster\nu1,0\nu1,1\n", encoding="utf-8")
    out = tmp_path / "o"  # the features file, or the out dir
    argv = {
        "features": ["--traces", str(files["traces"]), "--out", str(out)],
        "cluster": ["--features", str(files["features"]), "--k", "1", "--k-range", "1:1", "--out-dir", str(out)],
        "pca": ["--features", str(files["features"]), "--assignments", str(files["assignments"]),
                "--out-dir", str(out)],
    }[command]
    assert main([command, *argv]) == 2
    message = f"trailmine {command}: error: {files[read]}, lines {lines}: user {user!r} appears twice"
    assert message in capsys.readouterr().err
    assert not out.exists()  # nothing ran, nothing was written


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory, synth_log):
    """(traces.jsonl, features.csv) of the synthetic log, through the per-stage subcommands."""
    tmp = tmp_path_factory.mktemp("stage_files")
    assert main(["ingest", "--logs", str(synth_log), "--out-dir", str(tmp)]) == 0
    assert main(["features", "--traces", str(tmp / "traces.jsonl"), "--out", str(tmp / "features.csv")]) == 0
    return tmp / "traces.jsonl", tmp / "features.csv"


@pytest.mark.parametrize("command", ["pca", "compare"])
def test_negative_cluster_id_is_a_data_error_before_any_file(tmp_path, capsys, stage_files, command):
    traces, features = stage_files
    users = [line.split(",", 1)[0] for line in features.read_text(encoding="utf-8").splitlines()[1:]]
    assignments = tmp_path / "assignments.csv"
    assignments.write_text("user,cluster\n" + "".join(f"{user},{-3 if i == 1 else i % 2}\n"
                                                     for i, user in enumerate(users)), encoding="utf-8")
    source = ["--features", str(features)] if command == "pca" else ["--traces", str(traces)]
    out = tmp_path / "o"
    assert main([command, *source, "--assignments", str(assignments), "--out-dir", str(out)]) == 2
    assert f"trailmine {command}: error: {assignments}, line 3: cluster id -3 is negative" in capsys.readouterr().err
    assert not out.exists()


def test_compare_names_a_cluster_id_no_user_has(tmp_path, capsys, stage_files):
    traces, features = stage_files
    users = [line.split(",", 1)[0] for line in features.read_text(encoding="utf-8").splitlines()[1:]]
    assignments = tmp_path / "assignments.csv"
    # ids 0, 1 and 5, as if cluster 2 were renumbered 5: no user has 2, 3 or 4
    assignments.write_text("user,cluster\n" + "".join(f"{user},{(0, 1, 5)[i % 3]}\n" for i, user in enumerate(users)),
                           encoding="utf-8")
    out = tmp_path / "o"
    argv = ["compare", "--traces", str(traces), "--assignments", str(assignments), "--out-dir", str(out)]
    assert main(argv) == 2
    assert f"trailmine compare: error: {assignments}: no user has cluster id 2 of 0..5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change", ["drop a trace", "rename a label"])
def test_cluster_traces_that_disagree_are_a_data_error_before_any_file(tmp_path, capsys, stage_files, change):
    traces, features = stage_files
    if change == "drop a trace":
        lines = traces.read_text(encoding="utf-8").splitlines(keepends=True)
        traces = tmp_path / "traces.jsonl"
        traces.write_text("".join(lines[:3] + lines[4:]), encoding="utf-8")
        message = f"{traces} has no trace of user {json.loads(lines[3])['user']!r} of {features}"
    else:
        header, *rows = features.read_text(encoding="utf-8").splitlines(keepends=True)
        features = tmp_path / "features.csv"
        features.write_text(header.replace(",", ",Nope ", 1) + "".join(rows), encoding="utf-8")
        message = f"{features}: the header's labels are not the 34 labels of the rules"
    out = tmp_path / "o"
    argv = ["cluster", "--features", str(features), "--traces", str(traces), "--k", "2",
            "--k-range", "1:3", "--out-dir", str(out)]
    assert main(argv) == 2
    assert f"trailmine cluster: error: {message}" in capsys.readouterr().err
    assert not out.exists()  # the elbow wrote nothing


def test_compare_names_a_user_with_no_cluster(tmp_path, capsys, stage_files):
    traces, features = stage_files
    users = [line.split(",", 1)[0] for line in features.read_text(encoding="utf-8").splitlines()[1:]]
    assignments = tmp_path / "assignments.csv"
    assignments.write_text("user,cluster\n" + "".join(f"{user},{i % 2}\n" for i, user in enumerate(users[:4])),
                           encoding="utf-8")
    out = tmp_path / "o"
    argv = ["compare", "--traces", str(traces), "--assignments", str(assignments), "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    message = "trailmine compare: error: {} has no cluster of user {!r} of {}"
    assert any(message.format(assignments, user, traces) in err for user in users[4:])
    assert not out.exists()  # nothing ran, nothing was written


def _outcome(call, capsys):
    """(exit code, stdout, stderr) of ``call()``, which parses or exits."""
    try:
        call()
        code = None
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    *([name, "--help"] for name in cli._SUBCOMMANDS),
    ["--help"],
    [],
    ["nosuch"],
    ["cluster", "--no-such-flag"],
    ["features"],
    # left over after the subcommand's parse: the top-level parser's usage line reports them
    ["cluster", "--features", "f.csv", "--out-dir", "o", "--no-such-flag"],
    ["pca", "--features", "f.csv", "--out-dir", "o", "extra"],
    ["ingest", "--logs", "a.log", "--out-dir", "o", "--log-format", "nosuch"],
])
def test_lazy_parser_texts_match_the_full_parser(argv, capsys):
    """``main`` builds one subcommand's parser, yet prints what the parser of all seven prints."""
    want = _outcome(lambda: cli._build_parser().parse_args(argv), capsys)
    assert want[0] in (0, 1)
    assert _outcome(lambda: main(argv), capsys) == want


def test_main_builds_only_the_named_subcommand(monkeypatch, capsys):
    built = []
    build = cli._build_parser

    def spied(only=None):
        parser = build(only)
        built.append(sorted(next(a for a in parser._actions
                                 if isinstance(a, argparse._SubParsersAction)).choices))
        return parser

    monkeypatch.setattr(cli, "_build_parser", spied)
    for argv in (["pca", "--help"], ["nosuch"], ["--help"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == [["pca"], sorted(cli._SUBCOMMANDS), sorted(cli._SUBCOMMANDS)]


@pytest.mark.parametrize("argv, code", [(["pca", "--help"], 0), (["nosuch"], 1), (["--help"], 0)])
def test_main_reads_sys_argv_without_argv(argv, code, monkeypatch, capsys):
    # the console script calls main() with no arguments
    want = _outcome(lambda: cli._build_parser().parse_args(argv), capsys)
    monkeypatch.setattr(sys, "argv", ["trailmine", *argv])
    assert _outcome(main, capsys) == want
    assert want[0] == code

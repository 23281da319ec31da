import json

import numpy as np
import pytest

from trailmine.cluster import LLOYD_MAX_ITER, EmptyMatrix, KTooLarge
from trailmine.markov import FeatureMatrix, build_feature_matrix
from trailmine.pipeline import (
    EventBatch,
    PipelineConfig,
    PipelineStageError,
    RunRecord,
    build_traces,
    ingest_paths,
    read_assignments_csv,
    read_feature_csv,
    read_traces_jsonl,
    run_pipeline,
    stage_elbow,
    write_feature_csv,
    write_traces_jsonl,
)
from trailmine.sessions import TraceSet
from trailmine.synth import default_archetypes, generate_synthetic_log


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    log = tmp / "synth.log"
    _, truth = generate_synthetic_log(
        default_archetypes(), 25, seed=10, bot_fraction=0.2, path=log
    )
    # append some noise lines the parser must skip
    with open(log, "a", encoding="utf-8") as fh:
        fh.write("not a log line\n<<< more garbage >>>\n")
    return log, truth


def test_ingest_funnel_consistency(corpus, ruleset):
    log, truth = corpus
    batch, stats = ingest_paths([log], ruleset=ruleset)
    assert stats.malformed == 2
    assert stats.parsed == stats.lines - stats.malformed
    assert stats.filtered <= stats.parsed
    assert stats.events <= stats.filtered
    assert stats.dropped_useragent == truth.bot_lines
    assert stats.events == sum(u.action_count for u in truth.users.values())


def test_parallel_ingest_matches_serial(corpus, ruleset):
    log, _ = corpus
    b1, s1 = ingest_paths([log], ruleset=ruleset, jobs=1)
    b2, s2 = ingest_paths([log], ruleset=ruleset, jobs=2)
    assert s1 == s2
    break_id = ruleset.vocabulary.break_id
    (t1, u1), (t2, u2) = build_traces(b1, break_id), build_traces(b2, break_id)
    assert list(t1.rows()) == list(t2.rows()) and u1 == u2


def test_traces_recover_ground_truth(corpus, ruleset):
    log, truth = corpus
    batch, _ = ingest_paths([log], ruleset=ruleset)
    traces, _ = build_traces(batch, ruleset.vocabulary.break_id)
    by_user = {t["user"]: t for t in traces.rows()}
    assert set(by_user) == set(truth.users)
    for ip, ut in truth.users.items():
        assert by_user[ip]["sequence"] == ut.sequence


def test_parallel_ingest_uses_custom_ruleset(tmp_path):
    from trailmine.actions import compile_rules

    rs = compile_rules(["GET ^/search(?:/.*)?$ => Login"])
    assert rs.vocabulary.id_of("Login") == 0
    log = tmp_path / "tiny.log"
    line = '9.9.9.9 - - [14/Mar/2016:09:07:32 -0700] "GET /search HTTP/1.1" 200 1 "-" "ua"\n'
    log.write_text(line * 64, encoding="utf-8")
    batch, stats = ingest_paths([log], ruleset=rs, jobs=2)
    assert stats.events == 64
    assert set(batch.labels.tolist()) == {0}  # custom vocabulary, not the default one


def test_mixed_plain_and_gzip_inputs(tmp_path, corpus, ruleset):
    import gzip

    log, _ = corpus
    gz = tmp_path / "copy.log.gz"
    with open(log, "rb") as src, gzip.open(gz, "wb") as dst:
        dst.write(src.read())
    b_one, s_one = ingest_paths([log], ruleset=ruleset)
    b_both, s_both = ingest_paths([log, gz], ruleset=ruleset, jobs=2)
    assert s_both.lines == 2 * s_one.lines
    assert s_both.events == 2 * s_one.events


def test_line_rule_is_the_same_on_every_route(tmp_path, ruleset):
    """Separators other than LF, invalid UTF-8, CRLF endings and a non-ASCII
    method give one funnel and one set of traces on every ingest route."""
    import gzip

    lines, truth = generate_synthetic_log(default_archetypes(), 3, seed=21, bot_fraction=0.2)
    rng = __import__("numpy").random.default_rng(21)
    odd = ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]
    odd = [c.encode("utf-8") for c in odd] + [b"\xe2\x82", b"\xff"]
    chunks = []
    for i, line in enumerate(lines):
        raw = line.encode("utf-8")
        if i % 2:  # the user agent is the last field: keep its closing quote last
            raw = raw[:-1] + odd[int(rng.integers(len(odd)))] + b'"'
        chunks.append(raw + (b"\r\n" if rng.random() < 0.3 else b"\n"))
        if i == len(lines) // 2:  # a mappable request but for its method: malformed
            chunks.append('9.9.9.9 - - [14/Mar/2016:09:07:32 -0700] '
                          '"G\u00c9T /ontologies/MCCV HTTP/1.1" 200 1 "-" "ua"\n'.encode("utf-8"))
    data = b"".join(chunks)
    plain, gz = tmp_path / "odd.log", tmp_path / "odd.log.gz"
    plain.write_bytes(data)
    with gzip.open(gz, "wb") as fh:
        fh.write(data)
    results = []
    routes = ((plain, 1), (plain, 2), (gz, 1), (gz, 2))
    for n, (path, jobs) in enumerate(routes):
        batch, stats = ingest_paths([path], ruleset=ruleset, jobs=jobs)
        traces, _ = build_traces(batch, ruleset.vocabulary.break_id)
        out = tmp_path / f"traces_{n}.jsonl"
        write_traces_jsonl(traces, out)
        results.append((stats, out.read_bytes()))
    stats, traces_bytes = results[0]
    assert (stats.lines, stats.malformed, stats.events) == (len(lines) + 1, 1, truth.human_lines)
    for other_stats, other_bytes in results[1:]:
        assert other_stats == stats
        assert other_bytes == traces_bytes


def test_traces_jsonl_roundtrip(tmp_path, corpus, ruleset):
    log, _ = corpus
    batch, _ = ingest_paths([log], ruleset=ruleset)
    traces, _ = build_traces(batch, ruleset.vocabulary.break_id)
    path = tmp_path / "traces.jsonl"
    write_traces_jsonl(traces, path)
    loaded = read_traces_jsonl(path)
    assert len(loaded) == len(traces)
    for a, b in zip(loaded.rows(), traces.rows()):
        assert (a["user"], a["sequence"], a["ontologies"], a["session_lengths"]) == (
            b["user"], b["sequence"], b["ontologies"], b["session_lengths"],
        )


_TRACE = '{"user":"%s","sequence":[0,1],"ontologies":[null,"GO"],"session_lengths":[2]}'
_A, _B, _C, _D = (_TRACE % user for user in "abcd")


@pytest.mark.parametrize("text, line, problem", [
    (f"{_A}\n[1, 2]\n{_C}\n", 2, "not a JSON object"),
    (f'{_A}\n{{"user":"b","sequence":[],"ontologies":[]}}\n', 2, "no 'session_lengths' key"),
    (f"{_A}\n\n{_C}\n", 2, "Expecting value at column 1"),
    (f"{_A}\n{_B}\n\n", 3, "Expecting value at column 1"),
    (f"{_A}\n{_B},{_C}\n", 2, "Extra data at column"),  # one value more than lines when joined
    (f"{_A}\n{_B} {_C}\n", 2, "Extra data at column"),
    (f"{_A}\n{_B}\n{_C[:30]}", 3, "at column"),  # cut short, no last newline
    # one record split over lines 1 and 2 and two joined on line 3: as many values as lines
    (f'{_A[:-1]},"x":[1\n2]}}\n{_C},{_D}\n', 1, "Expecting ',' delimiter at column"),
])
def test_bad_traces_jsonl_line_is_named(tmp_path, text, line, problem):
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_traces_jsonl(path)
    assert str(exc.value).startswith(f"{path}, line {line}: ")
    assert problem in str(exc.value)


@pytest.mark.parametrize("text, users", [
    ("", []),
    (f"{_A}\n{_B}", ["a", "b"]),  # the last line lacks its newline
    (f" {_A} \n\t{_B}\r\n", ["a", "b"]),  # whitespace around a value, as json.loads allows
])
def test_traces_jsonl_reads_what_each_line_decodes_to(tmp_path, text, users):
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))
    traces = read_traces_jsonl(path)
    assert traces.users == users
    assert [row["ontologies"] for row in traces.rows()] == [[None, "GO"]] * len(users)


def test_feature_csv_roundtrip(tmp_path, corpus, ruleset):
    log, _ = corpus
    batch, _ = ingest_paths([log], ruleset=ruleset)
    traces, _ = build_traces(batch, ruleset.vocabulary.break_id)
    fm = build_feature_matrix(
        TraceSet.from_rows(list(traces.rows())[:20]), ruleset.vocabulary.n,
        label_names=ruleset.vocabulary.names(),
    )
    path = tmp_path / "features.csv"
    write_feature_csv(fm, path)
    loaded = read_feature_csv(path)
    assert loaded.user_ids == fm.user_ids
    assert loaded.label_names == fm.label_names
    assert (loaded.X == fm.X).all()  # repr round-trips floats exactly


@pytest.mark.parametrize("lines, message", [
    (["u1,0.5,0.5,0.0", "u2,0.5,0.5,0.0"], "line 2: 4 cells, the header has 3"),
    (["u1,0.5,0.5", "u2,0.5,0.5,0.0"], "line 3: 4 cells, the header has 3"),
    (["u1,0.5,0.5", "u2,0.5"], "line 3: 2 cells, the header has 3"),
    (["u1,0.5,x"], "line 2: could not convert string to float: 'x'"),
])
def test_feature_csv_names_the_file_and_line_of_a_bad_row(tmp_path, lines, message):
    path = tmp_path / "features.csv"
    path.write_text("\n".join(["user,a,b", *lines]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_feature_csv(path)
    assert str(info.value) == f"{path}, {message}"


@pytest.mark.parametrize("lines, message", [
    (["u1,0", "u2"], "line 3: not enough values to unpack"),
    (["u1,zero"], "line 2: invalid literal for int()"),
])
def test_assignments_csv_names_the_file_and_line_of_a_bad_row(tmp_path, lines, message):
    path = tmp_path / "assignments.csv"
    path.write_text("\n".join(["user,cluster", *lines]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_assignments_csv(path)
    assert str(info.value).startswith(f"{path}, {message}")


def test_rerun_is_byte_identical(tmp_path, corpus):
    log, _ = corpus
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = PipelineConfig(logs=[str(log)], out_dir=str(out), k=7, k_range=(1, 8), seed=1)
        run_pipeline(cfg)
        outputs.append(out)
    a_files = sorted(p.name for p in outputs[0].iterdir())
    b_files = sorted(p.name for p in outputs[1].iterdir())
    assert a_files == b_files
    for name in a_files:
        if name.startswith("manifest"):
            continue  # carries wall-clock timings
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


def test_empty_log_fails_at_ingest(tmp_path):
    log = tmp_path / "empty.log"
    log.write_text("", encoding="utf-8")
    cfg = PipelineConfig(logs=[str(log)], out_dir=str(tmp_path / "out"), k=2)
    with pytest.raises(PipelineStageError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "ingest"
    assert (tmp_path / "out" / "manifest.partial.json").exists()


_LINE = '{ip} - - [14/Mar/2016:09:07:{s:02d} -0700] "GET /ontologies/MCCV HTTP/1.1" 200 512 "-" "{ua}"'


def test_all_bot_corpus_fails_at_elbow_without_users(tmp_path):
    log = tmp_path / "bots.log"
    log.write_text(_LINE.format(ip="1.2.3.4", s=0, ua="Googlebot/2.1") + "\n", encoding="utf-8")
    cfg = PipelineConfig(logs=[str(log)], out_dir=str(tmp_path / "out"))
    with pytest.raises(PipelineStageError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "elbow"
    assert isinstance(exc.value.cause, EmptyMatrix) and "no users" in str(exc.value)
    assert (tmp_path / "out" / "traces.jsonl").read_text() == ""


def test_k_range_above_the_user_count_names_both(tmp_path):
    log = tmp_path / "three.log"
    log.write_text("".join(_LINE.format(ip=f"1.2.3.{u}", s=u, ua="Mozilla/5.0") + "\n" for u in range(3)),
                   encoding="utf-8")
    cfg = PipelineConfig(logs=[str(log)], out_dir=str(tmp_path / "out"), k_range=(5, 25))
    with pytest.raises(PipelineStageError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "elbow" and isinstance(exc.value.cause, KTooLarge)
    assert "K=5" in str(exc.value) and "3 users" in str(exc.value)


def test_one_user_corpus_fails_before_features(tmp_path):
    log = tmp_path / "one.log"
    log.write_text("".join(_LINE.format(ip="1.2.3.4", s=s, ua="Mozilla/5.0") + "\n" for s in (10, 20)),
                   encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(PipelineStageError) as exc:
        run_pipeline(PipelineConfig(logs=[str(log)], out_dir=str(out)))
    assert exc.value.stage == "features"
    assert str(exc.value.cause) == "PCA needs at least 2 users, got 1"
    assert (out / "traces.jsonl").exists() and not (out / "features.csv").exists()
    assert json.loads((out / "manifest.partial.json").read_text())["stages"]["sessionize"]["users"] == 1


def test_elbow_entry_names_the_range_used_and_its_processes(tmp_path):
    features = FeatureMatrix([f"u{i}" for i in range(6)], np.random.default_rng(8).normal(size=(6, 3)),
                             "stationary")
    for jobs, processes in ((1, 1), (2, 2), (5, 3)):  # at most one process per restart
        record = RunRecord(PipelineConfig(out_dir=str(tmp_path), k_range=(2, 25), restarts=3, jobs=jobs))
        stage_elbow(record, features)
        entry = record.stages["elbow"]
        assert entry["k_range_used"] == [2, 6]  # cut at the 6 users
        assert entry["processes"] == processes
        assert [fit["K"] for fit in entry["fits"]] == [2, 3, 4, 5, 6]


def test_failure_past_ingest_keeps_a_partial_manifest(tmp_path, corpus, monkeypatch):
    import trailmine.pipeline

    def fail(*inputs):
        raise RuntimeError("pca failed")

    monkeypatch.setattr(trailmine.pipeline, "stage_pca", fail)
    log, _ = corpus
    out = tmp_path / "out"
    cfg = PipelineConfig(logs=[str(log)], out_dir=str(out), k=3, k_range=(1, 3))
    with pytest.raises(PipelineStageError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "pca"
    partial = json.loads((out / "manifest.partial.json").read_text())
    assert list(partial["stages"]) == ["ingest", "sessionize", "features", "elbow", "cluster"]
    assert all(list(entry)[0] == "seconds" for entry in partial["stages"].values())
    # the partial manifest lists every file written before it, and only those
    assert sorted(partial["outputs"] + ["manifest.partial.json"]) == sorted(p.name for p in out.iterdir())


def test_manifest_counts(tmp_path, corpus):
    log, truth = corpus
    out = tmp_path / "out"
    cfg = PipelineConfig(logs=[str(log)], out_dir=str(out), k=7, k_range=(1, 8), seed=0)
    manifest = run_pipeline(cfg)
    ing = manifest["stages"]["ingest"]
    assert ing["events"] <= ing["filtered"] <= ing["parsed"] <= ing["lines"]
    written = json.loads((out / "manifest.json").read_text())
    assert written["stages"]["ingest"]["lines"] == ing["lines"]
    # outputs: in the order written, each once, and exactly the files in the out dir
    outputs = manifest["outputs"]
    diff = next(name for name in outputs if name.startswith("transition_diff_"))
    assert outputs == [
        "traces.jsonl", "usage_stats.txt", "hist_inter_request_seconds.csv",
        "hist_requests_per_user.csv", "hist_ontologies_per_user.csv",
        "hist_requests_per_session.csv", "features.csv", "elbow.csv",
        "assignments.csv", "centroids.csv", "cluster_profiles.txt",
        *(f"cluster_{k}_actions.csv" for k in range(7)),
        "pca_loadings.csv", "pca_coordinates.csv", "pca_report.txt",
        "resource_profiles.csv", diff, "resource_coordinates.csv", "resource_pca_report.txt",
        "manifest.json",
    ]
    assert sorted(outputs) == sorted(p.name for p in out.iterdir())
    assert written["outputs"] == outputs[:-1]
    assert (out / "traces.jsonl").exists() and (out / "features.csv").exists()
    feats = written["stages"]["features"]
    assert feats["lstsq_fallbacks"] == 0
    assert 0.0 <= feats["max_residual"] <= 1e-10
    elbow, cluster = written["stages"]["elbow"], written["stages"]["cluster"]
    assert [fit["K"] for fit in elbow["fits"]] == list(range(1, 9))
    assert elbow["k_range_used"] == [1, 8] and elbow["processes"] == 1
    for diag in elbow["fits"] + [cluster]:
        assert 1 <= diag["n_iter"] <= LLOYD_MAX_ITER
        assert diag["reseeded"] >= 0
        assert diag["inertia_spread"] >= 0.0
    assert elbow["fits"][0]["inertia_spread"] == 0.0 < elbow["fits"][6]["inertia_spread"]
    # the cluster stage takes the elbow's K=7 fit, diagnostics and all
    assert {**elbow["fits"][6], "K": 7} == {key: cluster[key] for key in elbow["fits"][6]}


def test_run_pipeline_rejects_restarts_before_any_stage(tmp_path, corpus):
    """Settings that would fail a stage partway through are named before any stage runs."""
    log, _ = corpus
    ini = tmp_path / "pipeline.ini"
    out = tmp_path / "out"
    for setting, message in (
        ("restarts = 0", "restarts must be >= 1"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("k_range = 5:3", "k_range must be LO:HI"),
        ("k_range = 0:4", "k_range must be LO:HI"),
        ("k = 0", "k must be >= 1"),
        ("pca_components = 0", "pca_components must be >= 1"),
        ("log_format = combind", "unknown log format: 'combind'"),
        ("feature_kind = bogus", "unknown feature kind 'bogus'"),
        ("alpha = -1", "alpha must be >= 0"),
        ("alpha = nan", "alpha must be >= 0"),
        ("gap_minutes = 0", "gap_minutes must be > 0"),
        ("gap_minutes = -5", "gap_minutes must be > 0"),
        ("threshold_pct = 150", r"threshold_pct must lie in \[0, 100\]"),
        ("threshold_pct = -1", r"threshold_pct must lie in \[0, 100\]"),
        ("threshold_pct = nan", r"threshold_pct must lie in \[0, 100\]"),
        ("top_actions = 0", "top_actions must be >= 1"),
        ("top_resources = 0", "top_resources must be >= 1"),
        ("top_resources = -1", "top_resources must be >= 1"),
        ("jobs = 0", "jobs must be >= 1"),
        ("jobs = -3", "jobs must be >= 1"),
    ):
        ini.write_text(f"[pipeline]\nlogs = {log}\nout_dir = {out}\n{setting}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            run_pipeline(PipelineConfig.from_ini(ini))
        assert not out.exists(), setting


def test_run_pipeline_rejects_bad_list_files_before_any_file(tmp_path, corpus):
    """The run record compiles the filter, so a bad or missing list file fails before the out dir is made."""
    log, _ = corpus
    assets, ips = tmp_path / "assets.txt", tmp_path / "ips.txt"
    assets.write_text("\\.css$\n([\n", encoding="utf-8")
    ips.write_text("10.0.0.0/99\n", encoding="utf-8")
    out = tmp_path / "out"
    for setting, error, message in (
        ({"asset_patterns": str(assets)}, ValueError, r"asset pattern '\(\[' does not compile"),
        ({"ip_blacklist": str(ips)}, ValueError, "bad IP blacklist entry '10.0.0.0/99'"),
        ({"ua_blacklist": str(tmp_path / "missing.txt")}, FileNotFoundError, "missing.txt"),
    ):
        with pytest.raises(error, match=message):
            run_pipeline(PipelineConfig(logs=[str(log)], out_dir=str(out), **setting))
        assert not out.exists(), setting


def test_record_without_logs_compiles_no_filter(tmp_path):
    """Only ingest reads the filter, so a config without logs does not read the list files."""
    missing = str(tmp_path / "missing.txt")
    record = RunRecord(PipelineConfig(ua_blacklist=missing, out_dir=str(tmp_path / "out")))
    assert record.filt is None
    with pytest.raises(FileNotFoundError, match="missing.txt"):
        RunRecord(PipelineConfig(logs=["a.log"], ua_blacklist=missing))



def test_config_ini_roundtrip(tmp_path):
    ini = tmp_path / "pipeline.ini"
    ini.write_text(
        "[pipeline]\n"
        "logs = a.log b.log\n"
        "out_dir = artifacts\n"
        "gap_minutes = 45\n"
        "alpha = 0.2\n"
        "feature_kind = pageviews\n"
        "k = 5\n"
        "k_range = 2:12\n"
        "seed = 3\n"
        "jobs = 2\n",
        encoding="utf-8",
    )
    cfg = PipelineConfig.from_ini(ini)
    assert cfg.logs == ["a.log", "b.log"]
    assert cfg.out_dir == "artifacts"
    assert cfg.gap_minutes == 45.0
    assert cfg.alpha == 0.2
    assert cfg.feature_kind == "pageviews"
    assert cfg.k == 5 and cfg.k_range == (2, 12)
    assert cfg.seed == 3 and cfg.jobs == 2


@pytest.mark.parametrize("key", ["tol", "max_iter", "alpah"])
def test_config_ini_rejects_unknown_keys(tmp_path, key):
    ini = tmp_path / "pipeline.ini"
    ini.write_text(f"[pipeline]\nlogs = a.log\n{key} = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_ini(ini)


def test_event_batch_grouping_stable():
    np = __import__("numpy")
    batch = EventBatch(
        user_pool=["b", "a"],
        user_codes=np.array([0, 1, 0, 1]),
        timestamps=np.array([5, 1, 5, 1]),
        labels=np.array([0, 1, 2, 3]),
        onto_pool=["Z"],
        onto_codes=np.array([0, -1, -1, 0]),
    )
    a, b = build_traces(batch, break_label=9)[0].rows()  # sorted by user
    assert (a["user"], a["sequence"]) == ("a", [1, 3])  # ties keep input order
    assert (b["user"], b["sequence"], b["ontologies"]) == ("b", [0, 2], ["Z", None])
    assert [batch.user_pool[c] for c in batch.user_codes] == ["b", "a", "b", "a"]  # not sorted in place


def test_event_batch_merge_remaps_pools():
    np = __import__("numpy")
    p1 = EventBatch(["x"], np.array([0]), np.array([1]), np.array([2]), ["A"], np.array([0]))
    p2 = EventBatch(["y", "x"], np.array([0, 1]), np.array([2, 3]), np.array([4, 5]),
                    ["B", "A"], np.array([0, 1]))
    merged = EventBatch.merge([p1, p2])
    assert [merged.user_pool[c] for c in merged.user_codes] == ["x", "y", "x"]
    assert [merged.onto_pool[c] for c in merged.onto_codes] == ["A", "B", "A"]
    assert merged.timestamps.tolist() == [1, 2, 3]
    # a part with no attributed event and an empty onto_pool, then an empty part
    p3 = EventBatch(["z"], np.array([0, 0]), np.array([4, 5]), np.array([6, 7]), [], np.array([-1, -1]))
    empty = np.empty(0, dtype=np.int64)
    p4 = EventBatch([], empty, empty, empty, [], empty)
    merged = EventBatch.merge([p1, p3, p4, p2])
    assert [merged.user_pool[c] for c in merged.user_codes] == ["x", "z", "z", "y", "x"]
    assert [merged.onto_pool[c] if c >= 0 else None for c in merged.onto_codes] == ["A", None, None, "B", "A"]
    assert merged.labels.tolist() == [2, 6, 7, 4, 5]
    assert merged.timestamps.tolist() == [1, 4, 5, 2, 3]
    # no parts: an empty batch of empty int64 columns
    none = EventBatch.merge([])
    assert len(none) == 0 and none.user_pool == [] and none.onto_pool == []
    for column in (none.user_codes, none.timestamps, none.labels, none.onto_codes):
        assert column.shape == (0,) and column.dtype == np.int64

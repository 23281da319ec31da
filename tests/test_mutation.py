"""Seeded mutation probe: every ``ingest_paths`` route against the per-line route.

Lines of several synthetic corpora are mutated with the stdlib ``random``:
quotes, backslashes, brackets, ``%``, non-ASCII, CR, NUL, tab and form
feed inserted, characters deleted and stretches repeated. Timestamps are
mutated where the chunked ingest decides a date once per run of rows with
equal date and offset columns: fields of 25 and 27 characters beside valid
lines of the same date, ``31/Feb``, and a day or offset that changes
inside a run. ``ingest_paths`` at ``jobs`` 1-3, plain and gzip, must give
the funnel and the events that ``parse_log_line``, ``drop_reason`` and
``RuleSet.match`` give line by line.

A second probe mutates one list of one line of a clean ``traces.jsonl``
(never the user): an item becomes an odd value, an item is dropped,
inserted or swapped, the session lengths are swapped with another
line's, or the line is cut short. ``features``, ``cluster --traces`` and
``compare`` must exit 0 on a line that a plain reading of the file's
rules calls valid, and exit 2 naming the file and line otherwise.
"""

import gzip
import json
import random
import re
from calendar import timegm

import pytest

from trailmine.cli import main
from trailmine.ingest import IngestStats, ingest_paths
from trailmine.logs import MalformedLine, default_filter_config, open_log, parse_log_line
from trailmine.synth import default_archetypes, generate_synthetic_log

_STAMP = re.compile(r"\[([^\]]*)\]")
_INSERTS = ('"', "\\", '\\"', "[", "]", "%", "%zz", "é", "中", "\r", "\x00", "\t", "\x0c", " ")


def _stamp_mutation(stamp, rng):
    """One odd variant of a 26-character timestamp field."""
    k = rng.randrange(len(stamp))
    return rng.choice((
        stamp + rng.choice("0 x"),  # 27 characters; the first 26 are the valid field
        stamp[:k] + stamp[k] + stamp[k:],  # 27, one character repeated
        stamp[:-1],  # 25
        stamp[:k] + stamp[k + 1:],  # 25
        "31/Feb" + stamp[6:],
        "%02d" % rng.randint(1, 28) + stamp[2:],  # another day inside a run
        stamp[:21] + rng.choice(("-0700", "+0130", "+0059", "-0000")),  # another offset
    ))


def _mutate(line, rng):
    i = rng.randrange(len(line) + 1)
    kind = rng.randrange(4)
    if kind == 0:
        return line[:i] + rng.choice(_INSERTS) + line[i:]
    if kind == 1:
        return line[:i] + line[i + rng.randint(1, 3):]
    if kind == 2:
        j = i + rng.randint(1, 8)
        return line[:j] + line[i:j] + line[j:]
    return _STAMP.sub(lambda m: "[" + _stamp_mutation(m.group(1), rng) + "]", line, count=1)


def _mutated_corpus(seed):
    """A synthetic corpus with about half its lines mutated, some in runs of up to three."""
    rng = random.Random(seed)
    lines, _ = generate_synthetic_log(default_archetypes(), 5, seed=seed, bot_fraction=0.3)
    i = 0
    while i < len(lines):
        if rng.random() < 0.35:
            for j in range(i, min(i + rng.randint(1, 3), len(lines))):
                lines[j] = _mutate(lines[j], rng)
            i = j
        i += 1
    return lines


def _per_line(paths, ruleset, filt):
    """(funnel, events) of the files, one ``parse_log_line`` per line."""
    stats, events = IngestStats(), []
    for path in paths:
        with open_log(path) as fh:
            for line in fh:
                stats.lines += 1
                try:
                    record = parse_log_line(line)
                except MalformedLine:
                    stats.malformed += 1
                    continue
                stats.parsed += 1
                reason = filt.drop_reason(record.useragent, record.ip, record.path)
                hit = None if reason else ruleset.match(record.method, record.path)
                if reason:
                    setattr(stats, f"dropped_{reason}", getattr(stats, f"dropped_{reason}") + 1)
                elif hit is None:
                    stats.unmapped += 1
                else:
                    events.append((record.ip, timegm(record.timestamp.utctimetuple()), *hit))
    stats.events = len(events)
    return stats, events


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Three mutated corpora, each written plain and gzip."""
    root = tmp_path_factory.mktemp("mutated")
    paths = {}
    for seed in (41, 42, 43):
        data = ("\n".join(_mutated_corpus(seed)) + "\n").encode("utf-8")
        plain, packed = root / f"m{seed}.log", root / f"m{seed}.log.gz"
        plain.write_bytes(data)
        with gzip.open(packed, "wb") as fh:
            fh.write(data)
        paths[seed] = (plain, packed)
    return paths


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("route", ["plain", "gzip", "mixed"])
def test_ingest_agrees_with_per_line_route_on_mutated_corpora(corpora, ruleset, jobs, route):
    pick = {"plain": (0, 0, 0), "gzip": (1, 1, 1), "mixed": (1, 0, 1)}[route]
    paths = [corpora[seed][k] for seed, k in zip(sorted(corpora), pick)]
    cfg = default_filter_config()
    cfg.ip_blacklist = ["10.3.0.1", "10.5.0.0/30"]
    filt = cfg.compile()
    batch, stats = ingest_paths(paths, ruleset=ruleset, filt=filt, jobs=jobs)
    want_stats, want_events = _per_line(paths, ruleset, filt)
    assert stats == want_stats
    onto = [batch.onto_pool[c] if c >= 0 else None for c in batch.onto_codes.tolist()]
    users = [batch.user_pool[c] for c in batch.user_codes.tolist()]
    assert list(zip(users, batch.timestamps.tolist(), batch.labels.tolist(), onto)) == want_events
    # every outcome occurs
    assert min(stats.malformed, stats.dropped_useragent, stats.dropped_ip, stats.dropped_asset,
               stats.unmapped, stats.events) > 0


_TRACE_LISTS = ("sequence", "ontologies", "session_lengths")
_ODD_VALUES = (10**23, -10**23, -1, -7, 0.5, 1.0, True, False, "7", "GO", None)


def _valid_trace(line, vocab):
    """Whether a ``traces.jsonl`` line is a trace under ``vocab``, read plainly from the format's rules."""
    try:
        row = json.loads(line)
    except ValueError:
        return False
    if type(row) is not dict or not set(("user", *_TRACE_LISTS)) <= row.keys() or type(row["user"]) is not str:
        return False
    sequence, ontologies, lengths = (row[key] for key in _TRACE_LISTS)
    if not all(type(value) is list for value in (sequence, ontologies, lengths)):
        return False
    if not all(type(x) is int and 0 <= x < vocab.n for x in sequence):
        return False
    if len(ontologies) != len(sequence) or not all(x is None or type(x) is str for x in ontologies):
        return False
    runs = [0]  # the run lengths between BREAKs
    for x in sequence:
        if x == vocab.break_id:
            runs.append(0)
        else:
            runs[-1] += 1
    return all(type(x) is int for x in lengths) and lengths == runs and 0 not in runs


def _mutate_trace(lines, rng):
    """The index and new text of one line of ``lines``, with one of its lists edited or the line cut short."""
    i = rng.randrange(len(lines))
    if rng.random() < 0.1:
        return i, lines[i][:rng.randrange(1, len(lines[i]) - 1)]
    row = json.loads(lines[i])
    key = rng.choice(_TRACE_LISTS)
    items = row[key]
    kind = rng.choice(("value", "drop", "insert", "swap", "lengths") if items else ("insert", "lengths"))
    k = rng.randrange(len(items) or 1)
    if kind == "value":
        items[k] = rng.choice(_ODD_VALUES)
    elif kind == "drop":
        del items[k]
    elif kind == "insert":
        items.insert(rng.randrange(len(items) + 1), rng.choice(items) if items else rng.choice(_ODD_VALUES))
    elif kind == "swap":
        j = rng.randrange(len(items))
        items[k], items[j] = items[j], items[k]
    else:
        row["session_lengths"] = json.loads(rng.choice(lines))["session_lengths"]
    return i, json.dumps(row, separators=(",", ":"))


@pytest.fixture(scope="module")
def clean_stage_files(tmp_path_factory):
    """The traces.jsonl, features.csv and assignments.csv of a 14-user corpus, through the per-stage CLI."""
    root = tmp_path_factory.mktemp("stages")
    log = root / "corpus.log"
    generate_synthetic_log(default_archetypes(), 2, seed=44, bot_fraction=0.1, path=log)
    assert main(["ingest", "--logs", str(log), "--out-dir", str(root)]) == 0
    assert main(["features", "--traces", str(root / "traces.jsonl"), "--out", str(root / "features.csv")]) == 0
    assert main(["cluster", "--features", str(root / "features.csv"), "--k", "3", "--k-range", "3:3",
                 "--restarts", "1", "--out-dir", str(root)]) == 0
    return root


@pytest.mark.parametrize("command", ["features", "cluster", "compare"])
def test_mutated_traces_jsonl_exits_0_or_names_its_line(tmp_path, capsys, clean_stage_files, vocab, command):
    root = clean_stage_files
    lines = (root / "traces.jsonl").read_text(encoding="utf-8").splitlines()
    rng = random.Random(45)
    codes = []
    for trial in range(300):
        i, text = _mutate_trace(lines, rng)
        traces, out = tmp_path / f"traces{trial}.jsonl", tmp_path / f"out{trial}"
        traces.write_text("\n".join(lines[:i] + [text] + lines[i + 1:]) + "\n", encoding="utf-8")
        argv = {
            "features": ["--traces", str(traces), "--out", str(out)],
            "cluster": ["--features", str(root / "features.csv"), "--traces", str(traces), "--k", "3",
                        "--k-range", "3:3", "--restarts", "1", "--out-dir", str(out)],
            "compare": ["--traces", str(traces), "--assignments", str(root / "assignments.csv"),
                        "--out-dir", str(out)],
        }[command]
        code = main([command, *argv])
        err = capsys.readouterr().err
        if _valid_trace(text, vocab):
            assert code == 0, (text, err)
        else:
            assert code == 2 and f"trailmine {command}: error: {traces}, line {i + 1}: " in err, (text, err)
            assert not out.exists()
        codes.append(code)
    assert 0 in codes and 2 in codes

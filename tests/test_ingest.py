"""Differential tests: the chunked ingest pass against the per-line reference loop.

Each corpus is generated from a seed, then faults are injected into a
share of its lines. Every route of ``ingest_paths`` must return the same
``IngestStats`` as ``testutil.reference_ingest_paths``, and an
``EventBatch`` with the same events: each event's user and ontology name,
timestamp and label, in int64 code arrays. Pools may list names in any
order, repeat them or hold unused ones, so they are compared through the
traces ``build_traces`` makes of them.
"""

import gzip
import re

import numpy as np
import pytest

from testutil import reference_ingest_paths
from trailmine import pipeline
from trailmine.logs import LOG_FORMATS, default_filter_config, ingest_pattern, line_pattern
from trailmine.pipeline import build_traces, ingest_paths
from trailmine.synth import default_archetypes, generate_synthetic_log

_STAMP = re.compile(r"\[[^\]]*\]")
_ODD_STAMPS = (  # all invalid but the leap second and the large offset
    "[31/Feb/2016:10:00:00 +0000]",
    "[01/Jan/0000:10:00:00 +0000]",
    "[14/Mar/2016:10:00:00 +0099]",
    "[14/Mar/2016:10:00:00 +-100]",
    "[14/Mar/2016:10:00:00 x0000]",
    "[14/Mar/2016:+9:00:00 +0000]",
    "[14/Mar/2016:10:00:00 +0000garbage]",
    "[\u0661\u0664/Mar/2016:10:00:00 +0000]",
    "[14/Mar/2016:\u0661\u0660:00:00 +0000]",
    "[14/Mar/2016:10x00:00 +0000]",
    "[14/Mar/2016:10:00x00 +0000]",
    "[14/Mar/2016:24:00:00 +0000]",
    "[14/Mar/2016:10:00:61 +0000]",
    "[14/Mar/2016:10:00:60 +0000]",
    "[14/Mar/2016:10:00:00 -9959]",
)


def _with_faults(lines, seed):
    """The lines with one fault in about a third of them, chosen by ``seed``."""
    rng = np.random.default_rng(seed)
    out = []
    for line in lines:
        fault = int(rng.integers(20))
        if fault < 3:  # a CR, form feed or line separator inside the user agent
            line = line[:-1] + ("\r", "\x0c", "\u2028")[fault] + '"'
        elif fault == 3:
            line = line.replace('"GET ', '"G\u00c9T ', 1)
        elif fault in (4, 9):
            line = _STAMP.sub(_ODD_STAMPS[int(rng.integers(len(_ODD_STAMPS)))], line, count=1)
        elif fault == 5:
            line = line[: int(rng.integers(1, len(line)))]
        elif fault == 6:
            line = ""
        elif fault == 7:
            line = re.sub(r'"GET \S+', '"GET /assets/app.js', line, count=1)
        elif fault == 8:
            line = re.sub(r'"GET \S+', '"GET /no/such/page', line, count=1)
        out.append(line)
    return out


def _filter():
    """The shipped blacklists plus an exact human IP and CIDR blocks of human and bot IPs, compiled."""
    cfg = default_filter_config()
    cfg.ip_blacklist = ["10.3.0.5", "10.2.0.0/29", "192.0.2.0/26"]
    return cfg.compile()


def _write(path, lines):
    data = "\n".join(lines).encode("utf-8") + b"\n"
    if str(path).endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    return path


def _names(pool, codes):
    """The pool name of each code, None for -1."""
    return [pool[c] if c >= 0 else None for c in codes.tolist()]


def _assert_same(got, want, ruleset):
    (batch, stats), (ref_batch, ref_stats) = got, want
    assert stats == ref_stats
    for column in ("user_codes", "timestamps", "labels", "onto_codes"):
        a, b = getattr(batch, column), getattr(ref_batch, column)
        assert a.dtype == b.dtype == np.int64, column
    assert np.array_equal(batch.timestamps, ref_batch.timestamps)
    assert np.array_equal(batch.labels, ref_batch.labels)
    assert _names(batch.user_pool, batch.user_codes) == _names(ref_batch.user_pool, ref_batch.user_codes)
    assert _names(batch.onto_pool, batch.onto_codes) == _names(ref_batch.onto_pool, ref_batch.onto_codes)
    break_id = ruleset.vocabulary.break_id
    rows = list(build_traces(batch, break_id)[0].rows())
    assert rows == list(build_traces(ref_batch, break_id)[0].rows())


@pytest.fixture(scope="module")
def faulty_lines():
    lines, _ = generate_synthetic_log(default_archetypes(), 6, seed=31, bot_fraction=0.2)
    return _with_faults(lines, seed=31)


_GOOD = '10.0.0.1 - - [14/Mar/2016:09:07:32 -0700] "GET /ontologies/GO HTTP/1.1" 200 512 "-" "Mozilla/5.0"'
_ODD_LINES = (
    _GOOD,
    _GOOD.replace("10.0.0.1", '10.0."0.1', 1),  # a quote inside the IP token
    _GOOD.replace(" - - ", ' "- - ', 1),  # and inside the ident token
    _GOOD.replace(" - - ", " -\t- ", 1),  # a tab between fields
    _GOOD.replace(" 200 ", " 2000 ", 1),  # a 4-digit status
    _GOOD + "\r\n",
    _GOOD[:-1] + '\u2028"',  # a line separator inside the user agent
    "",
    _GOOD + "   ",
    _GOOD.replace(' "-" "Mozilla/5.0"', "") + "  ",
)


@pytest.mark.parametrize("log_format", LOG_FORMATS)
def test_ingest_pattern_accepts_what_the_grammar_accepts(faulty_lines, log_format):
    """The ingest pattern matches the same lines and captures the grammar's IP, timestamp, request and user agent."""
    common = [re.sub(r' "[^"]*" "[^"]*"\s*$', "", line) for line in faulty_lines]
    lines = [*faulty_lines, *common, *_ODD_LINES]
    kept = (1, 4, 5, 9) if log_format == "combined" else (1, 4, 5)
    grammar, ingest = line_pattern(log_format), ingest_pattern(log_format)
    assert ingest.groups == len(kept)
    matched = 0
    for line in lines:
        want, got = grammar.match(line), ingest.match(line)
        assert (want is None) == (got is None), line
        if want is not None:
            assert got.groups() == want.group(*kept), line
            assert got.span() == want.span(), line
            matched += 1
    assert 0 < matched < len(lines)


@pytest.mark.parametrize(
    "suffixes,jobs",
    [
        ((".log",), 1),
        ((".log",), 2),
        ((".log.gz",), 1),
        ((".log.gz",), 2),
        ((".log", ".log.gz"), 1),  # two files share one set of verdict tables
        ((".log.gz", ".log"), 1),  # parts merge in path order, gzip first or not
        ((".log.gz", ".log"), 2),
    ],
)
def test_chunked_ingest_matches_reference(tmp_path, ruleset, faulty_lines, suffixes, jobs):
    paths = [
        _write(tmp_path / f"faulty{i}{suffix}", faulty_lines[i::2] if i else faulty_lines)
        for i, suffix in enumerate(suffixes)
    ]
    filt = _filter()
    got = ingest_paths(paths, ruleset=ruleset, filt=filt, jobs=jobs)
    want = reference_ingest_paths(paths, ruleset, filt)
    _assert_same(got, want, ruleset)
    stats = got[1]
    # every fault kind and every drop reason occurs in this corpus
    assert min(stats.malformed, stats.dropped_useragent, stats.dropped_ip,
               stats.dropped_asset, stats.unmapped, stats.events) > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_chunked_ingest_matches_reference_common_format(tmp_path, ruleset, faulty_lines, jobs):
    common = [re.sub(r' "[^"]*" "[^"]*"\s*$', "", line) for line in faulty_lines]
    path = _write(tmp_path / "common.log", common)
    filt = _filter()
    got = ingest_paths([path], ruleset=ruleset, filt=filt, log_format="common", jobs=jobs)
    _assert_same(got, reference_ingest_paths([path], ruleset, filt, log_format="common"), ruleset)
    assert got[1].dropped_useragent == 0 < got[1].events


def test_request_verdicts_reset_mid_file(tmp_path, ruleset, monkeypatch):
    lines, _ = generate_synthetic_log(default_archetypes(), 40, seed=32, bot_fraction=0.1)
    lines = _with_faults(lines, seed=32)
    assert len(lines) > 4 * pipeline._CHUNK_LINES
    path = _write(tmp_path / "long.log", lines)
    calls = []
    request_verdict = pipeline._request_verdict

    def counted(request, *args):
        calls.append(request)
        return request_verdict(request, *args)

    # the values each table decided, in order, with repeats
    decided = {}
    decide = pipeline._Verdicts.decide

    def spied(self, field, values, verdict):
        def noted(value):
            decided.setdefault(field, []).append(value)
            return verdict(value)

        out = decide(self, field, values, noted)
        assert len(self.tables[field]) <= 8 + len(set(values))
        return out

    monkeypatch.setattr(pipeline, "_VERDICTS_MAX", 8)
    monkeypatch.setattr(pipeline, "_request_verdict", counted)
    monkeypatch.setattr(pipeline._Verdicts, "decide", spied)
    filt = _filter()
    got = ingest_paths([path], ruleset=ruleset, filt=filt)
    assert len(calls) > len(set(calls))  # the request table was emptied and refilled
    assert sorted(decided) == ["date", "ip", "request", "useragent"]
    for field, values in decided.items():  # so was every table
        assert len(values) > len(set(values)), field
    _assert_same(got, reference_ingest_paths([path], ruleset, filt), ruleset)

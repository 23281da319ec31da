"""Differential tests: the chunked ingest pass against the per-line reference loop.

Each corpus is generated from a seed, then faults are injected into a
share of its lines. Every route of ``ingest_paths`` must return the same
``EventBatch`` (pools, code arrays and dtypes) and ``IngestStats`` as
``testutil.reference_ingest_paths``.
"""

import gzip
import re

import numpy as np
import pytest

from testutil import reference_ingest_paths
from trailmine import pipeline
from trailmine.logs import default_filter_config
from trailmine.pipeline import ingest_paths
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


def _filter_config():
    """The shipped blacklists plus an exact human IP and CIDR blocks of human and bot IPs."""
    cfg = default_filter_config()
    cfg.ip_blacklist = ["10.3.0.5", "10.2.0.0/29", "192.0.2.0/26"]
    return cfg


def _write(path, lines):
    data = "\n".join(lines).encode("utf-8") + b"\n"
    if str(path).endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    return path


def _assert_same(got, want):
    (batch, stats), (ref_batch, ref_stats) = got, want
    assert stats == ref_stats
    assert batch.user_pool == ref_batch.user_pool
    assert batch.onto_pool == ref_batch.onto_pool
    for column in ("user_codes", "timestamps", "labels", "onto_codes"):
        a, b = getattr(batch, column), getattr(ref_batch, column)
        assert a.dtype == b.dtype == np.int64, column
        assert np.array_equal(a, b), column


@pytest.fixture(scope="module")
def faulty_lines():
    lines, _ = generate_synthetic_log(default_archetypes(), 6, seed=31, bot_fraction=0.2)
    return _with_faults(lines, seed=31)


@pytest.mark.parametrize(
    "suffixes,jobs",
    [
        ((".log",), 1),
        ((".log",), 2),
        ((".log.gz",), 1),
        ((".log.gz",), 2),
        ((".log", ".log.gz"), 1),  # two files share one table of request verdicts
        ((".log.gz", ".log"), 1),  # parts merge in path order, gzip first or not
        ((".log.gz", ".log"), 2),
    ],
)
def test_chunked_ingest_matches_reference(tmp_path, ruleset, faulty_lines, suffixes, jobs):
    paths = [
        _write(tmp_path / f"faulty{i}{suffix}", faulty_lines[i::2] if i else faulty_lines)
        for i, suffix in enumerate(suffixes)
    ]
    cfg = _filter_config()
    got = ingest_paths(paths, ruleset=ruleset, filter_config=cfg, jobs=jobs)
    want = reference_ingest_paths(paths, ruleset, cfg)
    _assert_same(got, want)
    stats = got[1]
    # every fault kind and every drop reason occurs in this corpus
    assert min(stats.malformed, stats.dropped_useragent, stats.dropped_ip,
               stats.dropped_asset, stats.unmapped, stats.events) > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_chunked_ingest_matches_reference_common_format(tmp_path, ruleset, faulty_lines, jobs):
    common = [re.sub(r' "[^"]*" "[^"]*"\s*$', "", line) for line in faulty_lines]
    path = _write(tmp_path / "common.log", common)
    cfg = _filter_config()
    got = ingest_paths([path], ruleset=ruleset, filter_config=cfg, log_format="common", jobs=jobs)
    _assert_same(got, reference_ingest_paths([path], ruleset, cfg, log_format="common"))
    assert got[1].dropped_useragent == 0 < got[1].events


def test_request_verdicts_reset_mid_file(tmp_path, ruleset, monkeypatch):
    lines, _ = generate_synthetic_log(default_archetypes(), 40, seed=32, bot_fraction=0.1)
    lines = _with_faults(lines, seed=32)
    assert len(lines) > 4 * pipeline._CHUNK_LINES
    path = _write(tmp_path / "long.log", lines)
    calls = []
    decide = pipeline._request_verdict

    def counted(request, *args):
        calls.append(request)
        return decide(request, *args)

    monkeypatch.setattr(pipeline, "_REQUEST_VERDICTS_MAX", 64)
    monkeypatch.setattr(pipeline, "_request_verdict", counted)
    cfg = _filter_config()
    got = ingest_paths([path], ruleset=ruleset, filter_config=cfg)
    assert len(calls) > len(set(calls))  # the table was emptied and refilled
    _assert_same(got, reference_ingest_paths([path], ruleset, cfg))

"""Whole-run invariants: input changes that must not change what a run finds.

Each case changes one seeded synthetic corpus in one way, runs
``run_pipeline`` on it and compares the data artifacts (every file but
the manifest) by sha256 with the run on the corpus as generated. These
are metamorphic relations (Chen et al., 1998; Segura et al., IEEE TSE
2016): they hold for any corpus, so they guard every ingest route.
"""

import gzip
import hashlib
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from trailmine.formats import read_assignments_csv, read_feature_csv
from trailmine.logs import parse_clf_timestamp
from trailmine.pipeline import PipelineConfig, run_pipeline
from trailmine.synth import HUMAN_USERAGENTS, default_archetypes, generate_synthetic_log

_BLOCKED = "203.0.113.0/24"
_LINE = '{ip} - - [{stamp}] "GET {path} HTTP/1.1" 200 512 "-" "{ua}"'
_STAMP = "14/Mar/2016:10:00:00 +0000"
# one line of each kind of noise, and the funnel counter it moves
_NOISE = {
    "malformed": ("not a log line", "malformed"),
    "impossible_date": (_LINE.format(ip="198.51.100.1", stamp="31/Feb/2016:10:00:00 +0000",
                                     path="/ontologies/MCCV", ua=HUMAN_USERAGENTS[0]), "malformed"),
    "asset": (_LINE.format(ip="198.51.100.1", stamp=_STAMP, path="/assets/app.js",
                           ua=HUMAN_USERAGENTS[0]), "dropped_asset"),
    "encoded_asset": (_LINE.format(ip="198.51.100.1", stamp=_STAMP, path="/%61ssets/app.js",
                                   ua=HUMAN_USERAGENTS[0]), "dropped_asset"),
    "unmapped": (_LINE.format(ip="198.51.100.1", stamp=_STAMP, path="/no/such/page",
                              ua=HUMAN_USERAGENTS[0]), "unmapped"),
    "bot_ua": (_LINE.format(ip="198.51.100.1", stamp=_STAMP, path="/ontologies/MCCV",
                            ua="Mozilla/5.0 (compatible; Googlebot/2.1)"), "dropped_useragent"),
    "blacklisted_ip": (_LINE.format(ip="203.0.113.7", stamp=_STAMP, path="/ontologies/MCCV",
                                    ua=HUMAN_USERAGENTS[0]), "dropped_ip"),
}


@pytest.fixture(scope="module")
def corpus():
    lines, _ = generate_synthetic_log(default_archetypes(), 6, seed=17, bot_fraction=0.1)
    return lines


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("invariants")
    (tmp / "ip_blacklist.txt").write_text(_BLOCKED + "\n", encoding="utf-8")
    return tmp


def _write(path, lines):
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if path.suffix == ".gz":
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    return path


def _run(workdir, name, parts, jobs=1):
    """(sha256 of each data artifact, the ingest funnel) of a run over ``parts``, a list of (suffix, lines)."""
    paths = [_write(workdir / f"{name}_{i}{suffix}", lines) for i, (suffix, lines) in enumerate(parts)]
    out = workdir / name
    cfg = PipelineConfig(logs=[str(p) for p in paths], out_dir=str(out), k_range=(1, 10), jobs=jobs,
                         ip_blacklist=str(workdir / "ip_blacklist.txt"))
    funnel = dict(run_pipeline(cfg)["stages"]["ingest"])
    del funnel["seconds"]
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in out.iterdir() if not p.name.startswith("manifest")}
    return hashes, funnel


@pytest.fixture(scope="module")
def base(workdir, corpus):
    return _run(workdir, "base", [(".log", corpus)])


def test_noise_moves_only_its_counter(workdir, corpus, base):
    rng = np.random.default_rng(17)
    lines = list(corpus)
    moved = dict.fromkeys(base[1], 0)
    for line, counter in _NOISE.values():
        for _ in range(3):
            lines.insert(int(rng.integers(len(lines) + 1)), line)
            moved[counter] += 1
    moved["lines"] = 3 * len(_NOISE)
    moved["parsed"] = moved["lines"] - moved["malformed"]
    moved["filtered"] = moved["unmapped"]  # the only noise that passes the blacklists
    hashes, funnel = _run(workdir, "noise", [(".log", lines)])
    assert hashes == base[0]
    assert {key: funnel[key] - base[1][key] for key in funnel} == moved


@pytest.mark.parametrize("jobs", [1, 2])
def test_split_plain_and_gzip_files(workdir, corpus, base, jobs):
    cuts = [0, len(corpus) // 4, len(corpus) // 2, 3 * len(corpus) // 4, len(corpus)]
    suffixes = [".log", ".log.gz", ".log", ".log.gz"]
    parts = [(s, corpus[a:b]) for s, a, b in zip(suffixes, cuts, cuts[1:])]
    assert _run(workdir, f"split{jobs}", parts, jobs=jobs) == base


def test_order_preserving_renaming(workdir, corpus, base):
    ips = sorted({line.split(" ", 1)[0] for line in corpus})
    new = {ip: f"user{i:05d}" for i, ip in enumerate(ips)}  # sorts as the IPs do
    renamed = [new[ip] + " " + rest for ip, rest in (line.split(" ", 1) for line in corpus)]
    _run(workdir, "renamed", [(".log", renamed)])
    before, after = (read_feature_csv(workdir / name / "features.csv") for name in ("base", "renamed"))
    assert after.user_ids == [new[u] for u in before.user_ids]
    assert np.array_equal(after.X, before.X)
    before, after = (read_assignments_csv(workdir / name / "assignments.csv") for name in ("base", "renamed"))
    assert list(after.values()) == list(before.values())


_MONTH_NAMES = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _restamp(match, offset):
    """The timestamp field of ``match`` as the same instant written in ``offset`` (``+HHMM``)."""
    sign = -1 if offset[0] == "-" else 1
    tz = timezone(sign * timedelta(hours=int(offset[1:3]), minutes=int(offset[3:])))
    t = datetime.fromtimestamp(parse_clf_timestamp(match[1]), tz=tz)
    return f"[{t.day:02d}/{_MONTH_NAMES[t.month - 1]}/{t.year}:{t:%H:%M:%S} {offset}]"


@pytest.mark.parametrize("offset", ["+0530", "-1130"])
def test_timezone_rewrite(workdir, corpus, base, offset):
    stamp = re.compile(r"\[([^\]]+)\]")
    lines = [stamp.sub(lambda m: _restamp(m, offset), line, count=1) for line in corpus]
    assert all(f" {offset}] " in line for line in lines)
    assert _run(workdir, f"tz{offset}", [(".log", lines)]) == base


def test_percent_encoded_path(workdir, corpus, base):
    lines = [line.replace(" /ontologies/", " /%6Fntologies/", 1) for line in corpus]
    assert sum("/%6Fntologies/" in line for line in lines) > len(lines) // 4
    assert _run(workdir, "encoded", [(".log", lines)]) == base


def test_crlf_line_endings(workdir, corpus, base):
    assert _run(workdir, "crlf", [(".log", [line + "\r" for line in corpus])]) == base

import gzip
import re
from datetime import datetime, timezone

import pytest

from trailmine import logs
from trailmine.ingest import ingest_paths
from trailmine.logs import (
    CompiledFilter,
    FilterConfig,
    InvalidTimestamp,
    MalformedLine,
    format_log_line,
    parse_log_line,
)
from trailmine.synth import default_archetypes, generate_synthetic_log

EXAMPLE = '1.2.3.4 - - [14/Mar/2016:09:07:32 -0700] "GET /ontologies/MCCV HTTP/1.1" 200 512 "-" "Mozilla/5.0"'


def test_parse_example_line():
    r = parse_log_line(EXAMPLE)
    assert r.ip == "1.2.3.4"
    assert r.method == "GET"
    assert r.path == "/ontologies/MCCV"
    assert r.query == ""
    assert r.status == 200
    assert r.useragent == "Mozilla/5.0"
    # -0700 offset normalized to UTC
    assert r.timestamp.isoformat() == "2016-03-14T16:07:32+00:00"


def test_parse_common_format():
    line = '1.2.3.4 - - [14/Mar/2016:09:07:32 +0000] "GET / HTTP/1.0" 200 512'
    r = parse_log_line(line, log_format="common")
    assert r.path == "/"
    assert r.useragent == ""
    with pytest.raises(MalformedLine):
        parse_log_line(line)  # combined grammar needs referer/useragent


@pytest.mark.parametrize(
    "line",
    [
        "garbage without quotes",
        "",
        '1.2.3.4 - - [14/Mar/2016:09:07:32 -0700] "GET /x HTTP/1.1" abc 512 "-" "ua"',
        '1.2.3.4 - - [14/Mar/2016:09:07:32 -0700] "-" 200 512 "-" "ua"',
        '1.2.3.4 - - [14/Mar/2016:09:07:32 -0700] "get /x HTTP/1.1" 200 512 "-" "ua"',
        '1.2.3.4 - - [14/Mar/2016:09:07:32 -0700] "GET http://e.com HTTP/1.1" 200 512 "-" "ua"',
    ],
)
def test_malformed_lines(line):
    with pytest.raises(MalformedLine):
        parse_log_line(line)


def test_invalid_timestamp_is_malformed():
    line = '1.2.3.4 - - [99/Xxx/2016:09:07:32 -0700] "GET /x HTTP/1.1" 200 512 "-" "ua"'
    with pytest.raises(InvalidTimestamp):
        parse_log_line(line)
    assert issubclass(InvalidTimestamp, MalformedLine)


@pytest.mark.parametrize(
    "stamp", ["31/Feb/2016:00:00:00 +0000", "29/Feb/2015:00:00:00 +0000",
              "31/Apr/2016:12:00:00 +0000", "01/Jan/0000:00:00:00 +0000"],
)
def test_impossible_dates_are_invalid(stamp):
    with pytest.raises(InvalidTimestamp):
        logs.parse_clf_timestamp(stamp)


@pytest.mark.parametrize(
    "stamp",
    [
        " 1/Jan/2016:09:07:32 +0000",  # space-padded day
        "14xMarx2016x09x07x32x-0700",  # wrong separators
        "14/Mar/2016:09:07:32 -0700garbage",  # trailing text
        "14/Mar/2016:+9:07:32 +0000",  # signed hour
        "\u0661\u0664/Mar/2016:09:07:32 +0000",  # Arabic-Indic digits in the day
        "14/Mar/2016:\u0660\u0669:07:32 +0000",  # Arabic-Indic digits in the hour
        "14/Mar/2016:09:07:32 +0099",  # offset minutes above 59
        "14/Mar/2016:09:07:32 +-100",  # signed offset digits
    ],
)
def test_timestamp_layout_is_strict(tmp_path, stamp):
    with pytest.raises(InvalidTimestamp):
        logs.parse_clf_timestamp(stamp)
    path = tmp_path / "stamp.log"
    path.write_text(EXAMPLE.replace("14/Mar/2016:09:07:32 -0700", stamp) + "\n", encoding="utf-8")
    _, stats = ingest_paths([path])
    assert (stats.lines, stats.malformed, stats.events) == (1, 1, 0)


def test_leap_second_and_offset_hours_stay_valid():
    base = logs.parse_clf_timestamp("14/Mar/2016:09:07:59 +0000")
    assert logs.parse_clf_timestamp("14/Mar/2016:09:07:60 +0000") == base + 1
    assert logs.parse_clf_timestamp("14/Mar/2016:09:07:59 +9959") == base - 99 * 3600 - 59 * 60


def test_leap_day_is_valid():
    leap = logs.parse_clf_timestamp("29/Feb/2016:00:00:00 +0000")
    assert leap == logs.parse_clf_timestamp("01/Mar/2016:00:00:00 +0000") - 86400
    assert logs.parse_clf_timestamp("30/Apr/2016:12:00:00 +0000") > leap


def test_impossible_date_counts_as_malformed_in_ingest(tmp_path):
    path = tmp_path / "dates.log"
    path.write_text(EXAMPLE + "\n" + EXAMPLE.replace("14/Mar", "31/Feb") + "\n", encoding="utf-8")
    _, stats = ingest_paths([path])
    assert (stats.lines, stats.malformed, stats.events) == (2, 1, 1)


_EDGE_STAMPS = {  # the first and last UTC instants a datetime holds, and instants past them (None)
    "01/Jan/0001:00:00:00 +0000": datetime.min,
    "01/Jan/0001:01:00:00 +0100": datetime.min,  # its date at 00:00:00 lies before year 1
    "01/Jan/0001:00:59:59 +0100": None,
    "01/Jan/0001:00:00:00 +0100": None,
    "31/Dec/9999:23:59:59 +0000": datetime.max.replace(microsecond=0),
    "31/Dec/9999:23:59:60 +0000": None,  # the leap second is 10000-01-01T00:00:00Z
    "31/Dec/9999:23:59:59 -0100": None,
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", ["edges.log", "edges.log.gz"])
def test_instants_outside_years_1_to_9999_are_malformed(tmp_path, jobs, name):
    lines = [EXAMPLE.replace("14/Mar/2016:09:07:32 -0700", stamp) for stamp in _EDGE_STAMPS]
    for line, want in zip(lines, _EDGE_STAMPS.values()):
        if want is None:
            with pytest.raises(InvalidTimestamp):
                parse_log_line(line)
        else:
            assert parse_log_line(line).timestamp == want.replace(tzinfo=timezone.utc)
    path = tmp_path / name
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    batch, stats = ingest_paths([path], jobs=jobs)
    assert (stats.lines, stats.malformed, stats.events) == (7, 4, 3)
    epochs = [int(want.replace(tzinfo=timezone.utc).timestamp()) for want in _EDGE_STAMPS.values() if want]
    assert sorted(batch.timestamps.tolist()) == epochs


def test_percent_decoding_applies_to_path_only():
    line = (
        '1.2.3.4 - - [14/Mar/2016:09:07:46 -0700] '
        '"GET /login?redirect=http%3A%2F%2Fexample.org%2F HTTP/1.1" 200 1 "-" "ua"'
    )
    r = parse_log_line(line)
    assert r.path == "/login"
    assert r.query == "redirect=http%3A%2F%2Fexample.org%2F"

    line = '1.2.3.4 - - [14/Mar/2016:09:07:46 -0700] "GET /a%20b/c?x=%2F HTTP/1.1" 200 1 "-" "ua"'
    r = parse_log_line(line)
    assert r.path == "/a b/c"
    assert r.query == "x=%2F"


def test_round_trip_on_generated_records():
    lines, _ = generate_synthetic_log(default_archetypes(), 5, seed=3, bot_fraction=0.2)
    assert len(lines) > 100
    for line in lines[:400]:
        first = parse_log_line(line)
        again = parse_log_line(format_log_line(first))
        assert again == first


def test_ingest_skips_and_counts_malformed(tmp_path):
    good = EXAMPLE
    path = tmp_path / "mixed.log"
    path.write_text(good + "\nnot a log line\n" + good + "\n", encoding="utf-8")
    _, stats = ingest_paths([path])
    assert (stats.lines, stats.malformed, stats.parsed, stats.events) == (3, 1, 2, 2)


def test_gzip_input(tmp_path):
    path = tmp_path / "log.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(EXAMPLE + "\n")
    batch, stats = ingest_paths([path])
    assert (stats.lines, stats.parsed, stats.events) == (1, 1, 1)
    assert batch.user_pool == ["1.2.3.4"]


def test_useragent_blacklist_matches_substring_case_insensitive():
    filt = FilterConfig(useragent_blacklist=["googlebot"]).compile()
    assert filt.drop_reason("Googlebot/2.1 (+http://www.google.com/bot.html)", "1.2.3.4", "/x") == "useragent"
    assert filt.drop_reason("Mozilla/5.0 (X11; Linux)", "1.2.3.4", "/x") is None


def test_empty_config_is_identity():
    filt = FilterConfig().compile()
    for ua, ip, path in [("Googlebot/2.1", "10.0.0.1", "/site.css"), ("Mozilla/5.0", "1.2.3.4", "/")]:
        assert filt.drop_reason(ua, ip, path) is None


def test_ip_blacklist_exact_and_cidr():
    filt = FilterConfig(ip_blacklist=["10.0.0.1", "192.168.0.0/24"]).compile()
    reasons = [filt.drop_reason("Mozilla/5.0", ip, "/x") for ip in ("10.0.0.1", "192.168.0.77", "8.8.8.8")]
    assert reasons == ["ip", "ip", None]


def test_asset_patterns_drop_paths():
    filt = FilterConfig(drop_asset_patterns=[r"\.css$", r"^/ajax/"]).compile()
    reasons = [filt.drop_reason("Mozilla/5.0", "1.2.3.4", p) for p in ("/site.css", "/ajax/ping", "/search")]
    assert reasons == ["asset", "asset", None]


ASSET_PATTERNS = [r"^/a|b", r"^[|]x", r"^\|x", r"^/x(?:/|$)", r"\.css$", r"(?m)^/y", r"(?i)^/IMG/",
                  "^(?x: /v  # or|w\n)"]
ASSET_PATHS = ["/a", "/ab", "xb", "|x", "/|x", "/x", "/x/", "/xy", "/q/x", "a.css", "a.css\n",
               "/q\n/y", "/y", "/yz", "y", "/search", "", "/img/a", "/q/img/", "/v", "/q/v", "w"]


def test_asset_check_equals_search_over_each_pattern():
    # groupless patterns share two searched alternations, split by a leading "^";
    # no verdict may change, whichever one a pattern joins.
    # patterns with groups are searched on their own: in one alternation the
    # second \1 would name the first pattern's group, and two (?P<x>...) collide
    shipped = logs.default_filter_config().drop_asset_patterns
    backrefs, named = [r"(a)\1", r"(b)\1"], [r"^(?P<x>/z)", r"(?P<x>\.png)$"]
    for patterns in [ASSET_PATTERNS, *([p] for p in ASSET_PATTERNS), shipped, shipped + ASSET_PATTERNS,
                     backrefs, named, shipped + backrefs + named]:
        filt = FilterConfig(drop_asset_patterns=patterns).compile()
        for path in ASSET_PATHS + ["/assets/x.png", "/ajax", "/ajaxy", "/q\n/assets/", "/aa", "/bb",
                                   "/ab", "/z", "/y.png"]:
            assert filt.asset_dropped(path) == any(re.search(p, path) for p in patterns), (patterns, path)


def test_bad_asset_pattern_reports_entry():
    with pytest.raises(ValueError, match="does not compile"):
        CompiledFilter(FilterConfig(drop_asset_patterns=["(["]))


def test_default_filter_config_loads():
    filt = logs.default_filter_config().compile()
    assert filt.drop_reason("Googlebot/2.1", "1.2.3.4", "/") == "useragent"
    assert filt.drop_reason("Mozilla/5.0 (Windows NT 10.0)", "1.2.3.4", "/styles/app.css") == "asset"
    assert filt.drop_reason("Mozilla/5.0 (Windows NT 10.0)", "1.2.3.4", "/search") is None

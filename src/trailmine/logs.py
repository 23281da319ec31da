"""Access-log grammar and traffic filters.

Defines the Apache "combined" (default) and "common" line grammars, the
timestamp and request-field checks, and :class:`CompiledFilter`, whose
``drop_reason`` names the user-agent / IP blacklist or static-asset
pattern that marks a request as non-human traffic. A run reads its list
files and compiles its filter once, when its
:class:`trailmine.pipeline.RunRecord` is made, so a missing list file or
a pattern that does not compile fails before anything is written. Bulk
ingestion of files goes through :func:`trailmine.pipeline.ingest_paths`;
:func:`parse_log_line` turns a single line into a :class:`RequestRecord`.
"""

from __future__ import annotations

import gzip
import io
import ipaddress
import re
from calendar import monthrange, timegm
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO
from urllib.parse import quote, unquote

__all__ = [
    "MalformedLine",
    "InvalidTimestamp",
    "RequestRecord",
    "FilterConfig",
    "CompiledFilter",
    "LOG_FORMATS",
    "line_pattern",
    "ingest_pattern",
    "parse_log_line",
    "format_log_line",
    "open_log",
    "load_list_file",
    "default_filter_config",
    "DEFAULT_UA_BLACKLIST",
    "DEFAULT_IP_BLACKLIST",
    "DEFAULT_ASSET_PATTERNS",
]

_DATA_DIR = Path(__file__).parent / "data"
DEFAULT_UA_BLACKLIST = _DATA_DIR / "ua_blacklist.txt"
DEFAULT_IP_BLACKLIST = _DATA_DIR / "ip_blacklist.txt"
DEFAULT_ASSET_PATTERNS = _DATA_DIR / "asset_patterns.txt"


class MalformedLine(ValueError):
    """Line does not match the configured log grammar."""


class InvalidTimestamp(MalformedLine):
    """Timestamp field does not denote a valid instant."""


# host ident authuser [timestamp] "request" status bytes ["referer" "useragent"]
_LINE_PATTERNS = {
    "combined": re.compile(
        r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (\S+) "([^"]*)" "([^"]*)"\s*$'
    ),
    "common": re.compile(
        r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (\S+)\s*$'
    ),
}
LOG_FORMATS = tuple(_LINE_PATTERNS)
# the groups bulk ingest keeps: IP, timestamp, request and, in "combined", user agent
_INGEST_GROUPS = {"combined": (1, 4, 5, 9), "common": (1, 4, 5)}
# the opening parenthesis of a capturing group; the grammar has no literal parenthesis
_GROUP_OPEN = re.compile(r"\((?!\?)")


def _capturing_only(pattern: re.Pattern, keep: tuple[int, ...]) -> re.Pattern:
    """``pattern`` with each capturing group whose number is not in ``keep`` made non-capturing."""
    numbers = iter(range(1, pattern.groups + 1))
    return re.compile(_GROUP_OPEN.sub(lambda _: "(" if next(numbers) in keep else "(?:", pattern.pattern))


_INGEST_PATTERNS = {name: _capturing_only(p, _INGEST_GROUPS[name]) for name, p in _LINE_PATTERNS.items()}

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


_STAMP_RE = re.compile(
    r"([0-9]{2})/([A-Z][a-z]{2})/([0-9]{4})"  # 14/Mar/2016
    r":([0-9]{2}):([0-9]{2}):([0-9]{2})"  # :09:07:32
    r" ([+-])([0-9]{2})([0-5][0-9])"  # " -0700"
)


# the first and last UTC instants a datetime holds, in epoch seconds: 0001-01-01 and 9999-12-31T23:59:59
_EPOCH_MIN, _EPOCH_MAX = timegm((1, 1, 1, 0, 0, 0)), timegm((9999, 12, 31, 23, 59, 59))


def parse_clf_timestamp(ts: str) -> int:
    """Parse ``14/Mar/2016:09:07:32 -0700`` into UTC epoch seconds.

    The field is exactly that layout: 26 characters, ASCII digits, a month
    abbreviation, the separators ``/ / : : : ' '``, a sign and offset
    minutes below 60. Any other field, an impossible date or a time of day
    past ``23:59:60`` raises :class:`InvalidTimestamp`.
    """
    m = _STAMP_RE.fullmatch(ts)
    mon = _MONTHS.get(m.group(2)) if m else None
    if mon is None:
        raise InvalidTimestamp(f"bad timestamp field: {ts!r}")
    day, year, hh, mm, ss = map(int, m.group(1, 3, 4, 5, 6))
    if not (1 <= day <= 31 and hh < 24 and mm < 60 and ss < 61):
        raise InvalidTimestamp(f"bad timestamp field: {ts!r}")
    off = int(m.group(8)) * 3600 + int(m.group(9)) * 60
    if m.group(7) == "-":
        off = -off
    try:
        base, days = timegm((year, mon, 1, 0, 0, 0)), monthrange(year, mon)[1]
    except ValueError as exc:  # a year outside 1..9999
        raise InvalidTimestamp(f"bad timestamp field: {ts!r}") from exc
    if day > days:
        raise InvalidTimestamp(f"day {day} does not exist in {ts[3:11]}: {ts!r}")
    return base + (day - 1) * 86400 + hh * 3600 + mm * 60 + ss - off


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One parsed access-log line.

    ``path`` is percent-decoded and always starts with ``/``; ``query`` is
    kept raw (may be empty). ``timestamp`` is normalized to UTC.
    """

    ip: str
    timestamp: datetime
    method: str
    path: str
    query: str
    status: int
    useragent: str

    @property
    def epoch(self) -> int:
        return int(self.timestamp.timestamp())


def line_pattern(log_format: str) -> re.Pattern:
    """The line grammar of ``log_format`` ("combined" or "common")."""
    try:
        return _LINE_PATTERNS[log_format]
    except KeyError:
        raise ValueError(f"unknown log format: {log_format!r}") from None


def ingest_pattern(log_format: str) -> re.Pattern:
    """:func:`line_pattern` capturing only the IP, timestamp, request and user agent, in that order.

    "common" has no user agent, so its pattern captures the first three.
    The other groups are non-capturing, so it accepts exactly the lines
    :func:`line_pattern` accepts.
    """
    line_pattern(log_format)  # raises for an unknown format
    return _INGEST_PATTERNS[log_format]


def _split_request(request: str) -> tuple[str, str, str]:
    """Split the quoted request field into (method, raw_path, query).

    The one request check of every ingest route: three space-separated
    tokens, an upper-case ASCII method and a target that is a path.
    """
    parts = request.split(" ")
    if len(parts) != 3:
        raise MalformedLine(f"bad request field: {request!r}")
    method, target = parts[0], parts[1]
    if not method or not method.isascii() or not method.isupper():
        raise MalformedLine(f"bad method token: {method!r}")
    raw_path, _, query = target.partition("?")
    if not raw_path.startswith("/"):
        raise MalformedLine(f"request target is not a path: {target!r}")
    return method, raw_path, query


def parse_log_line(line: str, log_format: str = "combined") -> RequestRecord:
    """Parse one log line into a :class:`RequestRecord`.

    Raises :class:`MalformedLine` (or its subclass
    :class:`InvalidTimestamp`) on anything that does not match the
    grammar, and on a timestamp whose UTC instant lies outside years
    1-9999; callers doing bulk ingestion count and skip those.
    """
    m = line_pattern(log_format).match(line)
    if m is None:
        raise MalformedLine(f"unparsable line: {line[:120]!r}")
    g = m.groups()
    epoch = parse_clf_timestamp(g[3])
    if not _EPOCH_MIN <= epoch <= _EPOCH_MAX:
        raise InvalidTimestamp(f"instant outside years 1-9999 in UTC: {g[3]!r}")
    method, raw_path, query = _split_request(g[4])
    path = unquote(raw_path) if "%" in raw_path else raw_path
    return RequestRecord(
        ip=g[0],
        timestamp=datetime.fromtimestamp(epoch, tz=timezone.utc),
        method=method,
        path=path,
        query=query,
        status=int(g[5]),
        useragent=g[8] if log_format == "combined" else "",
    )


def format_log_line(
    record: RequestRecord,
    size: int = 512,
    referer: str = "-",
    protocol: str = "HTTP/1.1",
) -> str:
    """Render a record back into one combined-format log line.

    Inverse of :func:`parse_log_line` for records whose user agent
    contains no double quotes (true for everything this package emits).
    """
    ts = record.timestamp.astimezone(timezone.utc)
    stamp = (
        f"{ts.day:02d}/{_MONTH_NAMES[ts.month - 1]}/{ts.year:04d}:"
        f"{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d} +0000"
    )
    target = quote(record.path, safe="/")
    if record.query:
        target += "?" + record.query
    return (
        f'{record.ip} - - [{stamp}] "{record.method} {target} {protocol}" '
        f'{record.status} {size} "{referer}" "{record.useragent}"'
    )


@dataclass
class FilterConfig:
    """Blacklists and asset patterns that define non-interaction traffic.

    ``useragent_blacklist`` holds case-insensitive substrings,
    ``ip_blacklist`` exact addresses or CIDR blocks, and
    ``drop_asset_patterns`` regexes matched against the decoded path.
    """

    useragent_blacklist: list[str] = field(default_factory=list)
    ip_blacklist: list[str] = field(default_factory=list)
    drop_asset_patterns: list[str] = field(default_factory=list)

    def compile(self) -> "CompiledFilter":
        return CompiledFilter(self)


_GLOBAL_FLAGS = re.compile(r"\(\?([aiLmsux]+)\)")


def _scoped(pat: str) -> str:
    """``pat`` as a group that can join an alternation.

    Leading global flags such as ``(?m)`` become the group's own scoped
    flags, since an alternation cannot hold global flags after its start.
    """
    letters, pos = "", 0
    while m := _GLOBAL_FLAGS.match(pat, pos):
        letters, pos = letters + m[1], m.end()
    if not letters:
        return f"(?:{pat})"
    end = "\n)" if "x" in letters else ")"  # a newline ends a trailing verbose comment
    return f"(?{letters}:{pat[pos:]}{end}"


class CompiledFilter:
    """Compiled form of :class:`FilterConfig`, compiled once per run.

    One check per field: :meth:`ua_dropped`, :meth:`ip_dropped` and
    :meth:`asset_dropped`. They keep no memo; the chunked ingest pass
    calls each once per distinct value, and :meth:`drop_reason` combines
    them in precedence order for a single request. Every asset pattern
    is decided by ``re.search``. The ``--jobs`` helpers are ``os.fork``
    children, so each inherits the filter the run compiled.
    """

    def __init__(self, cfg: FilterConfig):
        self._ua_needles = tuple(s.lower() for s in cfg.useragent_blacklist)
        exact = set()
        nets = []
        for entry in cfg.ip_blacklist:
            if "/" in entry:
                try:
                    nets.append(ipaddress.ip_network(entry, strict=False))
                except ValueError as exc:
                    raise ValueError(f"bad IP blacklist entry {entry!r}") from exc
            else:
                exact.add(entry)
        self._ip_exact = frozenset(exact)
        self._ip_nets = tuple(nets)
        # a groupless pattern joins one of two searched alternations, by
        # whether it starts with "^": re lifts the "^" that every member of
        # the first shares, so its search tries only the start of the path.
        # Both are searched, so the split is for speed alone. A pattern with
        # groups is searched on its own, since group numbers and names
        # would collide in an alternation.
        caret, other, grouped = [], [], []
        for pat in cfg.drop_asset_patterns:
            try:
                compiled = re.compile(pat)
            except re.error as exc:
                raise ValueError(f"asset pattern {pat!r} does not compile") from exc
            if compiled.groups:
                grouped.append(compiled.search)
            else:
                (caret if pat.startswith("^") else other).append(_scoped(pat))
        joined = [re.compile("|".join(alts)).search for alts in (caret, other) if alts]
        self._asset_searches = tuple(joined + grouped)

    def ua_dropped(self, useragent: str) -> bool:
        """The user agent holds a blacklisted substring, case-insensitively."""
        low = useragent.lower()
        return any(needle in low for needle in self._ua_needles)

    def ip_dropped(self, ip: str) -> bool:
        """The IP is blacklisted exactly or lies in a blacklisted block."""
        if ip in self._ip_exact:
            return True
        if not self._ip_nets:
            return False
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return False
        return any(addr in net for net in self._ip_nets)

    def asset_dropped(self, path: str) -> bool:
        """The decoded path matches an asset pattern (``re.search`` semantics)."""
        for search in self._asset_searches:
            if search(path) is not None:
                return True
        return False

    def drop_reason(self, useragent: str, ip: str, path: str) -> str | None:
        """Return "useragent" / "ip" / "asset" for dropped traffic, else None.

        The single-request form of the chunked ingest route's precedence:
        that route runs the three checks over a chunk's distinct values
        itself, so nothing in the package calls this method.
        """
        if self.ua_dropped(useragent):
            return "useragent"
        if self.ip_dropped(ip):
            return "ip"
        if self.asset_dropped(path):
            return "asset"
        return None


def load_list_file(path: str | Path) -> list[str]:
    """Read one entry per line; blank lines and ``#`` comments are skipped."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                entries.append(line)
    return entries


def default_filter_config() -> FilterConfig:
    """The blacklists shipped with the package."""
    return FilterConfig(
        useragent_blacklist=load_list_file(DEFAULT_UA_BLACKLIST),
        ip_blacklist=load_list_file(DEFAULT_IP_BLACKLIST),
        drop_asset_patterns=load_list_file(DEFAULT_ASSET_PATTERNS),
    )


def _text_lines(raw: BinaryIO) -> io.TextIOWrapper:
    """The lines of a binary stream, decoded as UTF-8 with replacement.

    Lines end at LF only, on every ingest route, so CR, form feed and the
    Unicode line separators stay inside a line. The grammar's trailing
    whitespace absorbs the CR of a CRLF ending.
    """
    return io.TextIOWrapper(raw, encoding="utf-8", errors="replace", newline="\n")


def open_log(path: str | Path) -> io.TextIOWrapper:
    """Open a plain or gzip-compressed log file for reading lines, as :func:`_text_lines` reads."""
    path = str(path)
    return _text_lines(gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb"))

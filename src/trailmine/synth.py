"""Seeded synthetic access-log generator with ground-truth bookkeeping.

Emits Apache combined-format lines that parse and map back exactly to
the label sequences it generated, so the whole pipeline can be verified
end to end without real traffic. Users are drawn from behavior
archetypes: either a first-order chain over the action vocabulary or a
fixed per-session label template. Two default archetypes replay the
same labels in cyclic versus block order, which gives them identical
page-view vectors but clearly different fitted stationary vectors; that
contrast is what the stationary-versus-pageview validation leans on.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import quote

import numpy as np

from .actions import ActionVocabulary, RuleSet, default_ruleset
from .logs import _MONTH_NAMES

__all__ = [
    "VocabularyMismatch",
    "ArchetypeSpec",
    "GroundTruth",
    "UserTruth",
    "generate_synthetic_log",
    "default_archetypes",
    "load_archetypes_json",
    "HUMAN_USERAGENTS",
    "BOT_USERAGENTS",
]


class VocabularyMismatch(ValueError):
    """Archetype state space does not line up with the ruleset vocabulary."""


@dataclass
class ArchetypeSpec:
    """One behavior archetype.

    ``transition_profile`` is the archetype's true chain (row-stochastic
    over the full vocabulary; rows of states the archetype never leaves
    from may be zero). When ``session_template`` is set, sessions replay
    that label pattern verbatim instead of sampling the chain; the
    profile then documents the pattern's transition frequencies.

    ``session_length`` and ``sessions_per_user`` are distributions given
    as ("constant", k), ("uniform", lo, hi) or ("geometric", mean).
    ``resource_affinity`` weights the ontology acronym drawn per session.
    """

    name: str
    transition_profile: np.ndarray
    session_length: tuple = ("geometric", 10.0)
    sessions_per_user: tuple = ("constant", 2)
    resource_affinity: dict[str, float] = field(default_factory=dict)
    start_distribution: np.ndarray | None = None
    session_template: list[int] | None = None


@dataclass
class UserTruth:
    """What the generator actually emitted for one user."""

    archetype: int
    sequence: list[int]          # BREAK-joined label sequence
    session_lengths: list[int]
    action_count: int            # non-BREAK tokens
    resources: dict[str, int]    # acronym -> attributed action count


@dataclass
class GroundTruth:
    """Everything one generator call emitted; ``truth.json`` holds these fields in this order."""

    archetype_names: list[str]
    seed: int
    human_lines: int
    bot_lines: int
    per_resource: dict[str, int]
    users: dict[str, UserTruth]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh)

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["users"] = {ip: UserTruth(**u) for ip, u in payload["users"].items()}
        return cls(**payload)


HUMAN_USERAGENTS = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/52.0 Safari/537.36",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_11) AppleWebKit/601.7 (KHTML, like Gecko) Version/9.1 Safari/601.7",
    "Mozilla/5.0 (X11; Linux x86_64; rv:45.0) Gecko/20100101 Firefox/45.0",
    "Mozilla/5.0 (Windows NT 6.1; WOW64; Trident/7.0; rv:11.0) like Gecko",
)

BOT_USERAGENTS = (
    "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
    "Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)",
    "Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)",
    "python-requests/2.9.1",
    "curl/7.47.0",
)

_BOT_PATHS = (
    "/robots.txt",
    "/",
    "/ontologies",
    "/ontologies/SNOMEDCT",
    "/favicon.ico",
    "/assets/site.css",
    "/search",
)

# per-label path emitters; {acr} is the ontology acronym, {k} a numeric id
_PATH_TEMPLATES = {
    "Browse Main Page": ("GET", "/"),
    "Browse Ontologies": ("GET", "/ontologies"),
    "Browse Search": ("GET", "/search"),
    "Browse Help": ("GET", "/help"),
    "Browse Mappings": ("GET", "/mappings"),
    "Browse Recommender": ("GET", "/recommender"),
    "Browse Annotator": ("GET", "/annotator"),
    "Browse Resource Index": ("GET", "/resource_index"),
    "Browse Projects": ("GET", "/projects"),
    "Browse Notes": ("GET", "/notes"),
    "Ontology Summary": ("GET", "/ontologies/{acr}"),
    "Browse Ontology Classes": ("GET", "/ontologies/{acr}/classes"),
    "Browse Ontology Class": ("GET", "/ontologies/{acr}/classes/C{k}"),
    "Browse Ontology Class Tree": ("GET", "/ontologies/{acr}/tree"),
    "Browse Ontology Mappings": ("GET", "/ontologies/{acr}/mappings"),
    "Ontology Analytics": ("GET", "/ontologies/{acr}/analytics"),
    "Browse Ontology Widgets": ("GET", "/ontologies/{acr}/widgets"),
    "Browse Ontology Visualization": ("GET", "/ontologies/{acr}/visualize"),
    "Browse Ontology Notes": ("GET", "/ontologies/{acr}/notes"),
    "Browse Ontology Properties": ("GET", "/ontologies/{acr}/properties"),
    "Browse Widgets": ("GET", "/widgets"),
    "Browse Ontology Property Tree": ("GET", "/ontologies/{acr}/properties/tree"),
    "Browse Class Notes": ("GET", "/ontologies/{acr}/notes/N{k}"),
    "Create Ontology Submission": ("GET", "/ontologies/{acr}/submissions/new"),
    "Validate Ontology File": ("GET", "/validator"),
    "Virtual Appliance Download": ("GET", "/virtual_appliance"),
    "Browse Ontology Submission": ("GET", "/ontologies/{acr}/submissions"),
    "Login": ("GET", "/login"),
    "Log-Out": ("GET", "/logout"),
    "Sign-Up": ("GET", "/accounts/new"),
    "Lost Password": ("GET", "/lost_pass"),
    "Browse Account": ("GET", "/accounts"),
    "Feedback": ("GET", "/feedback"),
}

_WINDOW_START = int(datetime(2016, 1, 1, tzinfo=timezone.utc).timestamp())
_WINDOW_DAYS = 30
INTRA_GAP = (5, 120)       # seconds between requests inside a session
INTER_GAP = (1900, 7200)   # seconds between sessions, always above 30 min
# per-label integer draws [gap, k, size]: gap before the label, {k} in its
# path, response size
_LABEL_LOWS = np.array([INTRA_GAP[0], 1, 200], dtype=np.int64)
_LABEL_HIGHS = np.array([INTRA_GAP[1], 100000, 6000], dtype=np.int64)


def _draw(dist: tuple, rng: np.random.Generator) -> int:
    kind = dist[0]
    if kind == "constant":
        return int(dist[1])
    if kind == "uniform":
        return int(rng.integers(int(dist[1]), int(dist[2]) + 1))
    if kind == "geometric":
        mean = float(dist[1])
        if mean < 1.0:
            raise ValueError("geometric mean must be >= 1")
        return int(rng.geometric(1.0 / mean))
    raise ValueError(f"unknown distribution {dist!r}")


def _check_archetype(spec: ArchetypeSpec, vocab: ActionVocabulary) -> None:
    profile = np.asarray(spec.transition_profile, dtype=np.float64)
    if profile.shape != (vocab.n, vocab.n):
        raise VocabularyMismatch(
            f"archetype {spec.name!r}: profile is {profile.shape}, vocabulary has {vocab.n} states"
        )
    rowsums = profile.sum(axis=1)
    live = rowsums > 0
    if not np.allclose(rowsums[live], 1.0, atol=1e-9):
        raise VocabularyMismatch(f"archetype {spec.name!r}: live rows must sum to 1")
    if spec.session_template is not None:
        for lab in spec.session_template:
            if not 0 <= lab < vocab.n:
                raise VocabularyMismatch(
                    f"archetype {spec.name!r}: template label {lab} outside vocabulary"
                )
    elif not live.any():
        raise VocabularyMismatch(
            f"archetype {spec.name!r}: chain has no live rows and no template"
        )


def _verify_paths(ruleset: RuleSet) -> dict[int, tuple[str, str]]:
    """Check every emitted path maps back to its intended label."""
    vocab = ruleset.vocabulary
    emitters: dict[int, tuple[str, str]] = {}
    for label in vocab:
        if label.name == "BREAK":
            continue
        if label.name not in _PATH_TEMPLATES:
            raise VocabularyMismatch(f"no path template for label {label.name!r}")
        method, template = _PATH_TEMPLATES[label.name]
        probe = template.format(acr="PROBE", k=7)
        hit = ruleset.match(method, probe)
        if hit is None or hit[0] != label.id:
            got = vocab[hit[0]].name if hit else None
            raise VocabularyMismatch(
                f"path {probe!r} maps to {got!r}, expected {label.name!r}"
            )
        emitters[label.id] = (method, template)
    return emitters


def _cdf(p: np.ndarray) -> list[float]:
    """The CDF ``Generator.choice(len(p), p=p)`` searches with ``rng.random()``.

    ``bisect_right(cdf, rng.random())`` then draws what ``choice`` draws,
    consuming the same single double from the stream.
    """
    if not (p >= 0).all():
        raise ValueError("probabilities must be finite and non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass
class _DrawTable:
    """One archetype's categorical draws, built once per generator call.

    ``rows[i]`` is the CDF of transition row ``i``, or ``None`` for a row
    that sums to 0 (a chain stops there). ``start`` is ``None`` for a
    template archetype, which draws no labels.
    """

    spec: ArchetypeSpec
    resources: list[str]
    resource_cdf: list[float]
    start: list[float] | None
    rows: list[list[float] | None]

    @classmethod
    def build(cls, spec: ArchetypeSpec) -> "_DrawTable":
        resources = sorted(spec.resource_affinity) or ["MISC"]
        weights = np.array(
            [spec.resource_affinity.get(rname, 1.0) for rname in resources], dtype=np.float64
        )
        resource_cdf = _cdf(weights / weights.sum())
        if spec.session_template is not None:
            return cls(spec, resources, resource_cdf, None, [])
        profile = np.asarray(spec.transition_profile, dtype=np.float64)
        if spec.start_distribution is not None:
            start_p = np.asarray(spec.start_distribution, dtype=np.float64)
        else:
            # start from the profile's stationary-ish row mass
            start_p = profile.sum(axis=0)
        rows = []
        for row in profile:
            total = row.sum()
            rows.append(_cdf(row / total) if total > 0 else None)
        return cls(spec, resources, resource_cdf, _cdf(start_p / start_p.sum()), rows)

    def session_labels(self, rng: np.random.Generator) -> list[int]:
        """One session's labels, drawn as ``rng.choice`` over the chain would draw them."""
        if self.start is None:
            return list(self.spec.session_template)
        length = max(1, _draw(self.spec.session_length, rng))
        random = rng.random
        state = bisect_right(self.start, random())
        labels = [state]
        rows = self.rows
        for _ in range(length - 1):
            cdf = rows[state]
            if cdf is None:
                break
            state = bisect_right(cdf, random())
            labels.append(state)
        return labels


_TWO_DIGITS = tuple(f"{i:02d}" for i in range(60))


def _clf_stamp(ts: int, days: dict[int, str]) -> str:
    """``dd/Mon/YYYY:HH:MM:SS +0000`` for epoch ``ts``; ``days`` caches each UTC day's date part."""
    day, sec = divmod(ts, 86400)
    date = days.get(day)
    if date is None:
        d = datetime.fromtimestamp(day * 86400, tz=timezone.utc)
        date = days[day] = f"{d.day:02d}/{_MONTH_NAMES[d.month - 1]}/{d.year:04d}:"
    return f"{date}{_TWO_DIGITS[sec // 3600]}:{_TWO_DIGITS[sec // 60 % 60]}:{_TWO_DIGITS[sec % 60]} +0000"


def generate_synthetic_log(
    archetypes: list[ArchetypeSpec],
    users_per_archetype: int,
    seed: int = 0,
    bot_fraction: float = 0.0,
    path: str | Path | None = None,
    ruleset: RuleSet | None = None,
) -> tuple[list[str], GroundTruth]:
    """Generate a combined-format log plus its ground truth.

    Deterministic for a fixed seed (byte-identical output). Lines are
    interleaved across users in timestamp order; intra-session gaps stay
    below 30 minutes and inter-session gaps above it. Bot lines carry
    blacklisted user agents and make up ``bot_fraction`` of all lines.
    When ``path`` is given the lines are also written there (gzip when
    the name ends in .gz, with a zero header time so the bytes repeat).

    Each line is the one ``logs.format_log_line`` renders for its
    request, built here from cached parts. Per session, the integer
    draws ``[k, size, (gap, k, size)...]`` come from one array-bounded
    ``rng.integers`` call, which draws element by element through the
    same bounded routine as the scalar calls, so the stream is consumed
    in the order of one scalar draw per value.
    """
    if users_per_archetype < 0:
        raise ValueError(f"users_per_archetype must be >= 0, got {users_per_archetype}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= bot_fraction < 1.0:
        raise ValueError("bot_fraction must lie in [0, 1)")
    rs = ruleset or default_ruleset()
    vocab = rs.vocabulary
    for spec in archetypes:
        _check_archetype(spec, vocab)
    emitters = _verify_paths(rs)
    break_id = vocab.break_id
    split_templates = {lab: template.split("{k}") for lab, (_, template) in emitters.items()}
    has_acr = {lab: "{acr}" in template for lab, (_, template) in emitters.items()}

    rng = np.random.default_rng(seed)
    entries: list[tuple[int, int, int, str]] = []  # (ts, stream, seq, line)
    users: dict[str, UserTruth] = {}
    per_resource: dict[str, int] = {}
    stream = 0
    days: dict[int, str] = {}
    targets: dict[tuple[int, str], list[str]] = {}  # quoted request parts, split at {k}
    # bounds of [gap, k, size] per label; a session draws [1 : 3 * len(labels)]
    lows = np.empty(0, dtype=np.int64)
    highs = lows

    for ai, spec in enumerate(archetypes):
        table = _DrawTable.build(spec)
        resources, resource_cdf = table.resources, table.resource_cdf
        for u in range(users_per_archetype):
            ip = f"10.{ai + 1}.{u // 250}.{u % 250 + 1}"
            ua = HUMAN_USERAGENTS[int(rng.integers(len(HUMAN_USERAGENTS)))]
            head = f"{ip} - - ["
            tail = f' "-" "{ua}"'
            n_sessions = max(1, _draw(spec.sessions_per_user, rng))
            ts = _WINDOW_START + int(rng.integers(0, _WINDOW_DAYS * 86400))
            sequence: list[int] = []
            session_lengths: list[int] = []
            truth_resources: dict[str, int] = {}
            seq_no = 0
            stream += 1
            for s in range(n_sessions):
                if s:
                    ts += int(rng.integers(*INTER_GAP))
                    sequence.append(break_id)
                acr = resources[bisect_right(resource_cdf, rng.random())]
                labels = table.session_labels(rng)
                n = len(labels)
                session_lengths.append(n)
                if 3 * n > len(lows):
                    lows = np.tile(_LABEL_LOWS, 2 * n)
                    highs = np.tile(_LABEL_HIGHS, 2 * n)
                draws = rng.integers(lows[1 : 3 * n], highs[1 : 3 * n]).tolist()
                draws.insert(0, 0)  # the first label follows no intra-session gap
                acr_hits = 0
                for lab, gap, k, size in zip(labels, draws[0::3], draws[1::3], draws[2::3]):
                    ts += gap
                    parts = targets.get((lab, acr))
                    if parts is None:
                        method = emitters[lab][0]
                        parts = [quote(part.format(acr=acr), safe="/") for part in split_templates[lab]]
                        parts[0] = f'"{method} {parts[0]}'
                        parts[-1] += ' HTTP/1.1" 200 '
                        targets[(lab, acr)] = parts
                    entries.append((
                        ts, stream, seq_no,
                        f"{head}{_clf_stamp(ts, days)}] {str(k).join(parts)}{size}{tail}",
                    ))
                    seq_no += 1
                    acr_hits += has_acr[lab]
                sequence.extend(labels)
                if acr_hits:
                    truth_resources[acr] = truth_resources.get(acr, 0) + acr_hits
            users[ip] = UserTruth(
                archetype=ai,
                sequence=sequence,
                session_lengths=session_lengths,
                action_count=len(sequence) - sequence.count(break_id),
                resources=truth_resources,
            )
            for acr, cnt in truth_resources.items():
                per_resource[acr] = per_resource.get(acr, 0) + cnt

    human_lines = len(entries)
    n_bots = int(round(human_lines * bot_fraction / (1.0 - bot_fraction))) if bot_fraction else 0
    bot_draws = rng.integers(
        [0, 0, 0], [_WINDOW_DAYS * 86400, len(BOT_USERAGENTS), len(_BOT_PATHS)], size=(n_bots, 3)
    ).tolist()
    bot_targets = [quote(p, safe="/") for p in _BOT_PATHS]
    for b, (offset, ua_i, path_i) in enumerate(bot_draws):
        ts = _WINDOW_START + offset
        entries.append((
            ts, stream + 1 + b, 0,
            f'192.0.2.{b % 250 + 1} - - [{_clf_stamp(ts, days)}] "GET {bot_targets[path_i]} '
            f'HTTP/1.1" 200 256 "-" "{BOT_USERAGENTS[ua_i]}"',
        ))

    entries.sort()  # (ts, stream, seq) is unique, so line text is never compared
    lines = [e[3] for e in entries]
    truth = GroundTruth(
        archetype_names=[spec.name for spec in archetypes],
        users=users,
        per_resource=per_resource,
        human_lines=human_lines,
        bot_lines=n_bots,
        seed=seed,
    )
    if path is not None:
        path = Path(path)
        text = "".join(line + "\n" for line in lines)
        if str(path).endswith(".gz"):
            import gzip

            # a zero header time keeps the file a function of seed and path
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(text.encode("utf-8"))
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return lines, truth


_CLASS_PAGES = ["Ontology Summary", "Browse Ontology Classes", "Browse Ontology Class"]
_CLASS_SITES = {"CPT": 0.5, "SNOMEDCT": 0.3, "RXNORM": 0.2}

# the built-in archetypes, as items of the load_archetypes_json schema
_BUILT_IN = [
    {
        "name": "Main Page Visitors",
        "rows": {
            "Browse Main Page": {"Browse Main Page": 0.6, "Browse Ontologies": 0.25, "Browse Help": 0.15},
            "Browse Ontologies": {"Browse Main Page": 0.7, "Browse Ontologies": 0.3},
            "Browse Help": {"Browse Main Page": 0.8, "Browse Help": 0.2},
        },
        "start": "Browse Main Page",
        "session_length": ["geometric", 6.0],
    },
    {
        "name": "Ontology Overview Visitors",
        "rows": {
            "Browse Ontologies": {"Ontology Summary": 0.8, "Browse Ontologies": 0.2},
            "Ontology Summary": {"Ontology Summary": 0.5, "Browse Ontologies": 0.3, "Ontology Analytics": 0.2},
            "Ontology Analytics": {"Ontology Summary": 0.6, "Browse Ontologies": 0.4},
        },
        "start": "Browse Ontologies",
        "session_length": ["geometric", 9.0],
        "resource_affinity": {"NCIT": 0.4, "GO": 0.3, "MESH": 0.3},
    },
    {
        "name": "Class Explorers",
        "template": _CLASS_PAGES * 12,
        "session_length": ["constant", 36],
        "sessions_per_user": ["constant", 1],
        "resource_affinity": _CLASS_SITES,
    },
    {
        "name": "Specific Class Browsers",
        "template": [label for label in _CLASS_PAGES for _ in range(12)],
        "session_length": ["constant", 36],
        "sessions_per_user": ["constant", 1],
        "resource_affinity": _CLASS_SITES,
    },
    {
        "name": "Ontology Tree Explorers",
        "rows": {
            "Ontology Summary": {"Browse Ontology Class Tree": 0.7, "Browse Ontology Classes": 0.3},
            "Browse Ontology Class Tree": {"Browse Ontology Class Tree": 0.6, "Browse Ontology Class": 0.3, "Ontology Summary": 0.1},
            "Browse Ontology Class": {"Browse Ontology Class Tree": 0.7, "Browse Ontology Class": 0.3},
            "Browse Ontology Classes": {"Browse Ontology Class Tree": 0.8, "Browse Ontology Classes": 0.2},
        },
        "start": "Ontology Summary",
        "session_length": ["geometric", 20.0],
        "resource_affinity": {"CPT": 0.6, "GO": 0.4},
    },
    {
        "name": "Search Explorers",
        "rows": {
            "Browse Search": {"Browse Search": 0.45, "Browse Ontology Class": 0.55},
            "Browse Ontology Class": {"Browse Search": 0.75, "Browse Ontology Class": 0.25},
        },
        "start": "Browse Search",
        "session_length": ["geometric", 15.0],
        "sessions_per_user": ["constant", 3],
        "resource_affinity": {"RXNORM": 0.6, "MEDDRA": 0.4},
    },
    {
        "name": "BioPortal Experts",
        "rows": {
            "Browse Annotator": {"Browse Annotator": 0.5, "Browse Recommender": 0.3, "Browse Mappings": 0.2},
            "Browse Recommender": {"Browse Annotator": 0.4, "Browse Recommender": 0.3, "Browse Ontology Mappings": 0.3},
            "Browse Mappings": {"Browse Mappings": 0.4, "Browse Annotator": 0.4, "Browse Search": 0.2},
            "Browse Ontology Mappings": {"Browse Ontology Mappings": 0.5, "Browse Mappings": 0.5},
            "Browse Search": {"Browse Annotator": 0.6, "Browse Search": 0.4},
        },
        "start": "Browse Annotator",
        "session_length": ["geometric", 12.0],
        "resource_affinity": {"LOINC": 0.5, "NDFRT": 0.5},
    },
]


def _spec(vocab: ActionVocabulary, item: dict) -> ArchetypeSpec:
    """One archetype from its schema item (see :func:`load_archetypes_json`)."""
    name = item["name"]

    def label_id(label: str) -> int:
        if label not in vocab:
            raise VocabularyMismatch(f"archetype {name!r}: unknown label {label!r}")
        return vocab.id_of(label)

    profile = np.zeros((vocab.n, vocab.n))
    template = None
    if "template" in item:
        template = [label_id(label) for label in item["template"]]
        for a, b in zip(template[:-1], template[1:]):
            profile[a, b] += 1.0
        rowsums = profile.sum(axis=1, keepdims=True)
        np.divide(profile, rowsums, out=profile, where=rowsums > 0)
    elif "rows" in item:
        for src, targets in item["rows"].items():
            i = label_id(src)
            for dst, w in targets.items():
                profile[i, label_id(dst)] = w
            total = profile[i].sum()
            if not (np.isfinite(total) and total > 0 and (profile[i] >= 0).all()):
                raise VocabularyMismatch(
                    f"archetype {name!r}: row {src!r} needs finite weights >= 0 with a positive sum"
                )
            profile[i] /= total
    else:
        raise VocabularyMismatch(f"archetype {name!r}: needs 'rows' or 'template'")
    start = None
    if "start" in item:
        start = np.zeros(vocab.n)
        start[label_id(item["start"])] = 1.0
    return ArchetypeSpec(
        name=name,
        transition_profile=profile,
        session_length=tuple(item.get("session_length", ArchetypeSpec.session_length)),
        sessions_per_user=tuple(item.get("sessions_per_user", ArchetypeSpec.sessions_per_user)),
        resource_affinity=dict(item.get("resource_affinity", {})),
        start_distribution=start,
        session_template=template,
    )


def default_archetypes(vocabulary: ActionVocabulary | None = None) -> list[ArchetypeSpec]:
    """Seven archetypes shaped after the behavior types a repository sees.

    "Class Explorers" and "Specific Class Browsers" replay the same
    three labels with identical per-session counts, one cyclically and
    one in blocks, making them the order-only-distinct pair.
    """
    vocab = vocabulary or default_ruleset().vocabulary
    return [_spec(vocab, item) for item in _BUILT_IN]


def load_archetypes_json(path: str | Path, vocabulary: ActionVocabulary | None = None) -> list[ArchetypeSpec]:
    """Load archetypes from a JSON config; the built-in archetypes are written in this schema.

    Schema per archetype: name, rows (label -> {label: weight}) or
    template (list of label names), session_length, sessions_per_user
    (distribution arrays like ["geometric", 10]), resource_affinity,
    optional start label name. A label outside the vocabulary, an item
    with neither rows nor template, or a rows entry whose weights are not
    finite, are negative or sum to 0 raises :class:`VocabularyMismatch`
    naming the archetype.
    """
    vocab = vocabulary or default_ruleset().vocabulary
    with open(path, encoding="utf-8") as fh:
        return [_spec(vocab, item) for item in json.load(fh)]

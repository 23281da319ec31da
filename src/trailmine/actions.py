"""Mapping requests onto a finite action vocabulary.

An ordered list of ``VERB PATTERN => LABEL [@GROUP]`` rules assigns each
request one label from a 34-label vocabulary (33 interface actions plus
the BREAK control token inserted between sessions). Rules may capture
the ontology acronym for per-resource attribution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

__all__ = [
    "BadPattern",
    "UnknownLabel",
    "EmptyRuleset",
    "ActionLabel",
    "ActionVocabulary",
    "MappingRule",
    "RuleSet",
    "compile_ruleset",
    "compile_rules",
    "default_ruleset",
    "LABEL_CATALOG",
    "BREAK_NAME",
    "DEFAULT_RULES_FILE",
    "CATEGORY_MAIN_PAGE",
    "CATEGORY_ONTOLOGY_PAGE",
    "CATEGORY_EDIT_CONTENT",
    "CATEGORY_USER_ACCOUNT",
    "CATEGORY_CONTROL",
]

DEFAULT_RULES_FILE = Path(__file__).parent / "data" / "bioportal.rules"

CATEGORY_MAIN_PAGE = "MainPage"
CATEGORY_ONTOLOGY_PAGE = "OntologyPage"
CATEGORY_EDIT_CONTENT = "EditContent"
CATEGORY_USER_ACCOUNT = "UserAccount"
CATEGORY_CONTROL = "Control"

BREAK_NAME = "BREAK"

# Canonical label catalog: name -> category. Insertion order fixes the
# id order of any vocabulary induced from a rule file.
LABEL_CATALOG: dict[str, str] = {
    "Browse Main Page": CATEGORY_MAIN_PAGE,
    "Browse Ontologies": CATEGORY_MAIN_PAGE,
    "Browse Search": CATEGORY_MAIN_PAGE,
    "Browse Help": CATEGORY_MAIN_PAGE,
    "Browse Mappings": CATEGORY_MAIN_PAGE,
    "Browse Recommender": CATEGORY_MAIN_PAGE,
    "Browse Annotator": CATEGORY_MAIN_PAGE,
    "Browse Resource Index": CATEGORY_MAIN_PAGE,
    "Browse Projects": CATEGORY_MAIN_PAGE,
    "Browse Notes": CATEGORY_MAIN_PAGE,
    "Ontology Summary": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Classes": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Class": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Class Tree": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Mappings": CATEGORY_ONTOLOGY_PAGE,
    "Ontology Analytics": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Widgets": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Visualization": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Notes": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Properties": CATEGORY_ONTOLOGY_PAGE,
    "Browse Widgets": CATEGORY_ONTOLOGY_PAGE,
    "Browse Ontology Property Tree": CATEGORY_ONTOLOGY_PAGE,
    "Browse Class Notes": CATEGORY_ONTOLOGY_PAGE,
    "Create Ontology Submission": CATEGORY_EDIT_CONTENT,
    "Validate Ontology File": CATEGORY_EDIT_CONTENT,
    "Virtual Appliance Download": CATEGORY_EDIT_CONTENT,
    "Browse Ontology Submission": CATEGORY_EDIT_CONTENT,
    "Login": CATEGORY_USER_ACCOUNT,
    "Log-Out": CATEGORY_USER_ACCOUNT,
    "Sign-Up": CATEGORY_USER_ACCOUNT,
    "Lost Password": CATEGORY_USER_ACCOUNT,
    "Browse Account": CATEGORY_USER_ACCOUNT,
    "Feedback": CATEGORY_USER_ACCOUNT,
    BREAK_NAME: CATEGORY_CONTROL,
}


class BadPattern(ValueError):
    """A rule pattern failed to compile."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownLabel(ValueError):
    """A rule references a label missing from the catalog."""

    def __init__(self, line_no: int, name: str):
        super().__init__(f"line {line_no}: unknown label {name!r}")
        self.line_no = line_no
        self.name = name


class EmptyRuleset(ValueError):
    """The rule file contains no rules."""


@dataclass(frozen=True, slots=True)
class ActionLabel:
    id: int
    name: str
    category: str


class ActionVocabulary:
    """Dense, ordered label set; the Markov chain state space."""

    def __init__(self, labels: Iterable[ActionLabel]):
        self.labels = tuple(labels)
        self._by_name = {lab.name: lab for lab in self.labels}
        breaks = [lab for lab in self.labels if lab.category == CATEGORY_CONTROL]
        if len(breaks) != 1 or breaks[0].name != BREAK_NAME:
            raise ValueError("vocabulary must contain exactly one BREAK label")
        self.break_id = breaks[0].id
        if [lab.id for lab in self.labels] != list(range(len(self.labels))):
            raise ValueError("label ids must be dense and ordered")

    @property
    def n(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, label_id: int) -> ActionLabel:
        return self.labels[label_id]

    def __iter__(self):
        return iter(self.labels)

    def names(self) -> list[str]:
        return [lab.name for lab in self.labels]

    def id_of(self, name: str) -> int:
        return self._by_name[name].id

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True, slots=True)
class MappingRule:
    method: str | None          # None matches any verb
    pattern: re.Pattern
    label: int
    ontology_group: int | None
    priority: int


# A pattern is bucketable when it can only match paths whose first
# segment equals a fixed literal: "^/seg$", "^/seg/...", "^/seg/?$",
# or "^/seg(?:/...". The literal holds no regex metacharacter ("." would
# match any character). Everything else goes to the generic list.
_SEGMENT_RE = re.compile(r"^\^/([A-Za-z0-9_\-~]+)(?:\$$|/|\(\?:/)")


def _literal_segment(pattern_source: str) -> str | None:
    if pattern_source in ("^/$", "^/?$"):
        return ""
    m = _SEGMENT_RE.match(pattern_source)
    return m.group(1) if m else None


class RuleSet:
    """Compiled rules plus the vocabulary they induce.

    Immutable after construction; rule lookup is first-match-wins in
    file order. Rules are pre-bucketed by the literal first path segment
    so a request only tries the handful of rules that can match it.
    """

    def __init__(self, rules: Iterable[MappingRule], vocabulary: ActionVocabulary):
        self.rules = tuple(rules)
        self.vocabulary = vocabulary
        generic = [r for r in self.rules if _literal_segment(r.pattern.pattern) is None]
        buckets: dict[str, list[MappingRule]] = {}
        for rule in self.rules:
            seg = _literal_segment(rule.pattern.pattern)
            if seg is not None:
                buckets.setdefault(seg, []).append(rule)
        self._generic = tuple(generic)
        self._buckets = {
            seg: tuple(sorted(members + generic, key=lambda r: r.priority))
            for seg, members in buckets.items()
        }

    def __len__(self) -> int:
        return len(self.rules)

    def match(self, method: str, path: str) -> tuple[int, str | None] | None:
        """Return (label_id, ontology_acronym) of the first matching rule."""
        cut = path.find("/", 1)
        # "$" also matches before a final newline, so "/seg\n" is tried on seg's bucket
        seg = path[1:cut] if cut > 0 else path[1:].removesuffix("\n")
        for rule in self._buckets.get(seg, self._generic):
            if rule.method is not None and rule.method != method:
                continue
            m = rule.pattern.match(path)
            if m is not None:
                onto = m.group(rule.ontology_group) if rule.ontology_group else None
                return rule.label, onto
        return None


def _induce_vocabulary(referenced: set[str]) -> ActionVocabulary:
    referenced = set(referenced) | {BREAK_NAME}
    ordered = [name for name in LABEL_CATALOG if name in referenced]
    return ActionVocabulary(
        ActionLabel(i, name, LABEL_CATALOG[name]) for i, name in enumerate(ordered)
    )


def compile_rules(lines: Iterable[str]) -> RuleSet:
    """Compile rule lines into a :class:`RuleSet`.

    Raises :class:`BadPattern`, :class:`UnknownLabel` or
    :class:`EmptyRuleset`; line numbers are 1-based.
    """
    parsed: list[tuple[int, str | None, re.Pattern, str, int | None]] = []
    referenced: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " => " not in line:
            raise BadPattern(line_no, f"missing '=>' separator in {line!r}")
        left, right = line.split(" => ", 1)
        left_parts = left.split(None, 1)
        if len(left_parts) != 2:
            raise BadPattern(line_no, f"expected 'VERB PATTERN' before '=>' in {line!r}")
        verb_token, pattern_src = left_parts
        method = None if verb_token == "*" else verb_token.upper()
        try:
            pattern = re.compile(pattern_src)
        except re.error as exc:
            raise BadPattern(line_no, f"{pattern_src!r}: {exc}") from exc
        label_name = right.strip()
        group: int | None = None
        gm = re.search(r"\s@(\d+)$", label_name)
        if gm:
            group = int(gm.group(1))
            label_name = label_name[: gm.start()].strip()
            if group < 1 or group > pattern.groups:
                raise BadPattern(line_no, f"@{group} exceeds capture groups of {pattern_src!r}")
        if label_name not in LABEL_CATALOG:
            raise UnknownLabel(line_no, label_name)
        if label_name == BREAK_NAME:
            raise BadPattern(line_no, "BREAK is a control token, not a mappable action")
        referenced.add(label_name)
        parsed.append((line_no, method, pattern, label_name, group))
    if not parsed:
        raise EmptyRuleset("no rules found")
    vocab = _induce_vocabulary(referenced)
    rules = [
        MappingRule(method, pattern, vocab.id_of(name), group, priority)
        for priority, (_, method, pattern, name, group) in enumerate(parsed)
    ]
    return RuleSet(rules, vocab)


def compile_ruleset(rules_file: str | Path) -> RuleSet:
    """Compile a rule file (see the shipped ``bioportal.rules`` for the grammar)."""
    with open(rules_file, encoding="utf-8") as fh:
        return compile_rules(fh)


def default_ruleset() -> RuleSet:
    """The shipped BioPortal-style ruleset; induces the full 34-label vocabulary."""
    return compile_ruleset(DEFAULT_RULES_FILE)


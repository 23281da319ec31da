import pytest

from trailmine.actions import (
    BREAK_NAME,
    CATEGORY_CONTROL,
    LABEL_CATALOG,
    BadPattern,
    EmptyRuleset,
    UnknownLabel,
    compile_rules,
    compile_ruleset,
)
from trailmine.logs import parse_log_line

# one witness path per label of the default ruleset (method, path)
WITNESSES = {
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
    "Ontology Summary": ("GET", "/ontologies/MCCV"),
    "Browse Ontology Classes": ("GET", "/ontologies/MCCV/classes"),
    "Browse Ontology Class": ("GET", "/ontologies/MCCV/classes/C73542"),
    "Browse Ontology Class Tree": ("GET", "/ontologies/MCCV/tree"),
    "Browse Ontology Mappings": ("GET", "/ontologies/MCCV/mappings"),
    "Ontology Analytics": ("GET", "/ontologies/MCCV/analytics"),
    "Browse Ontology Widgets": ("GET", "/ontologies/MCCV/widgets"),
    "Browse Ontology Visualization": ("GET", "/ontologies/MCCV/visualize"),
    "Browse Ontology Notes": ("GET", "/ontologies/MCCV/notes"),
    "Browse Ontology Properties": ("GET", "/ontologies/MCCV/properties"),
    "Browse Widgets": ("GET", "/widgets"),
    "Browse Ontology Property Tree": ("GET", "/ontologies/MCCV/properties/tree"),
    "Browse Class Notes": ("GET", "/ontologies/MCCV/notes/N1"),
    "Create Ontology Submission": ("GET", "/ontologies/MCCV/submissions/new"),
    "Validate Ontology File": ("GET", "/validator"),
    "Virtual Appliance Download": ("GET", "/virtual_appliance"),
    "Browse Ontology Submission": ("GET", "/ontologies/MCCV/submissions"),
    "Login": ("POST", "/login"),
    "Log-Out": ("GET", "/logout"),
    "Sign-Up": ("GET", "/accounts/new"),
    "Lost Password": ("GET", "/lost_pass"),
    "Browse Account": ("GET", "/accounts"),
    "Feedback": ("GET", "/feedback"),
}


def test_default_vocabulary_has_34_labels(ruleset):
    vocab = ruleset.vocabulary
    assert vocab.n == 34
    controls = [lab for lab in vocab if lab.category == CATEGORY_CONTROL]
    assert [lab.name for lab in controls] == [BREAK_NAME]
    assert [lab.id for lab in vocab] == list(range(34))


def test_catalog_and_witnesses_align():
    assert set(WITNESSES) == set(LABEL_CATALOG) - {BREAK_NAME}


def test_every_label_has_a_producing_rule(ruleset):
    for name, (method, path) in WITNESSES.items():
        hit = ruleset.match(method, path)
        assert hit is not None, f"no rule matches witness for {name}"
        assert ruleset.vocabulary[hit[0]].name == name


def test_worked_example_mappings(ruleset):
    vocab = ruleset.vocabulary
    assert vocab[ruleset.match("GET", "/")[0]].name == "Browse Main Page"
    assert vocab[ruleset.match("POST", "/login")[0]].name == "Login"
    hit = ruleset.match("GET", "/ontologies/MCCV/submissions/new")
    assert vocab[hit[0]].name == "Create Ontology Submission"
    assert hit[1] == "MCCV"
    assert ruleset.match("GET", "/favicon.ico") is None


def test_first_match_equals_brute_force(ruleset):
    """The segment-bucketed lookup must agree with a naive priority scan."""

    def naive(rules, method, path):
        for rule in rules.rules:
            if rule.method is not None and rule.method != method:
                continue
            m = rule.pattern.match(path)
            if m:
                onto = m.group(rule.ontology_group) if rule.ontology_group else None
                return rule.label, onto
        return None

    probes = [w for w in WITNESSES.values()]
    probes += [
        ("GET", "/ontologies/success/MCCV"),
        ("POST", "/ontologies/MCCV/submissions"),
        ("GET", "/ontologies/MCCV/submissions"),
        ("GET", "/ontologies/"),
        ("GET", "/ontologies/MCCV/"),
        ("GET", "/ontologies/MCCV/classes/"),
        ("GET", "/unknown/path"),
        ("GET", "/searchlight"),
        ("GET", "/login/extra"),
        ("HEAD", "/"),
        ("POST", "/feedback"),
        ("GET", "/ontologies/MCCV/properties/tree/deep"),
        ("GET", "/ontologies/MCCV/notes/"),
        ("GET", "/search\n"),  # "$" matches before a final newline
        ("GET", "/\n"),
        ("GET", "/search\n\n"),
    ]
    # a "." in a first segment is a regex wildcard, so those rules cannot be bucketed
    dotted = compile_rules([
        "GET ^/sitemap.xml$ => Browse Help",
        "GET ^/search.json(?:/.*)?$ => Browse Search",
        "GET ^/sitemapXxml$ => Login",
        "GET ^/search/ => Browse Ontologies",
        "* ^/.+$ => Feedback",
    ])
    dotted_probes = [("GET", p) for p in ("/sitemap.xml", "/sitemapXxml", "/sitemapXxml\n", "/search.json",
                                          "/searchXjson/a", "/search/x", "/other", "/sitemap.xmlx")]
    for rules, cases in ((ruleset, probes), (dotted, dotted_probes)):
        for method, path in cases:
            assert rules.match(method, path) == naive(rules, method, path), (method, path)


def test_method_constraint(ruleset):
    vocab = ruleset.vocabulary
    assert vocab[ruleset.match("POST", "/ontologies/MCCV/submissions")[0]].name == (
        "Create Ontology Submission"
    )
    assert vocab[ruleset.match("GET", "/ontologies/MCCV/submissions")[0]].name == (
        "Browse Ontology Submission"
    )


def test_determinism(ruleset):
    results = {ruleset.match("GET", "/ontologies/CPT/classes/C1") for _ in range(50)}
    assert len(results) == 1


def test_minimal_ruleset():
    rs = compile_rules(["GET ^/$ => Browse Main Page"])
    assert len(rs.rules) == 1
    assert rs.vocabulary.names() == ["Browse Main Page", BREAK_NAME]
    assert rs.match("GET", "/") == (0, None)
    assert rs.match("POST", "/") is None


def test_bad_pattern_line_number():
    with pytest.raises(BadPattern) as exc:
        compile_rules(["# comment", "GET ([ => Login"])
    assert exc.value.line_no == 2


def test_unknown_label():
    with pytest.raises(UnknownLabel) as exc:
        compile_rules(["GET ^/$ => No Such Action"])
    assert exc.value.name == "No Such Action"


def test_group_index_out_of_range():
    with pytest.raises(BadPattern):
        compile_rules(["GET ^/x$ => Login @2"])


def test_break_not_mappable():
    with pytest.raises(BadPattern):
        compile_rules([f"GET ^/$ => {BREAK_NAME}"])


def test_empty_ruleset(tmp_path):
    path = tmp_path / "empty.rules"
    path.write_text("# nothing here\n\n", encoding="utf-8")
    with pytest.raises(EmptyRuleset):
        compile_ruleset(path)


def test_map_request_api(ruleset):
    record = parse_log_line(
        '1.2.3.4 - - [14/Mar/2016:09:08:04 -0700] "GET /ontologies/MCCV HTTP/1.1" 200 1 "-" "ua"'
    )
    label, onto = ruleset.match(record.method, record.path)
    assert (ruleset.vocabulary[label].name, onto) == ("Ontology Summary", "MCCV")
    unmapped = parse_log_line(
        '1.2.3.4 - - [14/Mar/2016:09:08:04 -0700] "GET /no/rule/for/this HTTP/1.1" 200 1 "-" "ua"'
    )
    assert ruleset.match(unmapped.method, unmapped.path) is None

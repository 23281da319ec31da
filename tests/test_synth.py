import dataclasses
import gzip
import hashlib
import json
import re

import numpy as np
import pytest
from testutil import reference_generate_synthetic_log

from trailmine.actions import default_ruleset
from trailmine.logs import format_log_line, parse_log_line
from trailmine.pipeline import ingest_paths
from trailmine.synth import (
    ArchetypeSpec,
    GroundTruth,
    UserTruth,
    VocabularyMismatch,
    default_archetypes,
    generate_synthetic_log,
    load_archetypes_json,
)


def test_same_seed_is_byte_identical():
    arch = default_archetypes()
    lines1, _ = generate_synthetic_log(arch, 10, seed=5, bot_fraction=0.1)
    lines2, _ = generate_synthetic_log(arch, 10, seed=5, bot_fraction=0.1)
    assert lines1 == lines2
    lines3, _ = generate_synthetic_log(arch, 10, seed=6, bot_fraction=0.1)
    assert lines1 != lines3


def test_timestamps_sorted_and_parseable(vocab):
    lines, truth = generate_synthetic_log(default_archetypes(), 8, seed=2, bot_fraction=0.15)
    records = [parse_log_line(line) for line in lines]  # every line parses
    ts = [r.epoch for r in records]
    assert ts == sorted(ts)


def test_bot_fraction_and_filter_ground_truth(tmp_path):
    log = tmp_path / "synth.log"
    lines, truth = generate_synthetic_log(default_archetypes(), 12, seed=9, bot_fraction=0.3, path=log)
    assert truth.bot_lines == round(truth.human_lines * 0.3 / 0.7)
    _, stats = ingest_paths([log])
    assert (stats.lines, stats.malformed) == (len(lines), 0)
    assert stats.filtered == truth.human_lines


def test_session_gap_contract():
    _, truth = generate_synthetic_log(default_archetypes(), 6, seed=4)
    break_id = default_ruleset().vocabulary.break_id
    # session lengths in the ground truth must match the BREAK structure
    for ut in truth.users.values():
        breaks = ut.sequence.count(break_id)
        assert breaks == len(ut.session_lengths) - 1
        assert sum(ut.session_lengths) + breaks == len(ut.sequence)


def test_resource_tallies_consistent():
    _, truth = generate_synthetic_log(default_archetypes(), 10, seed=8)
    recount: dict[str, int] = {}
    for ut in truth.users.values():
        for res, c in ut.resources.items():
            recount[res] = recount.get(res, 0) + c
    assert recount == truth.per_resource


def test_empirical_transitions_converge_to_profile(vocab):
    # chain archetype: pooled intra-session transition frequencies vs profile
    arch = default_archetypes()
    search = next(a for a in arch if a.name == "Search Explorers")
    _, truth = generate_synthetic_log([search], 260, seed=13)
    n = vocab.n
    counts = np.zeros((n, n))
    for ut in truth.users.values():
        seq = ut.sequence
        for a, b in zip(seq[:-1], seq[1:]):
            if a != vocab.break_id and b != vocab.break_id:
                counts[a, b] += 1
    assert counts.sum() >= 10_000
    profile = search.transition_profile
    for i in range(n):
        row_total = counts[i].sum()
        if row_total < 500:
            continue
        emp = counts[i] / row_total
        assert np.abs(emp - profile[i]).sum() <= 0.05, vocab[i].name


def test_template_archetypes_replay_exactly(vocab):
    arch = default_archetypes()
    cyc = next(a for a in arch if a.name == "Class Explorers")
    blk = next(a for a in arch if a.name == "Specific Class Browsers")
    _, truth = generate_synthetic_log([cyc, blk], 4, seed=3)
    for ut in truth.users.values():
        template = (cyc if ut.archetype == 0 else blk).session_template
        assert ut.sequence == template
    # identical page views, different order
    assert sorted(cyc.session_template) == sorted(blk.session_template)
    assert cyc.session_template != blk.session_template


def test_self_loop_archetype_concentrates():
    vocab = default_ruleset().vocabulary
    sid = vocab.id_of("Browse Search")
    profile = np.zeros((vocab.n, vocab.n))
    profile[sid, sid] = 1.0
    start = np.zeros(vocab.n)
    start[sid] = 1.0
    spec = ArchetypeSpec(
        name="searcher",
        transition_profile=profile,
        session_length=("geometric", 50.0),
        sessions_per_user=("constant", 2),
        start_distribution=start,
    )
    _, truth = generate_synthetic_log([spec], 40, seed=20)
    total = self_loops = 0
    for ut in truth.users.values():
        for a, b in zip(ut.sequence[:-1], ut.sequence[1:]):
            total += 1
            if a == sid and b == sid:
                self_loops += 1
    assert self_loops / total >= 0.9
    # single fixed-seed user as well
    one = next(iter(truth.users.values()))
    pairs = list(zip(one.sequence[:-1], one.sequence[1:]))
    frac = sum(1 for a, b in pairs if a == sid and b == sid) / len(pairs)
    assert frac >= 0.9


def test_negative_seed_is_rejected_by_name_before_any_draw(tmp_path):
    log = tmp_path / "synth.log"
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        generate_synthetic_log(default_archetypes(), 2, seed=-1, path=log)
    assert not log.exists()


def test_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatch):
        generate_synthetic_log(
            [ArchetypeSpec(name="bad", transition_profile=np.eye(3))], 2, seed=0
        )
    vocab = default_ruleset().vocabulary
    with pytest.raises(VocabularyMismatch):
        generate_synthetic_log(
            [
                ArchetypeSpec(
                    name="bad-template",
                    transition_profile=np.zeros((vocab.n, vocab.n)),
                    session_template=[vocab.n + 3],
                )
            ],
            2,
            seed=0,
        )
    with pytest.raises(VocabularyMismatch):
        generate_synthetic_log(
            [ArchetypeSpec(name="dead", transition_profile=np.zeros((vocab.n, vocab.n)))],
            2,
            seed=0,
        )


def test_archetype_json_config(tmp_path):
    import json

    from trailmine.synth import load_archetypes_json

    config = [
        {
            "name": "searchers",
            "rows": {
                "Browse Search": {"Browse Search": 0.5, "Browse Ontology Class": 0.5},
                "Browse Ontology Class": {"Browse Search": 1.0},
            },
            "start": "Browse Search",
            "session_length": ["geometric", 8],
            "sessions_per_user": ["constant", 2],
            "resource_affinity": {"CPT": 1.0},
        },
        {
            "name": "cyclers",
            "template": ["Ontology Summary", "Browse Ontology Classes", "Ontology Summary"],
        },
    ]
    path = tmp_path / "archetypes.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    specs = load_archetypes_json(path)
    assert [s.name for s in specs] == ["searchers", "cyclers"]
    assert specs[1].session_template is not None and len(specs[1].session_template) == 3
    lines, truth = generate_synthetic_log(specs, 5, seed=1)
    assert len(truth.users) == 10
    vocab = default_ruleset().vocabulary
    cyc = [u for u in truth.users.values() if u.archetype == 1]
    assert all(
        u.sequence[:3] == [vocab.id_of("Ontology Summary"),
                           vocab.id_of("Browse Ontology Classes"),
                           vocab.id_of("Ontology Summary")]
        for u in cyc
    )


def test_ground_truth_roundtrip(tmp_path):
    _, truth = generate_synthetic_log(default_archetypes(), 3, seed=1, bot_fraction=0.1)
    path = tmp_path / "truth.json"
    truth.save(path)
    loaded = GroundTruth.load(path)
    assert loaded.archetype_names == truth.archetype_names
    assert loaded.per_resource == truth.per_resource
    assert loaded.human_lines == truth.human_lines
    some_user = next(iter(truth.users))
    assert loaded.users[some_user].sequence == truth.users[some_user].sequence


def test_ground_truth_save_writes_its_fields_in_order(tmp_path):
    truth = GroundTruth(
        archetype_names=["a", "b"], seed=3, human_lines=5, bot_lines=1, per_resource={"GO": 2},
        users={"10.2.0.1": UserTruth(archetype=1, sequence=[4, 0, 5], session_lengths=[1, 1],
                                     action_count=2, resources={"GO": 2})},
    )
    path = tmp_path / "truth.json"
    truth.save(path)
    assert path.read_text(encoding="utf-8") == (
        '{"archetype_names": ["a", "b"], "seed": 3, "human_lines": 5, "bot_lines": 1, '
        '"per_resource": {"GO": 2}, "users": {"10.2.0.1": {"archetype": 1, "sequence": [4, 0, 5], '
        '"session_lengths": [1, 1], "action_count": 2, "resources": {"GO": 2}}}}'
    )
    assert GroundTruth.load(path) == truth


# Each built-in archetype's SHA-256 over every ArchetypeSpec field. The byte-identity
# tests hand the same specs to the generator and to the reference one, so only this
# catches a change to the specs themselves.
_DEFAULT_SPEC_SHA256 = [
    ("Main Page Visitors", "491d1988e63ccfdd3893f566be6686683780fd02d42ff13b9776c64d22036528"),
    ("Ontology Overview Visitors", "56d58bbd6e94cf2bb40257a859f8b747a1ca1ef104121d94321450b61fd65e34"),
    ("Class Explorers", "4ae656a8b92b4f861f2b22afb27241c59c433e084f024861846c462e116791b8"),
    ("Specific Class Browsers", "26aa6a4fb57e5772f7f9f7ac6af5b071f4d2b0af92ae2f19d31a7dd533bfe36b"),
    ("Ontology Tree Explorers", "a366113ba4732d93dd8b005adda7817a3dc52c8a60a8055cbeb8589229c68161"),
    ("Search Explorers", "201ac009c69cdab7758d8b5247d87056f7714146eaffad76e42820123377e898"),
    ("BioPortal Experts", "a5d0bee7713896e147f621b0f84b92a76207d60baba7d4e79392629417552056"),
]


def _spec_sha256(spec):
    h = hashlib.sha256(repr((spec.name, spec.session_length, spec.sessions_per_user,
                             spec.resource_affinity, spec.session_template)).encode())
    for array in (spec.transition_profile, spec.start_distribution):
        if array is not None:
            h.update(array.dtype.str.encode())
            h.update(array.tobytes())
    return h.hexdigest()


def test_default_archetypes_are_pinned():
    assert [(s.name, _spec_sha256(s)) for s in default_archetypes()] == _DEFAULT_SPEC_SHA256


def _json_archetypes(tmp_path):
    """A chain that runs into an all-zero row, and one with no start label."""
    config = [
        {
            "name": "dead-end",
            "rows": {
                "Browse Search": {"Browse Search": 0.3, "Browse Ontology Class": 0.7},
                "Browse Ontology Class": {"Browse Search": 0.5, "Browse Help": 0.5},
            },
            "start": "Browse Search",
            "session_length": ["geometric", 12],
            "sessions_per_user": ["uniform", 1, 3],
            "resource_affinity": {"CPT": 0.5, "GO": 0.5},
        },
        {
            "name": "no-start",
            "rows": {
                "Ontology Summary": {"Browse Ontology Classes": 0.6, "Ontology Analytics": 0.4},
                "Browse Ontology Classes": {"Ontology Summary": 1.0},
                "Ontology Analytics": {"Ontology Summary": 0.5, "Browse Ontology Classes": 0.5},
            },
            "session_length": ["uniform", 1, 15],
        },
    ]
    path = tmp_path / "archetypes.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return load_archetypes_json(path)


def _default_archetypes(_tmp_path):
    return default_archetypes()


def _uniform_archetypes(_tmp_path):
    return [
        dataclasses.replace(s, session_length=("uniform", 2, 9), sessions_per_user=("uniform", 1, 4))
        for s in default_archetypes()
    ]


def _escaped_resources(_tmp_path):
    affinity = {"A B": 0.5, "Ä": 0.3, "GO": 0.2}
    return [dataclasses.replace(s, resource_affinity=affinity) for s in default_archetypes()]


def _read_text(path):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("specs, users, seed, bots, log_name", [
    *[(_default_archetypes, 6, seed, bots, "synth.log")
      for seed in (1, 2, 3) for bots in (0.0, 0.1, 0.3)],
    (_uniform_archetypes, 5, 4, 0.1, "synth.log"),
    (_json_archetypes, 8, 5, 0.1, "synth.log"),
    (_escaped_resources, 4, 6, 0.0, "synth.log"),
    (_default_archetypes, 4, 7, 0.3, "synth.log.gz"),
])
def test_generator_matches_reference(tmp_path, specs, users, seed, bots, log_name):
    archetypes = specs(tmp_path)
    out = {}
    for name, generate in (("new", generate_synthetic_log), ("ref", reference_generate_synthetic_log)):
        (tmp_path / name).mkdir()
        log = tmp_path / name / log_name
        lines, truth = generate(archetypes, users, seed=seed, bot_fraction=bots, path=log)
        truth.save(tmp_path / name / "truth.json")
        out[name] = (lines, _read_text(log), (tmp_path / name / "truth.json").read_bytes())
    assert out["new"][0], "empty corpus compares nothing"
    assert out["new"] == out["ref"]


def test_gzip_corpus_is_byte_identical(tmp_path):
    log = tmp_path / "synth.log.gz"
    blobs = []
    for _ in range(2):
        lines, _ = generate_synthetic_log(default_archetypes(), 3, seed=5, bot_fraction=0.1, path=log)
        blobs.append(log.read_bytes())
    assert blobs[0][4:8] == bytes(4)  # the header's modification time
    assert blobs[0] == blobs[1]
    assert gzip.decompress(blobs[0]).decode("utf-8") == "".join(line + "\n" for line in lines)


def test_lines_are_what_format_log_line_renders():
    archetypes = default_archetypes()[:3] + _escaped_resources(None)[2:4]
    lines, truth = generate_synthetic_log(archetypes, 3, seed=11, bot_fraction=0.3)
    assert truth.bot_lines > 0
    for line in lines:
        size = int(re.search(r'" 200 (\d+) "', line).group(1))
        assert format_log_line(parse_log_line(line), size=size) == line


def test_empty_corpus_writes_an_empty_file(tmp_path):
    log = tmp_path / "synth.log"
    lines, truth = generate_synthetic_log(default_archetypes(), 0, seed=1, bot_fraction=0.2, path=log)
    assert lines == [] and truth.users == {} and truth.bot_lines == 0
    assert log.read_bytes() == b""
    _, stats = ingest_paths([log])
    assert (stats.lines, stats.malformed) == (0, 0)


def test_negative_user_count_is_rejected():
    with pytest.raises(ValueError, match="users_per_archetype"):
        generate_synthetic_log(default_archetypes(), -3, seed=1)


def test_negative_weights_are_rejected():
    spec = dataclasses.replace(default_archetypes()[1], resource_affinity={"GO": 1.5, "CPT": -0.5})
    with pytest.raises(ValueError, match="non-negative"):
        generate_synthetic_log([spec], 2, seed=1)

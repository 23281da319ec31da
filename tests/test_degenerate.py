"""Degenerate corpora end to end: each shape gives its artifacts or one named error.

Every case runs the whole of ``run_pipeline`` with the default settings.
A corpus that cannot be analysed must fail in one named stage with one
message, and keep the files of the stages before it; a corpus that can
must write every artifact.
"""

import json
import warnings

import pytest

from trailmine.cluster import EmptyMatrix
from trailmine.logs import MalformedLine
from trailmine.pca import RankDeficientWarning
from trailmine.pipeline import PipelineConfig, PipelineStageError, run_pipeline

_LINE = '{ip} - - [14/Mar/2016:09:{m:02d}:00 -0700] "GET {path} HTTP/1.1" 200 512 "-" "Mozilla/5.0"'
_SESSIONIZE_FILES = [
    "traces.jsonl", "usage_stats.txt", "hist_inter_request_seconds.csv", "hist_requests_per_user.csv",
    "hist_ontologies_per_user.csv", "hist_requests_per_session.csv",
]


def _run(tmp_path, lines):
    """The out dir of ``run_pipeline`` on a log of these lines."""
    log = tmp_path / "in.log"
    log.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        # how a PCA of rank below the components asked for is reported is not pinned here
        warnings.simplefilter("ignore", RankDeficientWarning)
        run_pipeline(PipelineConfig(logs=[str(log)], out_dir=str(out)))
    return out


@pytest.mark.parametrize(
    "lines,stage,cause,message,written",
    [
        pytest.param(
            [_LINE.format(ip=f"10.0.0.{u}", m=u, path="/no/such/page") for u in range(5)],
            "elbow", EmptyMatrix, "feature matrix has no rows: no users to cluster",
            [*_SESSIONIZE_FILES, "features.csv"], id="every line unmapped",
        ),
        pytest.param(
            ["not a log line", "<<< garbage >>>", _LINE.format(ip="10.0.0.1", m=0, path="/")[:30]],
            "ingest", MalformedLine, "no parseable lines in input", [], id="every line malformed",
        ),
        pytest.param([], "ingest", MalformedLine, "no parseable lines in input", [], id="an empty file"),
    ],
)
def test_degenerate_corpus_fails_in_one_named_stage(tmp_path, lines, stage, cause, message, written):
    with pytest.raises(PipelineStageError) as exc:
        _run(tmp_path, lines)
    assert exc.value.stage == stage
    assert type(exc.value.cause) is cause
    assert str(exc.value) == f"stage {stage!r} failed: {message}"
    out = tmp_path / "out"
    partial = json.loads((out / "manifest.partial.json").read_text())
    assert partial["outputs"] == written
    assert sorted(p.name for p in out.iterdir()) == sorted([*written, "manifest.partial.json"])
    if written:
        assert (out / "traces.jsonl").read_text() == ""


@pytest.mark.parametrize(
    "lines,users",
    [
        pytest.param(
            [_LINE.format(ip=f"10.0.0.{u}", m=u, path=path)
             for u, path in enumerate(("/ontologies/MCCV", "/search", "/ontologies/GO"))],
            ["10.0.0.0", "10.0.0.1", "10.0.0.2"], id="three users with one event each",
        ),
        pytest.param(
            [_LINE.format(ip=f"10.0.0.{u}", m=m, path=path)
             for u in range(2) for m, path in enumerate(("/ontologies/MCCV", "/search", "/ontologies/GO"))],
            ["10.0.0.0", "10.0.0.1"], id="two users with identical traces",
        ),
    ],
)
def test_degenerate_corpus_writes_every_artifact(tmp_path, lines, users):
    out = _run(tmp_path, lines)
    assert not (out / "manifest.partial.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["stages"]) == [
        "ingest", "sessionize", "features", "elbow", "cluster", "pca", "compare",
    ]
    assert manifest["stages"]["sessionize"]["users"] == len(users)
    assert manifest["outputs"][: len(_SESSIONIZE_FILES)] == _SESSIONIZE_FILES
    for name in ("features.csv", "elbow.csv", "assignments.csv", "pca_coordinates.csv",
                 "resource_profiles.csv"):
        assert name in manifest["outputs"], name
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"], "manifest.json"])
    rows = (out / "assignments.csv").read_text().splitlines()
    assert rows[0] == "user,cluster" and [row.split(",")[0] for row in rows[1:]] == users
    coordinates = (out / "pca_coordinates.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in coordinates[1:]] == users

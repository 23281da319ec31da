"""The exact text of every artifact writer, on small hand-built inputs.

The inputs are built by hand, not fitted, so the pinned text depends on
the writers alone and not on the BLAS or NumPy version.
"""

import json

import numpy as np

from trailmine.cluster import ClusterModel, ClusterProfile, ElbowCurve
from trailmine.compare import ATTRIBUTION_NOTE, ResourceProfile, ResourceProjection, TransitionDiff
from trailmine.markov import FeatureMatrix
from trailmine.pca import PcaModel
from trailmine.pipeline import (
    PipelineConfig,
    RunRecord,
    write_cluster_outputs,
    write_compare_outputs,
    write_elbow_csv,
    write_feature_csv,
    write_pca_outputs,
    write_usage_stats,
)
from trailmine.sessions import UsageStats

NAMES = ["BREAK", "search", "browse"]
ROW = [0.1, 1 / 3, -2.5]


def _record(out_dir) -> RunRecord:
    return RunRecord(PipelineConfig(out_dir=str(out_dir)))


def _features(names=NAMES) -> FeatureMatrix:
    return FeatureMatrix(["u1", "u2"], np.array([ROW, [0.0, 1.0, 2.0]]), "stationary", list(names))


def _pca() -> PcaModel:
    return PcaModel(
        mean=np.zeros(3),
        components=np.array([ROW, [-0.5, 0.25, 1e-17]]),
        explained_variance_ratio=np.array([0.75, 0.25]),
        cumulative_ratio=np.array([0.75, 1.0]),
    )


def test_feature_csv_text(tmp_path):
    write_feature_csv(_features(), tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_text(encoding="utf-8") == (
        "user,BREAK,search,browse\n"
        "u1,0.1,0.3333333333333333,-2.5\n"
        "u2,0.0,1.0,2.0\n"
    )
    write_feature_csv(_features(names=[]), tmp_path / "g.csv")
    assert (tmp_path / "g.csv").read_text(encoding="utf-8").startswith("user,label_0,label_1,label_2\n")


def test_usage_stats_text(tmp_path):
    stats = UsageStats(
        users=2, total_events=5, session_count=3, single_request_sessions=1,
        mean_session_duration=1 / 3, median_session_duration=2.5,
        inter_request_seconds={1800: 1, 0: 2}, requests_per_user={2: 1, 3: 1},
        ontologies_per_user={0: 1, 1: 1}, requests_per_session={1: 1, 2: 2},
    )
    record = _record(tmp_path)
    write_usage_stats(stats, record)
    files = record.outputs
    assert files == [
        "usage_stats.txt", "hist_inter_request_seconds.csv", "hist_requests_per_user.csv",
        "hist_ontologies_per_user.csv", "hist_requests_per_session.csv",
    ]
    assert (tmp_path / "usage_stats.txt").read_text(encoding="utf-8") == (
        "corpus usage statistics\n"
        "users: 2\n"
        "events: 5\n"
        "sessions: 3\n"
        "single_request_sessions: 1\n"
        "mean_session_duration_s: 0.333\n"
        "median_session_duration_s: 2.5\n"
        "note: a 1-event session has duration 0 s\n"
    )
    text = {name: (tmp_path / name).read_text(encoding="utf-8") for name in files[1:]}
    assert text == {
        "hist_inter_request_seconds.csv": "inter_request_seconds,count\n0,2\n1800,1\n",
        "hist_requests_per_user.csv": "requests_per_user,count\n2,1\n3,1\n",
        "hist_ontologies_per_user.csv": "ontologies_per_user,count\n0,1\n1,1\n",
        "hist_requests_per_session.csv": "requests_per_session,count\n1,1\n2,2\n",
    }


def test_cluster_outputs_text(tmp_path):
    model = ClusterModel(
        K=2, centroids=np.array([ROW, [1.0, 0.0, 0.5]]), assignments=np.array([1, 0]),
        inertia=1 / 3,
    )
    profiles = [
        ClusterProfile(0, 1, 2.0, 2.0, np.array([0, 3, 1]), [(1, 2, 3), (2, 1, 1)]),
        ClusterProfile(1, 1, 2.5, 2.5, np.array([1, 0, 0]), []),
    ]
    record = _record(tmp_path)
    write_cluster_outputs(_features(), model, profiles, record)
    files = record.outputs
    assert files == [
        "assignments.csv", "centroids.csv", "cluster_profiles.txt",
        "cluster_0_actions.csv", "cluster_1_actions.csv",
    ]
    text = {name: (tmp_path / name).read_text(encoding="utf-8") for name in files}
    assert text == {
        "assignments.csv": "user,cluster\nu1,1\nu2,0\n",
        "centroids.csv": (
            "cluster,BREAK,search,browse\n"
            "0,0.1,0.3333333333333333,-2.5\n"
            "1,1.0,0.0,0.5\n"
        ),
        "cluster_profiles.txt": (
            "behavior clusters (K=2, inertia=0.3333333333333333)\n"
            "cluster 0: 1 users, avg 2.0 actions (median 2)\n"
            "  top actions: search (3), browse (1)\n"
            "  top transitions: search -> browse (3), browse -> search (1)\n"
            "cluster 1: 1 users, avg 2.5 actions (median 2.5)\n"
            "  top actions: BREAK (1)\n"
            "  top transitions: \n"
        ),
        "cluster_0_actions.csv": "label,count\nBREAK,0\nsearch,3\nbrowse,1\n",
        "cluster_1_actions.csv": "label,count\nBREAK,1\nsearch,0\nbrowse,0\n",
    }


def test_elbow_csv_text(tmp_path):
    curve = ElbowCurve(points=[(1, 0.0), (2, 1 / 3), (3, np.float64(0.1))])
    write_elbow_csv(curve, tmp_path / "elbow.csv")
    assert (tmp_path / "elbow.csv").read_text(encoding="utf-8") == (
        "K,explained_variance\n1,0.0\n2,0.3333333333333333\n3,0.1\n"
    )


def test_pca_outputs_text(tmp_path):
    coords = np.array([[0.1, -2.5], [1 / 3, 0.0]])
    record = _record(tmp_path)
    write_pca_outputs(_features(), _pca(), coords, np.array([1, 0]), record)
    files = record.outputs
    assert files == ["pca_loadings.csv", "pca_coordinates.csv", "pca_report.txt"]
    text = {name: (tmp_path / name).read_text(encoding="utf-8") for name in files}
    assert text == {
        "pca_loadings.csv": (
            "label,PC1,PC2\n"
            "BREAK,0.1,-0.5\n"
            "search,0.3333333333333333,0.25\n"
            "browse,-2.5,1e-17\n"
        ),
        "pca_coordinates.csv": "id,PC1,PC2,cluster\nu1,0.1,-2.5,1\nu2,0.3333333333333333,0.0,0\n",
        "pca_report.txt": (
            "principal components over behavior features\n"
            "PC1: variance ratio 0.7500, cumulative 0.7500\n"
            "PC2: variance ratio 0.2500, cumulative 1.0000\n"
            "PC1: largest search (+0.3333), smallest browse (-2.5000)\n"
            "PC2: largest search (+0.2500), smallest BREAK (-0.5000)\n"
        ),
    }
    write_pca_outputs(_features(), _pca(), coords, None, _record(tmp_path))
    assert (tmp_path / "pca_coordinates.csv").read_text(encoding="utf-8") == (
        "id,PC1,PC2\nu1,0.1,-2.5\nu2,0.3333333333333333,0.0\n"
    )


def test_compare_outputs_text(tmp_path):
    profiles = [
        ResourceProfile("CPT", 5, 2, np.array([3, 2]), None, np.array([1, 3, 1])),
        ResourceProfile("GO", 1, 1, np.array([0, 1]), None, np.array([0, 1, 0])),
    ]
    diff = TransitionDiff(
        "CPT", "GO", [1, 2], np.array([[0.1, -2.5], [1 / 3, 0.0]]),
        np.array([1, 3, 1]), np.array([0, 1, 0]),
    )
    cluster_pca = PcaModel(
        np.zeros(2), np.array([[0.1, -2.5]]), np.array([1.0]), np.array([1.0]),
    )
    projection = ResourceProjection(["CPT", "GO"], np.array([[1 / 3], [-2.5]]), cluster_pca)
    record = _record(tmp_path)
    write_compare_outputs(profiles, diff, projection, NAMES, record)
    files = record.outputs
    assert files == [
        "resource_profiles.csv", "transition_diff_CPT_vs_GO.json",
        "resource_coordinates.csv", "resource_pca_report.txt",
    ]
    text = {name: (tmp_path / name).read_text(encoding="utf-8") for name in files}
    assert text["resource_profiles.csv"] == (
        "resource,visits,users,cluster_0,cluster_1\nCPT,5,2,3,2\nGO,1,1,0,1\n"
    )
    assert json.loads(text["transition_diff_CPT_vs_GO.json"]) == {
        "resource_a": "CPT", "resource_b": "GO", "note": ATTRIBUTION_NOTE,
        "labels": ["search", "browse"], "histogram_a": [3, 1], "histogram_b": [1, 0],
        "diff": [[0.1, -2.5], [1 / 3, 0.0]],
    }
    assert text["resource_coordinates.csv"] == "resource,PC1\nCPT,0.3333333333333333\nGO,-2.5\n"
    assert text["resource_pca_report.txt"] == (
        "principal components over per-cluster resource activity\n"
        "PC1: variance ratio 1.0000, cumulative 1.0000\n"
        "PC1: largest cluster_0 (+0.1000), smallest cluster_1 (-2.5000)\n"
    )
    record = _record(tmp_path / "none")
    write_compare_outputs([], None, None, NAMES, record)
    assert record.outputs == [] and not (tmp_path / "none").exists()  # the dir is made when needed

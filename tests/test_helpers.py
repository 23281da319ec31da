"""Helper processes: a helper's error reaches the caller, and no helper outlives a call.

Ingest and the elbow share their work with helper processes when given
more than one job. A helper's exception is raised by the caller with its
own type and no helper traceback on stderr, and every helper is joined
(terminated first when the call fails) before the call returns.
"""

import gzip
import multiprocessing
import os

import numpy as np
import pytest

from trailmine import cluster
from trailmine.cluster import explained_variance_curve
from trailmine.helpers import receive, start_helpers
from trailmine.pipeline import ingest_paths
from trailmine.synth import default_archetypes, generate_synthetic_log


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("helpers")
    plain, corrupt = tmp / "a.log", tmp / "b.log.gz"
    generate_synthetic_log(default_archetypes(), 3, seed=5, path=plain)
    corrupt.write_bytes(b"not gzip data\n")
    return plain, corrupt


def _blobs():
    rng = np.random.default_rng(9)
    return np.vstack([c + rng.normal(scale=0.2, size=(10, 3)) for c in rng.normal(scale=3.0, size=(4, 3))])


# a helper inherits a monkeypatched _lloyd only when it is forked
forked = pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="helpers are not forked")


def _fail_at(pid_test, K_fail):
    """A ``_lloyd`` that raises ``FloatingPointError`` at ``K_fail`` in the processes ``pid_test`` picks."""
    real = cluster._lloyd

    def lloyd(X, xx, C):
        if len(C) == K_fail and pid_test(os.getpid()):
            raise FloatingPointError(f"failed at K={K_fail}")
        return real(X, xx, C)

    return lloyd


@pytest.mark.parametrize("jobs", [1, 2])
def test_ingest_raises_a_helper_error_with_its_type(logs, capfd, jobs):
    plain, corrupt = logs
    with pytest.raises(gzip.BadGzipFile):  # jobs=2: the gzip file is the helper's share
        ingest_paths([plain, corrupt], jobs=jobs)
    assert "Traceback" not in capfd.readouterr().err
    assert multiprocessing.active_children() == []


def test_ingest_joins_its_helpers(logs):
    plain, _ = logs
    one = ingest_paths([plain, plain], jobs=1)
    three = ingest_paths([plain, plain], jobs=3)
    assert multiprocessing.active_children() == []
    assert one[1] == three[1] and len(one[0]) == len(three[0])


@forked
def test_elbow_raises_a_helper_error_with_its_type(monkeypatch, capfd):
    parent = os.getpid()
    monkeypatch.setattr(cluster, "_lloyd", _fail_at(lambda pid: pid != parent, 3))
    with pytest.raises(FloatingPointError, match="failed at K=3"):
        explained_variance_curve(_blobs(), range(1, 8), restarts=4, jobs=2)
    assert "Traceback" not in capfd.readouterr().err
    assert multiprocessing.active_children() == []


@forked
def test_elbow_terminates_its_helpers_when_it_fails(monkeypatch, capfd):
    # the helpers' runs fill their pipes, so here they are still busy or blocked on them; one
    # left running would fail on its closed pipe and print that
    parent = os.getpid()
    monkeypatch.setattr(cluster, "_lloyd", _fail_at(lambda pid: pid == parent, 2))
    with pytest.raises(FloatingPointError, match="failed at K=2"):
        explained_variance_curve(np.random.default_rng(4).normal(size=(400, 20)), range(1, 26),
                                 restarts=6, jobs=3)
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


def test_elbow_joins_its_helpers():
    curve = explained_variance_curve(_blobs(), range(1, 8), restarts=4, jobs=2)
    assert curve.processes == 2
    assert multiprocessing.active_children() == []


def _die(send):
    os._exit(3)


def test_a_helper_that_dies_is_an_error():
    with pytest.raises(RuntimeError, match="ended without sending"):
        with start_helpers(_die, [()]) as conns:
            receive(conns[0])
    assert multiprocessing.active_children() == []

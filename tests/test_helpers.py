"""Helper processes: a helper's error reaches the caller, and no helper outlives a call.

Ingest and the elbow share their work with helper processes when given
more than one job. A helper's exception is raised by the caller with its
own type and no helper traceback on stderr, and every helper is reaped
(sent SIGTERM first when the call fails) before the call returns.
"""

import gzip
import os

import numpy as np
import pytest

from trailmine import cluster, pipeline
from trailmine.cluster import explained_variance_curve
from trailmine.cli import main
from trailmine.helpers import receive, shared_counter, start_helpers
from trailmine.pipeline import PipelineConfig, ingest_paths
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


def _no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    with pytest.raises(gzip.BadGzipFile):  # jobs=2: either process may take the gzip file
        ingest_paths([plain, corrupt], jobs=jobs)
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


def test_ingest_starts_no_more_processes_than_cpus(logs, monkeypatch):
    plain, _ = logs
    one = ingest_paths([plain], jobs=1)
    shares = []
    real = pipeline.start_helpers

    def start_helpers(work, helper_shares):
        shares.append(len(helper_shares))
        return real(work, helper_shares)

    monkeypatch.setattr(pipeline, "start_helpers", start_helpers)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
    four = ingest_paths([plain], jobs=4)
    _no_child_left()
    assert shares == [1]  # one helper beside this process
    assert one[1] == four[1] and len(one[0]) == len(four[0])


def test_ingest_joins_its_helpers(logs):
    plain, _ = logs
    one = ingest_paths([plain, plain], jobs=1)
    three = ingest_paths([plain, plain], jobs=3)
    _no_child_left()
    assert one[1] == three[1] and len(one[0]) == len(three[0])


def test_elbow_raises_a_helper_error_with_its_type(monkeypatch, capfd):
    parent = os.getpid()
    monkeypatch.setattr(cluster, "_lloyd", _fail_at(lambda pid: pid != parent, 3))
    with pytest.raises(FloatingPointError, match="failed at K=3"):
        explained_variance_curve(_blobs(), range(1, 8), restarts=4, jobs=2)
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


def test_elbow_terminates_its_helpers_when_it_fails(monkeypatch, capfd):
    # this process fails at its first K=2 run, while each helper still has the runs of K up to 25
    # ahead of it: only the SIGTERM of a failing call ends them before the call returns. One left
    # running would outlive the call, or fail on its closed pipe and print that
    parent = os.getpid()
    monkeypatch.setattr(cluster, "_lloyd", _fail_at(lambda pid: pid == parent, 2))
    with pytest.raises(FloatingPointError, match="failed at K=2"):
        explained_variance_curve(np.random.default_rng(4).normal(size=(400, 20)), range(1, 26),
                                 restarts=6, jobs=3)
    _no_child_left()
    assert "Traceback" not in capfd.readouterr().err


def test_elbow_joins_its_helpers():
    curve = explained_variance_curve(_blobs(), range(1, 8), restarts=4, jobs=2)
    assert curve.processes == 2
    _no_child_left()


def _die(send):
    os._exit(3)


def test_a_helper_that_dies_is_an_error():
    with pytest.raises(RuntimeError, match="ended without sending"):
        with start_helpers(_die, [()]) as conns:
            receive(conns[0])
    _no_child_left()


def test_without_fork_jobs_above_one_is_rejected(logs, tmp_path, monkeypatch):
    plain, _ = logs
    monkeypatch.delattr(os, "fork")
    PipelineConfig(jobs=1).validate()
    with pytest.raises(ValueError, match="jobs must be 1 on a platform without os.fork, got 2"):
        PipelineConfig(jobs=2).validate()
    out = tmp_path / "out"
    assert main(["run", "--logs", str(plain), "--out-dir", str(out), "--jobs", "2"]) == 2
    assert not out.exists()
    with pytest.raises(ValueError, match="jobs must be 1 on a platform without os.fork, got 2"):
        with start_helpers(_die, [()]):
            pass
    assert ingest_paths([plain], jobs=1)[1].lines > 0  # one process needs no fork


class _TwoArgs(Exception):
    """Pickles, but does not unpickle: ``args`` holds one item."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise_two_args(send):
    raise _TwoArgs("odd", "even")


def test_a_helper_error_that_does_not_unpickle_arrives_as_its_text(capfd):
    with pytest.raises(RuntimeError, match="helper process failed: .*odd and even"):
        with start_helpers(_raise_two_args, [()]) as conns:
            receive(conns[0])
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


def _taken(next_index, stop):
    """The indices one process takes before it is handed ``stop`` or more."""
    taken = []
    while (i := next_index()) < stop:
        taken.append(i)
    return taken


def _send_taken(send, next_index, stop):
    send(_taken(next_index, stop))


def test_a_shared_counter_hands_each_index_once():
    stop = 2000
    with shared_counter() as next_index:
        with start_helpers(_send_taken, [(next_index, stop)] * 3) as conns:
            taken = [_taken(next_index, stop)] + [receive(conn) for conn in conns]
    _no_child_left()
    assert sorted(sum(taken, [])) == list(range(stop))
    assert all(t == sorted(t) for t in taken)

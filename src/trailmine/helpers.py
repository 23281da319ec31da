"""Helper processes that share one call's work with the process making it.

A call given ``jobs`` processes does the first share of its work itself
and starts ``jobs - 1`` helpers for the rest (:func:`start_helpers`).
Each helper runs ``work(send, *share)`` and sends its results through
its own one-way pipe, one pickle per message; the caller reads them with
:func:`receive` when it needs them, in the order it needs them. A helper
whose work raises sends the exception in place of a result and ends
quietly, and :func:`receive` raises it in the caller with its own type.

A helper is an ``os.fork`` child: it begins with the caller's imports
and inputs in place, so it costs one fork, and its share is never
pickled. It ends through ``os._exit``, so it never unwinds the caller's
stack, runs no exit handler and flushes none of the caller's buffers.
trailmine starts no thread of its own that a fork could cut off
mid-work. Nothing here imports more than ``import trailmine`` already
has; ``signal`` is imported only to stop the helpers of a failing call.
A platform without ``os.fork`` runs ``jobs=1`` only (:func:`check_jobs`).

Work cut into more tasks than processes can be dealt as each process
asks: a :func:`shared_counter` made before the helpers start hands
every process the next task index, each index once. Such work needs no
more processes than :func:`usable_cpus`: one more would only take turns
on a CPU with another.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence

__all__ = ["check_jobs", "usable_cpus", "shared_counter", "start_helpers", "receive"]

# the width of the count a shared_counter's pipe holds
_COUNT_BYTES = 8


class _Failure:
    """A helper's exception, sent in place of a result."""

    def __init__(self, exc: Exception):
        self.exc = exc


def check_jobs(jobs: int) -> None:
    """Reject ``jobs > 1`` on a platform without ``os.fork``, where no helper can start."""
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError(f"jobs must be 1 on a platform without os.fork, got {jobs}")


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity, as on macOS
        return os.cpu_count() or 1


def _serve(work: Callable, share: tuple, readers: list[BinaryIO], fd: int) -> NoReturn:
    """A helper's whole life: ``work(send, *share)``, a failure sent rather than printed."""
    code = 1
    try:
        # the caller's ends, inherited: were one left open, a send to a caller gone would block forever
        for reader in readers:
            reader.close()
        with os.fdopen(fd, "wb") as pipe:
            def send(message) -> None:
                # pickled whole before any byte is written, so a message that fails to pickle sends nothing
                pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                pipe.flush()

            try:
                work(send, *share)
                code = 0
            except Exception as exc:  # raised again by the caller's receive()
                failure = _Failure(exc)
                try:
                    pickle.loads(pickle.dumps(failure))
                except Exception:  # the exception does not survive pickling: send its text
                    failure = _Failure(RuntimeError(f"helper process failed: {exc!r}"))
                send(failure)
    finally:
        os._exit(code)


@contextmanager
def start_helpers(work: Callable, shares: Sequence[tuple]) -> Iterator[list[BinaryIO]]:
    """One forked helper process per item of ``shares``, running ``work(send, *share)``.

    Yields the read end of each helper's pipe, in ``shares`` order.
    Every helper is reaped before the ``with`` block is left; when the
    block raises, each is sent SIGTERM first, so none outlives it. An
    empty ``shares`` starts no process. Raises :func:`check_jobs`'s
    ``ValueError`` on a platform without ``os.fork``.
    """
    if not shares:
        yield []
        return
    check_jobs(len(shares) + 1)
    pids: list[int] = []
    readers: list[BinaryIO] = []
    try:
        for share in shares:
            r, w = os.pipe()
            readers.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(work, share, readers, w)
            finally:
                os.close(w)  # only the helper holds it now, so its end shows as EOF
            pids.append(pid)
        yield readers
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGTERM)  # not yet reaped, so the pid is still this helper's
        raise
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


@contextmanager
def shared_counter() -> Iterator[Callable[[], int]]:
    """A ``next`` callable that returns 0, 1, 2, ... across the caller and the helpers it forks in the block.

    The count is the one message in a pipe that every process holds: a
    call reads it, so any other call waits, and writes the next one back.
    The message is shorter than ``PIPE_BUF``, so it is written and read
    whole.
    """
    r, w = os.pipe()
    try:
        os.write(w, (0).to_bytes(_COUNT_BYTES, "little"))

        def next_index() -> int:
            i = int.from_bytes(os.read(r, _COUNT_BYTES), "little")
            os.write(w, (i + 1).to_bytes(_COUNT_BYTES, "little"))
            return i

        yield next_index
    finally:
        os.close(r)
        os.close(w)


def receive(conn: BinaryIO):
    """The next result a helper sent; a helper's exception is raised here."""
    try:
        message = pickle.load(conn)
    except (EOFError, pickle.UnpicklingError):  # no message, or one cut short
        raise RuntimeError("a helper process ended without sending its result") from None
    if isinstance(message, _Failure):
        raise message.exc
    return message

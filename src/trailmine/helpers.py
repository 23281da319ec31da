"""Helper processes that share one call's work with the process making it.

A call given ``jobs`` processes does the first share of its work itself
and starts ``jobs - 1`` helpers for the rest (:func:`start_helpers`).
Each helper runs ``work(send, *share)`` and sends its results through
its own one-way pipe; the caller reads them with :func:`receive` when it
needs them, in the order it needs them. A helper whose work raises sends
the exception in place of a result and ends quietly, and :func:`receive`
raises it in the caller with its own type.

Helpers start from :mod:`multiprocessing`'s default context, on Linux a
fork: a helper begins with the caller's imports and inputs in place, so
a helper costs about one fork, not a fresh interpreter. trailmine starts
no thread of its own that a fork could cut off mid-work.
``multiprocessing`` (with ``socket`` and ``selectors``) is imported only
when a helper starts, so a one-process run never loads it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

__all__ = ["start_helpers", "receive"]


class _Failure:
    """A helper's exception, sent in place of a result."""

    def __init__(self, exc: Exception):
        self.exc = exc


def _serve(reader, conn, work: Callable, share: tuple) -> None:
    """A helper's whole life: ``work(conn.send, *share)``, a failure sent rather than printed."""
    # the caller's end, inherited: were it left open, a send to a caller gone would block forever
    reader.close()
    try:
        work(conn.send, *share)
    except Exception as exc:  # raised again by the caller's receive()
        try:
            conn.send(_Failure(exc))
        except Exception:  # the exception does not pickle: send its text
            conn.send(_Failure(RuntimeError(f"helper process failed: {exc!r}")))
    finally:
        conn.close()


@contextmanager
def start_helpers(work: Callable, shares: Sequence[tuple]) -> Iterator[list]:
    """One helper process per item of ``shares``, running ``work(send, *share)``.

    Yields the receiving end of each helper's pipe, in ``shares`` order.
    Every helper is joined before the ``with`` block is left; when the
    block raises, the helpers are terminated first, so none outlives it.
    An empty ``shares`` starts no process and imports nothing.
    """
    if not shares:
        yield []
        return
    import multiprocessing

    procs, conns = [], []
    try:
        for share in shares:
            conn, send = multiprocessing.Pipe(duplex=False)
            conns.append(conn)
            try:
                proc = multiprocessing.Process(target=_serve, args=(conn, send, work, share), daemon=True)
                proc.start()
            finally:
                send.close()  # only the helper holds it now, so its end shows as EOF
            procs.append(proc)
        yield conns
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def receive(conn):
    """The next result a helper sent; a helper's exception is raised here."""
    try:
        message = conn.recv()
    except EOFError:
        raise RuntimeError("a helper process ended without sending its result") from None
    if isinstance(message, _Failure):
        raise message.exc
    return message

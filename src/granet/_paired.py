"""Two calls at once: one on the caller's thread, one on a helper thread.

``with paired(rows, chunk) as pair`` gives ``pair(first, second)``, which
returns ``(first(), second())`` as if the two ran in that order on the
caller's thread.  With a
helper, ``second`` runs on it while ``first`` runs here; without one, both
run here, one after the other.  Either way the results are the same bits:
the two calls must write disjoint memory and read nothing the other writes.

The helper runs ``second`` in a copy of the caller's context, so the
caller's ``np.errstate`` applies there too, with every floating-point
condition that the caller does not ignore raised instead of reported.  If
``second`` raises on the helper and ``first`` does not, ``second`` runs again
here, under the caller's error state: its warnings and errors then come from
the caller's thread, after ``first``'s, as they would in order.  So
``second`` must give the same result when it runs twice.  An error of
``first`` wins over anything ``second`` did, as when ``first`` raising would
have kept ``second`` from running.  ``pair`` waits for the helper before it
returns or raises, and :class:`paired` joins the helper when the ``with``
block ends.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _strict(call):
    """``call()`` with every floating-point condition not ignored raised."""
    with np.errstate(**{kind: "ignore" if mode == "ignore" else "raise"
                        for kind, mode in np.geterr().items()}):
        return call()


class _Helper:
    """One thread that runs one posted call at a time."""

    def __init__(self):
        self._posted = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._call = None
        self._outcome = None
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="granet-helper")
        self._thread.start()

    def _serve(self):
        while True:
            self._posted.acquire()
            if self._call is None:
                return
            context, call = self._call
            self._outcome = (False, None)
            try:
                self._outcome = (True, context.run(_strict, call))
            except Exception:
                pass  # the caller runs ``call`` again, on its own thread
            finally:
                self._done.release()

    def post(self, call):
        self._call = (contextvars.copy_context(), call)
        self._posted.release()

    def wait(self):
        """``(ok, result)`` of the posted call, once it has returned."""
        self._done.acquire()
        return self._outcome

    def close(self):
        # A call still running (its wait was interrupted) ends first.
        self._call = None
        self._posted.release()
        self._thread.join()


class paired:
    """``with paired(rows, chunk) as pair``: ``pair(first, second=None)`` for
    a job over ``rows`` rows taken ``chunk`` at a time.

    A helper thread runs only when the job spans more than one chunk and
    more than one CPU is available; it starts at the first ``pair`` given a
    ``second`` and is joined when the ``with`` block ends.  Otherwise
    ``pair`` runs both calls here.  A ``second`` of None is not called, and
    None is returned in its place.
    """

    def __init__(self, rows: int, chunk: int):
        self._spare = rows > chunk and _cpu_count() > 1
        self._helper = None

    def __enter__(self):
        return self._pair

    def __exit__(self, *exc_info):
        if self._helper is not None:
            self._helper.close()

    def _pair(self, first, second=None):
        if second is None or not self._spare:
            return first(), None if second is None else second()
        if self._helper is None:
            self._helper = _Helper()
        helper = self._helper
        helper.post(second)
        try:
            result = first()
        finally:
            ok, other = helper.wait()
        return result, other if ok else second()

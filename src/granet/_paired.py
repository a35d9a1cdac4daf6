"""Two calls at once: one on the caller's thread, one on a helper thread.

``with paired(rows, chunk) as pair`` gives ``pair(first, second)``, which
returns ``(first(), second())`` as if the two ran in that order on the
caller's thread.  With a
helper, ``second`` runs on it while ``first`` runs here; without one, both
run here, one after the other.  Either way the results are the same bits:
the two calls must write disjoint memory and read nothing the other writes.

The helper is the one worker of a
:class:`~concurrent.futures.ThreadPoolExecutor`.  It runs ``second`` in a
copy of the caller's context, so the caller's ``np.errstate`` applies there
too, with every floating-point condition that the caller does not ignore
raised instead of reported.  If ``second`` raises on the helper and
``first`` does not, ``second`` runs again here, under the caller's error
state: its warnings and errors then come from the caller's thread, after
``first``'s, as they would in order.  So ``second`` must give the same
result when it runs twice.  An error of ``first`` wins over anything
``second`` did, as when ``first`` raising would have kept ``second`` from
running.  ``pair`` waits for the helper before it returns or raises, and
:class:`paired` shuts the executor down, joining its thread, when the
``with`` block ends.
"""

from __future__ import annotations

import contextvars
import os

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
            self._helper.shutdown()

    def _pair(self, first, second=None):
        if second is None or not self._spare:
            return first(), None if second is None else second()
        if self._helper is None:
            # Imported only here: it loads ``logging``, which a job that
            # never pairs (and ``import granet``) need not pay for.
            from concurrent.futures import ThreadPoolExecutor
            self._helper = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="granet-helper")
        outcome = self._helper.submit(contextvars.copy_context().run,
                                      _strict, second)
        try:
            result = first()
        finally:
            failed = outcome.exception() is not None
        return result, second() if failed else outcome.result()

"""The host executor: independent tasks as strided groups on the host's cores.

Both engines hand their independent work here — the grid engine a
chunk's ranks, input parts and output parts
(:class:`~repro.core.parallel.ParallelFFTMatvec`), the single-device
engine a half's column slabs and Phase 3's frequency parts
(:class:`~repro.core.matvec.FFTMatvec`).  :func:`run_groups` runs them
as ``w`` strided groups: group 0 on the calling thread, the others on
one process-wide pool, results gathered in item order, so nothing
observable depends on ``w``.

``w`` is 1 — every item inline, in item order, through the same code —
unless the caller allows more (its own gate: a size that pays, no
installed fault schedule), the host has more than one usable CPU, and
the calling thread is not itself running a group.  The last condition
is the executor's own: it marks every thread while it runs a group, so
an engine applied inside a group (a grid's rank engine, on a worker or
in group 0 on the caller) stays inline and never queues behind its own
pool.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, Sequence

__all__ = ["run_groups", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _rank_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool, created by the first concurrent run."""
    return ThreadPoolExecutor(workers, thread_name_prefix="repro-rank")


class _Marks(threading.local):
    inside = False  # this thread is running a group


_MARKS = _Marks()


def run_groups(task: Callable, items: Sequence, most: int, *args: Any) -> list:
    """``[task(item, *args) for item in items]``, run as strided groups.

    The items must share nothing a task writes.  They run as ``w =
    min(items, most, usable CPUs)`` groups — group ``g`` takes items
    ``g, g + w, ...`` — with group 0 on the calling thread and the rest
    on the pool; ``w`` is 1 when ``most`` is, and on a thread that is
    running a group already.  A group the pool refuses (it is shut down
    at interpreter exit) runs on the calling thread after group 0.
    Returns or raises only once every group has finished; of several
    failing items the lowest one's error wins.
    """
    n = len(items)
    cpus = usable_cpus() if most > 1 and not _MARKS.inside else 1
    w = min(n, most, cpus) if cpus > 1 else 1
    done: list = [None] * n
    errors: Dict[int, Exception] = {}

    def run_group(g: int) -> None:
        outer, _MARKS.inside = _MARKS.inside, True
        i = g
        try:
            for item in items[g::w]:
                done[i] = task(item, *args)
                i += w
        except Exception as exc:  # collected; the lowest item's is re-raised
            errors[i] = exc
        finally:
            _MARKS.inside = outer

    refused, futures = [], []
    if w > 1:
        pool = _rank_pool(cpus - 1)
        for g in range(1, w):
            try:
                futures.append(pool.submit(run_group, g))
            except RuntimeError:  # the pool takes no work after shutdown
                refused.append(g)
    try:
        run_group(0)
        for g in refused:
            run_group(g)
    finally:
        if futures:
            wait(futures)  # no worker still writes a buffer past this point
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]
    return done

"""Independent per-item work mapped over forked worker processes.

LOOCV folds, per-subject CWTs and per-file feature extraction share no
state, so each runs as one task. Results come back in input order and the
parent assembles every shared artifact from them, so an output does not
depend on how many workers ran.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fork_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """[fn(x) for x in items], computed in forked worker processes, one per
    usable CPU and at most one per item.

    `fn` and each item are pickled to a worker and each result back, so
    `fn` must be a module-level function (or a partial of one). A task's
    exception is raised here, and the tasks not yet started are dropped.
    """
    items = list(items)
    if not items:
        return []
    # imported here because they add about 30 ms to the start of every
    # gaitsig process, and only the pooled stages use them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: workers inherit the imported modules and need no __main__ guard;
    # gaitsig starts no thread that a fork could catch holding a lock
    workers = min(len(items), len(os.sched_getaffinity(0)))
    # about 16 chunks per worker: each chunk costs the parent a round trip
    # through the pool's queues, as long as a short task (one scalogram
    # file) takes, and 16 still balance long tasks (LOOCV folds)
    chunksize = max(1, len(items) // (16 * workers))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            return list(pool.map(fn, items, chunksize=chunksize))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

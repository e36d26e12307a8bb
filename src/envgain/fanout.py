"""The process's one fan-out: independent tasks on the cores BLAS leaves idle.

`fan_out(run, tasks)` is `[run(task) for task in tasks]` spread over up to
`_WORKERS` threads of one thread pool per process. Inference's (row block,
network) tasks, per-band training, the loading and saving of a model
directory's networks, pseudo-corpus utterances, the syllables of one
pseudo-speech call, manifest WAV reads, the dataset builders' mixed
utterances and evaluation's (SNR, utterance) items all run through it.
Results never depend on the worker count: each task computes what the
serial loop computes. A `fan_out` called by a task runs its own tasks
serially in that task's thread.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Sequence

M_ARENA_MAX = -8  # glibc <malloc.h>


def _worker_count(environ, cores: int) -> int:
    """Threads for `fan_out`: the usable cores divided by the BLAS thread
    count, at least 1. The BLAS count is that of the first variable
    OpenBLAS reads that holds a positive integer; with none set, OpenBLAS
    runs a thread per core and leaves no core idle."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(environ.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cores // blas)
    return 1


_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_WORKERS = _worker_count(os.environ, _CORES)
_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()
_IN_TASK = threading.local()  # .active is set in the pool's threads


def _one_arena() -> bool:
    """Cap glibc malloc at one arena, so memory a pool thread frees can be
    reused by every thread; without the cap each worker's arena keeps what
    it freed. True if the cap was set; elsewhere than on glibc, a no-op."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only
        return libc.mallopt(M_ARENA_MAX, 1) == 1
    except (OSError, AttributeError):
        return False


def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's thread pool, made on first use and made anew when a
    call wants more threads than it has. The first pool caps malloc at one
    arena before any of its threads exists."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if workers > _POOL_SIZE:
            if _POOL is None:
                _one_arena()
            else:
                _POOL.shutdown(wait=False)  # its threads end once idle
            _POOL, _POOL_SIZE = ThreadPoolExecutor(workers, thread_name_prefix="envgain"), workers
        return _POOL


def _forget_pool():
    """A forked child has the pool object but none of its threads."""
    global _POOL, _POOL_SIZE, _POOL_LOCK
    _POOL, _POOL_SIZE, _POOL_LOCK = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def fan_out(run, tasks: Sequence) -> list:
    """`[run(task) for task in tasks]`, the tasks spread over up to
    `_WORKERS` threads of the process's pool. A call with one task or one
    worker, or made by a task, runs its tasks in the caller's thread: a
    task that waited for the pool's threads could be waiting for its own.

    Tasks start in list order. Once a task has raised, no further task
    starts; the tasks in flight run to their end, and the error of the
    earliest failed task is raised, which is the error the serial loop
    raises. An interrupt of the caller also starts no further task and
    waits for those in flight."""
    workers = min(len(tasks), _WORKERS)
    if workers <= 1 or getattr(_IN_TASK, "active", False):
        return [run(task) for task in tasks]
    lock, stop = threading.Lock(), threading.Event()
    order = iter(range(len(tasks)))
    results, errors = [None] * len(tasks), {}

    def claim():
        with lock:
            return None if stop.is_set() else next(order, None)

    def drain():
        _IN_TASK.active = True
        while (i := claim()) is not None:
            try:
                results[i] = run(tasks[i])
            except BaseException as exc:  # raised again in the caller
                errors[i] = exc
                stop.set()

    pool = _pool(workers)
    futures = [pool.submit(drain) for _ in range(workers)]
    try:
        wait(futures)
    except BaseException:
        stop.set()
        wait(futures)
        raise
    if errors:
        raise errors[min(errors)]
    return results

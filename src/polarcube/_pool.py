"""Per-pixel loops in cache-sized blocks on one thread per core.

Each block writes its own slices of outputs the caller preallocated, and
block bounds do not depend on the thread count, so neither do results.
Blocks call private helpers only: the benchmark tracer follows public
calls on the calling thread alone.  The pool is a queue and plain
threads, started at the first job that uses it: ``concurrent.futures``
would add about 6 ms of imports to every command-line process.
"""

import os
import threading

BLOCK_VALUES = 1 << 16  # values a block touches: 512 KiB of float64
try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    WORKERS = os.cpu_count() or 1
_tasks = None  # the pool's queue of (fn, lo, hi, done); None before its threads start
_start_lock = threading.Lock()
_thread = threading.local()


def blocks(fn, n, unit):
    """Run ``fn(lo, hi)`` over blocks of ``range(n)``, ``BLOCK_VALUES // unit`` items each.

    One block, one core, or a call from a pool thread (whose nested job
    would wait on the pool it fills) runs inline.  A block's exception is
    raised here once every block has finished.
    """
    step = max(1, BLOCK_VALUES // max(1, unit))
    bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    if len(bounds) < 2 or WORKERS < 2 or getattr(_thread, "in_pool", False):
        for lo, hi in bounds:
            fn(lo, hi)
        return
    from queue import SimpleQueue

    done, tasks = SimpleQueue(), _start()
    for lo, hi in bounds:
        tasks.put((fn, lo, hi, done))
    errors = [done.get() for _ in bounds]
    for error in errors:
        if error is not None:
            raise error


def _start():
    global _tasks
    with _start_lock:
        if _tasks is None:
            from queue import SimpleQueue

            _tasks = SimpleQueue()
            for _ in range(WORKERS):
                threading.Thread(target=_serve, args=(_tasks,), name="polarcube-block",
                                 daemon=True).start()
        return _tasks


def _forget_pool():
    """In a forked child, which has none of the pool's threads: start afresh."""
    global _tasks, _start_lock
    _tasks, _start_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _serve(tasks):
    """A pool thread: run blocks until it takes ``None`` from ``tasks``."""
    _thread.in_pool = True
    for task in iter(tasks.get, None):
        _run(*task)
        del task  # an idle thread must not keep the last job's arrays alive


def _run(fn, lo, hi, done):
    try:
        fn(lo, hi)
    except BaseException as error:  # the caller raises it
        done.put(error)
    else:
        done.put(None)

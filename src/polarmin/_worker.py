"""The package's second core: one persistent worker thread.

A split computation runs its first half on the calling thread and its
second half on the worker, and both halves write into arrays or lists that
do not overlap, so the result is the same on any number of cores.  Work
that releases the GIL (numpy's array loops and FFTs) runs in parallel.
The property suite (verify.run_property_suite) and the nonlocal
convolution (energy.kernel_convolve) split their work through here.

concurrent.futures is imported on the first split, not with the package:
importing it costs about 6 ms.
"""

from __future__ import annotations

import os
import threading

_lock = threading.Lock()
_pool = None


def cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _executor():
    """The one-thread pool, made on first use and kept for the process."""
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(1, thread_name_prefix="polarmin")
        return _pool


def _forget_pool() -> None:
    """In a forked child, which has no copy of the worker thread: a pool
    inherited from the parent would queue halves that no thread runs and
    keep their arrays, so the child makes its own on first use."""
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_forget_pool)


def in_halves(fn, extent: int) -> list:
    """The results of fn on slices that cover range(extent), in order.

    With a second core that is [fn(slice(0, mid)), fn(slice(mid, extent))]
    with mid = (extent + 1) // 2: the second half is handed to the worker
    thread while the calling thread runs the first, and the calling thread
    runs it too when the worker has not started it by then (another
    caller's half may hold the worker, or its core may be busy).  So a
    call made on the worker itself runs both halves there and never waits
    for itself.  With one core it is [fn(slice(0, extent))] on the calling
    thread.  When a half raises, the other half has finished or will never
    start before the error propagates; the first half's error is raised if
    both raise.
    """
    if extent < 2 or cores() < 2:
        return [fn(slice(0, extent))]
    mid = (extent + 1) // 2
    second = _executor().submit(fn, slice(mid, extent))
    try:
        first = fn(slice(0, mid))
    except BaseException:
        if not second.cancel():
            second.exception()  # waits for the worker's half to stop
        raise
    if second.cancel():  # the worker has not started it: run it here
        return [first, fn(slice(mid, extent))]
    return [first, second.result()]

"""Independent items of work in forked worker processes.

``_fan_out(items, work)`` calls ``work`` once on each item and returns the
results in item order.  Its two callers, ``distance._FieldPlan.scan`` and
``suites.run_suites``, say what their items are.  A run of ``wulffkit all``
makes one fan-out: ``run_suites`` plans every distance field before it
forks, and its items are the run's field-free work, every block of every
field, and last each body's parts of the suites that read the fields; such
a part waits for its own fields' blocks in flight (``_FieldPlan.scan``).
There is one fan-out level: a worker is pinned to one CPU, so a
``_fan_out`` inside it sees one usable CPU and runs its items in-process.
Whether the items run in workers or in-process, the outputs are the same:
the field's bits, and a run's exit code, messages, report.json and CSV
bytes.

One policy serves both: one worker per usable CPU, at most one per item,
each pinned to its own CPU of the caller's set; the caller does no work and
waits; and the items run in-process, in order, with fewer than
``FAN_OUT_ITEMS`` of them, with one usable CPU, on a platform without
``fork`` or ``sched_getaffinity``, or while another thread runs, since
forking a threaded process can deadlock the child.  Workers are pinned
because the scheduler may keep forked children on their parent's CPU: on a
2-vCPU VM, two unpinned spinning children shared one CPU for 0.7 s while
the other stayed idle.  A worker also runs numpy's OpenBLAS on one thread:
where the loaded library has ``set_num_threads`` (``_blas_threads``), the
caller sets one thread while it forks and its own count again once the
workers are reaped.  On a 2-vCPU VM without a BLAS variable, a forked
weighted-3d `all` took 0.22-0.28 s with workers that kept the caller's two
threads, and 0.15-0.21 s with one.

A worker on glibc also keeps the memory it frees (``_keep_freed_memory``).
By default glibc serves a request above its mapping threshold (128 KiB,
sliding up to the largest such block freed), such as a block's numpy
temporaries, from a mapping of its own that ``free`` unmaps, and gives back
the top of the heap past twice that, so the next such request faults its
pages in again: a worker raises the mapping threshold to 32 MiB and the trim
threshold far above its peak, so those requests reuse heap pages.  On one
pass, the workers' minor page faults fell from 75k to 31k on shipped-2d and
from 20k to 11k on weighted-3d (2-vCPU VM).  Workers leave by ``os._exit``,
and the caller's allocator is never touched.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import mmap
import os
import pickle
import selectors
import signal
import threading
import traceback

import numpy as np

# fewest items that are split across worker processes.  Measured on a 2-vCPU
# x86 VM with one BLAS thread per process, as the benchmark runs: forking two
# workers for four empty items, their exit and reaping take 1.1-1.5 ms (39 MB
# process).  A run of `all` makes one fan-out: on a shipped-2d pass its
# workers start 0.8-3.4 ms after the call and end 0.7-3.3 ms before it
# returns, around 68-288 items of 0.22 ms in the median, most of them field
# blocks.  Three items stay in-process: wulff_d3's dual, wulff and body read
# 15-18 ms per `all` so and 17-20 ms forked.  Four are split: weighted-3d's
# two bodies and dual and wulff read 44-53 ms forked and 77-89 ms in-process
FAN_OUT_ITEMS = 4

# glibc's mallopt parameters, and the thresholds a worker sets: requests up
# to 32 MiB, the most glibc's own sliding threshold reaches on 64-bit, come
# from the heap, and free never trims it below 1 GiB
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


def _keep_freed_memory():
    """Make glibc's malloc keep this process's freed memory for reuse; a
    no-op on any other C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


@functools.cache
def _blas_threads():
    """(get_num_threads, set_num_threads) of the OpenBLAS that numpy's core
    extension links, under any of OpenBLAS's symbol spellings, or None where
    it links none that has them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, ()
            put.restype, put.argtypes = None, (ctypes.c_int,)
            return get, put
    return None


def _usable_cpus() -> int:
    """CPUs this process may fan out over, or 1 where the platform cannot
    fork or cannot tell."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _workers(count: int) -> int:
    """Worker processes ``_fan_out`` starts for ``count`` items; 0 when they
    run in-process."""
    n = min(_usable_cpus(), count)
    if n < 2 or count < FAN_OUT_ITEMS or threading.active_count() > 1:
        return 0
    return n


def _fan_out(items, work):
    """[work(item) for item in items], in forked worker processes.

    Workers claim the items first come, first served, in list order: the
    index of the next item sits in a shared mapping, and only the holder of
    a one-byte token in a pipe reads and advances it.  A worker sends the
    (index, result) pairs of its items, pickled, down its report pipe when
    it runs out of items; results must pickle.  The caller does no work.  It
    reads each worker's report pipe until the worker ends and reaps it; at
    the first failure it kills and reaps the others and raises.  A worker's
    exception reaches the caller with its type, message and attributes, and
    the worker's traceback in a note; a worker that ends without a report
    raises a RuntimeError that names its exit status.  A worker whose parent
    is gone stops before its next item.

    The items run in-process, in order, where ``_workers`` says so.
    """
    items = list(items)
    n = _workers(len(items))
    if n == 0:
        return [work(item) for item in items]
    cpus = sorted(os.sched_getaffinity(0))
    # the index of the next item
    claimed = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    token_r, token_w = os.pipe()
    os.write(token_w, b".")
    parent = os.getpid()

    def run_worker(report, cpu):
        # a worker reports whatever ends it, and always leaves by os._exit,
        # never returning into the caller's stack or running its exit handlers
        status = 0
        try:
            try:
                # placement only: a CPU that left the set since the fork
                # leaves the worker where the scheduler put it
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, {cpu})
                _keep_freed_memory()
                done = []
                while os.getppid() == parent:
                    os.read(token_r, 1)
                    i = int(claimed[0])
                    claimed[0] = i + 1
                    os.write(token_w, b".")
                    if i >= len(items):
                        break
                    done.append((i, work(items[i])))
                data = pickle.dumps(done)
            except BaseException as exc:
                status = 1
                if hasattr(exc, "add_note"):
                    exc.add_note("in a worker process:\n" + traceback.format_exc())
                try:
                    data = pickle.dumps(exc)
                    pickle.loads(data)
                except Exception:
                    data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            with os.fdopen(report, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(status)

    results = [None] * len(items)
    running = {}  # pid -> read end of its report pipe
    # the workers inherit one BLAS thread: a worker that set it itself would
    # first rebuild the thread pool that OpenBLAS shuts down at a fork, and
    # the new thread would spin on the worker's CPU
    blas = _blas_threads()
    threads = blas and blas[0]()
    try:
        if blas:
            blas[1](1)
        for k in range(n):
            report_r, report_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(report_r)
                os.close(report_w)
                raise
            if pid == 0:
                run_worker(report_w, cpus[k % len(cpus)])
            os.close(report_w)
            running[pid] = report_r
        reports = dict.fromkeys(running, b"")
        with selectors.DefaultSelector() as sel:
            for pid, fd in running.items():
                sel.register(fd, selectors.EVENT_READ, pid)
            while running:
                for key, _ in sel.select():
                    pid = key.data
                    chunk = os.read(key.fd, 1 << 16)
                    reports[pid] += chunk
                    if chunk:
                        continue
                    sel.unregister(key.fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    os.close(running.pop(pid))
                    report = reports.pop(pid)
                    if code == 0 and report:
                        for i, result in pickle.loads(report):
                            results[i] = result
                        continue
                    if report:
                        raise pickle.loads(report)
                    how = f"signal {-code}" if code < 0 else f"exit status {code}"
                    raise RuntimeError(f"worker process {pid} ended without a report, {how}")
    finally:
        for pid, fd in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        for fd in (token_r, token_w):
            os.close(fd)
        if blas:
            blas[1](threads)
    return results

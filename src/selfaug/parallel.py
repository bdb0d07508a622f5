"""Every thread, process and per-process setting selfaug uses.

`SIDE_BY_SIDE_MIN` is the one cut-off for a second thread, which
`worth_two_threads` tests, and `PROCESS_MIN_ROWS` the fewest rows of a
split a forked process takes.  By that test a dual step runs its two
streams `beside` or `at_once`, and the one eval-mode pass,
`training.EvalPass`, has `runs` cut a split into contiguous runs of whole
batches: two, one per thread, or one per process.  `inheriting_pool`
then has a thread or forked workers take every run but the first.
`processes` says how many processes share a sweep's cells.  A thread
lives only inside the call that starts it, so none is alive when a pool
forks its workers.  `multiprocessing` and `concurrent.futures` are
imported where a pool or a thread starts, so a process that starts
neither does not import them.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import platform
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import (Future, ProcessPoolExecutor,
                                    ThreadPoolExecutor)

T = TypeVar("T")

# packed rows x d_model^2 from which a batch's encoder work runs on two
# threads: a dual step's two streams side by side, and evaluation and
# export batches in two runs, one per thread.  A row's GEMMs grow as
# d_model^2 while its per-op Python work does not, so a narrow model needs
# more rows to pay for the second thread.  Time on two threads over time
# on one, on a 2-core host at one BLAS thread, medians of 15 interleaved
# repeats, each range over separate runs (the ratio moves with the host's
# load): a dual step at d_model 128 (wide's width) read 0.70-1.13 at 128
# rows, 0.58-0.99 at 256 and 0.55-0.67 at 512 and 1,024; at d_model 32
# (desk's) 1.11-1.16 at 128 and 256 rows, 0.56-1.10 at 1,024, 0.75-1.11 at
# 2,048, 0.55-1.01 at 4,096 and 0.51-0.66 at 8,192.  Eight evaluation
# batches read 0.62-0.64 at d_model 128 and 256 rows; at d_model 32 0.95
# at 1,024 rows, 0.70-0.99 at 2,048, 0.54-0.62 at 4,096 and 0.58-0.65 at
# 8,192.  The cut-off keeps 256 rows at d_model 128 and takes 4,096 at
# d_model 32, which leaves desk's batches and screen's 1,152-row export
# batches on one thread.
SIDE_BY_SIDE_MIN = 32_768 * 128

# the fewest rows of a split a forked process takes, so the small splits
# of desk and of the tests stay in the calling process.  A pool's start
# and join, and its worker's first touches of an inherited heap, cost a
# fixed 10-40 ms.  Two processes' time over one process's, after
# training screen's model in the same process, on a 2-core host,
# medians of 15-21 alternating calls, each range over seeds (the ratio
# moves with the host's load): evaluation at desk's width, in merged
# forwards, read 0.94-1.19 at 1,000-1,024 rows (two faster in 5 to 18
# of 15 to 21 pairs), 0.82-0.99 at 1,500, 0.77-1.00 at 2,000-2,048 and
# 0.64-0.75 at 3,000-4,000; an export in batches of 128 read 0.91-1.13
# at 1,000-1,024 rows, 0.95-1.01 at 1,500, 0.73-0.91 at 2,000-2,048 and
# 0.76-0.86 at 3,000-8,000.  So two processes start from 2,000 rows
PROCESS_MIN_ROWS = 1_000

# glibc's mallopt parameters (malloc.h) and the values
# `keep_freed_memory` gives them
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
# glibc's ceiling for the mmap threshold on 64-bit: activations up to
# this size come from the heap, whose freed blocks the next step reuses
MMAP_THRESHOLD_BYTES = 32 * 2**20
# far above one step's graph (about 80 MB on the benchmark's wide model),
# so the heap a step frees stays in the process for the next forward
TRIM_THRESHOLD_BYTES = 2**30
# one heap for every thread: a dual step's second stream then frees into,
# and allocates from, the heap the rest of the step uses
ARENA_MAX = 1

# every pool's start method, by name.  A forked worker starts with its
# parent's state, which an export's workers read instead of having it
# pickled to them; Python 3.14 makes forkserver the default on Linux.
# multiprocessing offers "fork" wherever os.fork exists.  None where the
# platform cannot fork: a sweep's pool then takes the platform's
# default, and an export runs in the calling process
FORK = "fork" if hasattr(os, "fork") else None


def worth_two_threads(rows: float, d_model: int) -> bool:
    """Whether an encoder forward over `rows` packed rows at `d_model`
    pays for a second thread: from SIDE_BY_SIDE_MIN rows x d_model^2."""
    return rows * d_model * d_model >= SIDE_BY_SIDE_MIN


def thread_pool() -> ThreadPoolExecutor:
    """A pool of one thread of this process, which runs what it is given
    in order: every thread selfaug starts is one of these."""
    # imported here: processes that never start a thread skip its import
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1)


@contextmanager
def beside(fn: Callable[[], T]) -> Iterator[Callable[[], T]]:
    """Run fn() on a thread of its own while the block runs.  The block
    gets a function that waits for fn and returns its value or raises its
    exception; the thread is joined when the block exits, also on error."""
    with thread_pool() as pool:
        yield pool.submit(fn).result


@contextmanager
def at_once(fn: Callable[[], T]) -> Iterator[Callable[[], T]]:
    """`beside` with fn run at once, on this thread."""
    value = fn()
    yield lambda: value


def processes(workers: int | None, tasks: int) -> int:
    """How many processes share `tasks` independent tasks: `workers`
    (default: the CPUs in this process's affinity mask, else the
    machine's count; a cgroup's CPU quota is not read), never more than
    the tasks and never fewer than one."""
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:
            workers = os.cpu_count() or 1
    return max(1, min(workers, tasks))


def process_pool(workers: int, initializer: Callable | None = None,
                 initargs: tuple = ()) -> ProcessPoolExecutor:
    """A pool of `workers` processes, forked where the platform can
    fork, that each call `initializer(*initargs)` first; a forked worker
    inherits the arguments instead of unpickling them."""
    # imported here: processes that never start a pool skip their import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(FORK) if FORK else None
    return ProcessPoolExecutor(workers, mp_context=context,
                               initializer=initializer, initargs=initargs)


def shared(*shape: int, dtype=np.float64) -> np.ndarray:
    """A zeroed array in anonymous shared memory: what a process forked
    after this call writes to it, its parent reads, and the other way
    round."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def runs(n: int, batch_size: int, workers: int | None,
         on_threads: bool) -> list[slice]:
    """Contiguous runs over a split of `n` rows that share its batches of
    `batch_size` as evenly as whole batches can, so that a run's batch i
    is the batch one pass over all `n` rows makes of those rows.  Batches
    worth two threads (`on_threads`) get up to two runs, one per thread.
    Otherwise there are `processes(workers, ...)` runs, one per process,
    no more than one per PROCESS_MIN_ROWS rows, and one where the platform
    cannot fork.  There are never more runs than batches, so none is
    empty."""
    n_batches = -(-n // batch_size)
    if on_threads:
        count = min(2, n_batches)
    elif FORK is None:
        count = 1
    else:
        count = processes(workers, min(n_batches, n // PROCESS_MIN_ROWS))
    starts = [n_batches * r // count * batch_size for r in range(count)]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


# an `inheriting_pool` worker's phases by name, which the pool's
# initializer, `_inherited.update`, fills in from what it inherited
_inherited: dict[str, Callable] = {}


def _run_inherited(phase: str, *args) -> None:
    _inherited[phase](*args)


@contextmanager
def inheriting_pool(count: int, on_threads: bool,
                    **phases: Callable[..., None]) \
        -> Iterator[Callable[..., list[Future]]]:
    """What takes runs 1 to `count` - 1 of a split's `count` runs (see
    `runs`); run 0 is the caller's.  The block gets start(phase, *args),
    which has phases[phase](run, *args) called for each of those runs and
    returns the futures in run order; at a count of one it starts
    nothing.  `on_threads`, a `thread_pool` takes run 1.  Otherwise
    workers forked from this process take the runs, and inherit `phases`
    instead of unpickling them, so a phase may be a closure.  The thread
    or the pool is joined when the block exits, also on error."""
    if count == 1:
        yield lambda phase, *args: []
    elif on_threads:
        with thread_pool() as pool_:
            yield lambda phase, *args: [
                pool_.submit(phases[phase], 1, *args)]
    else:
        with process_pool(count - 1, _inherited.update,
                          (phases,)) as pool_:
            yield lambda phase, *args: [
                pool_.submit(_run_inherited, phase, run, *args)
                for run in range(1, count)]


@functools.cache  # the settings hold for the whole process
def keep_freed_memory() -> None:
    """Have glibc keep the memory a training step frees, in one heap, once
    per process.

    By default glibc serves large arrays from fresh mmaps and returns the
    top of the heap to the kernel once enough of it is free, so every
    step's forward faults in again the pages the last step's graph gave
    back.  Setting either value turns off glibc's dynamic thresholds, and
    on the benchmark's wide workload either one alone faulted in more
    pages than neither, so the trim threshold is set only once the mmap
    threshold is accepted.  So is the cap of one malloc arena: without it
    the thread that runs a dual step's second stream (see `beside`) gets
    an arena of its own, whose freed blocks only a thread on that arena
    reuses.  Each stream allocates and frees on one thread, so on the
    wide workload the cap saved only 1-2 MB of peak RSS (three runs
    each); it keeps one heap should that ever change.  Off glibc, or
    when libc or `mallopt` cannot be loaded, nothing changes.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1:
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
        mallopt(M_ARENA_MAX, ARENA_MAX)


@functools.cache  # the setting holds for the whole process
def one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, once per process.

    A GEMM's last bits depend on how many threads OpenBLAS splits it
    over, which it takes from the host's core count unless
    OPENBLAS_NUM_THREADS says otherwise, so without this a checkpoint
    would depend on the host.  One thread also leaves the second core to
    a dual step's second stream, or to a second sweep worker.  The
    library is numpy's `numpy.libs/libscipy_openblas64_*.so`, set through
    the function threadpoolctl uses for it; where no such library loads
    (another BLAS, or none), nothing changes.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            set_threads = ctypes.CDLL(str(path)).\
                scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        return

"""Deterministic index-parallel evaluation by fork-join over row blocks.

Work is split into one span of consecutive indices per process, and
`fn(lo, hi)` computes one span as a block: a tuple of arrays with one row
per index. The caller runs the first span itself; each other span runs in
a child forked for this call, which already holds `fn` and everything it
closes over, so nothing is pickled on the way in. A child pickles its
block's arrays (or its exception) into a pipe and leaves by `os._exit`, so
it never returns into the caller's stack and never runs the caller's exit
handlers. The caller flushes its std streams before forking, so a child
inherits empty buffers and flushes only what it wrote itself. The caller
then reads the pipes in index order, joins the blocks row by row and reaps
every child before it returns or raises.

A call forks only when every process gets at least `_MIN_PER_WORKER`
(256) items; smaller calls run in the caller. Measured on a 2-core
machine, a trivial fork-join costs 2.7 ms in a fresh process and 4-6 ms
after a quick_lp solve has grown the heap. The fork also leaves every
page of the caller copy-on-write, so the caller takes a minor fault on
each page it writes again, after the call as well: a quick_lp solve run
after one fork-join took about 1000 more faults and 4 ms more system time
than one run after none. The parent's half-span runs about as long as the
whole serial span (faults on both sides). So a 150-scenario lp2d solve
span took 3.2-5.9 ms in one process against 5.8-10.0 ms in two, and
200-scenario full3d solve spans gained under 10 %, while the 1000-path
full3d evaluation still gains about 40 % (in-process medians of 0.30 s
serial against 0.18 s in two).

Each simulated scenario owns its random stream, so a result never depends
on which span holds its index or on how many processes share the work.
Without `os.fork` every call runs serially.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import BinaryIO, Callable

import numpy as np

Block = tuple[np.ndarray, ...]  # arrays with one row per index of a span

_MIN_PER_WORKER = 256  # below this, a fork costs more than the span saves

# No pool is ever started here. bench/spans.py wraps this name to count pool
# starts as `parallel.pools`, so it stays a plain attribute that imports
# nothing, and multiprocessing stays out of every command's start.
ProcessPoolExecutor = None


class WorkerTraceback(Exception):
    """The traceback text of an exception raised in a forked worker."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def default_workers() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def indexed_map(fn: Callable[[int, int], Block], count: int,
                workers: int = 1) -> Block:
    """The row blocks of items 0..count-1, computed span by span.

    `fn(lo, hi)` returns a tuple of arrays, each with one row per item
    lo..hi-1, and the call returns those arrays joined row by row, so each
    field holds `count` rows in index order. It uses
    `min(workers, count // 256)` processes, itself included, one contiguous
    span each; a serial run is the single call `fn(0, count)`, whose block
    is returned as it is (zero-row arrays for `count` 0). Below 256 items
    per process, the fork, the child's start-up and the copy-on-write
    faults cost more than the split saves (measured in the module
    docstring). The result is identical for any worker count as long as
    item i is self-contained (draws only from streams derived from i).
    """
    n = min(int(workers), count // _MIN_PER_WORKER)
    if n <= 1 or not hasattr(os, "fork"):
        return fn(0, count)

    bounds = [count * j // n for j in range(n + 1)]
    _flush_std_streams()
    children: list[tuple[int, BinaryIO]] = []
    reaped = 0
    try:
        for j in range(1, n):
            children.append(_fork_span(fn, bounds[j], bounds[j + 1]))
        blocks = [fn(bounds[0], bounds[1])]
        for j, (pid, pipe) in enumerate(children, 1):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped += 1
            blocks.append(_unpack(data, j, status))
        return tuple(np.concatenate(field) for field in zip(*blocks))
    finally:
        for pid, pipe in children[reaped:]:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass


def _fork_span(fn: Callable[[int, int], Block], lo: int,
               hi: int) -> tuple[int, BinaryIO]:
    """Fork a child that sends the outcome of span lo..hi-1 down a pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(_outcome(fn, lo, hi))
            code = 0
        finally:
            try:
                _flush_std_streams()
            finally:
                os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _outcome(fn: Callable[[int, int], Block], lo: int, hi: int) -> bytes:
    """A span's pickled (block, None, ""), or (None, exception, traceback).

    An exception that cannot make the round trip is sent as (None, None,
    traceback).
    """
    try:
        return pickle.dumps((fn(lo, hi), None, ""), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        text = traceback.format_exc()
        try:
            payload = pickle.dumps((None, exc, text), pickle.HIGHEST_PROTOCOL)
            pickle.loads(payload)  # some exceptions pickle but cannot be rebuilt
            return payload
        except Exception:
            return pickle.dumps((None, None, text), pickle.HIGHEST_PROTOCOL)


def _unpack(data: bytes, j: int, status: int) -> Block:
    """The block sent by worker j; raises the error it raised or died of."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:  # a child exits 0 only once its whole outcome is written
        how = f"exit status {code}" if code > 0 else f"signal {-code}"
        raise RuntimeError(f"worker {j} died without sending a result ({how})")
    block, exc, text = pickle.loads(data)
    if exc is not None:
        raise exc from WorkerTraceback(text)
    if block is None:
        raise RuntimeError(f"worker {j} raised an exception that cannot be "
                           f"sent back:\n{text}")
    return block

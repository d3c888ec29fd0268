"""Deterministic index-parallel evaluation by fork-join.

Work is split into one span of consecutive indices per process, and
`fn(lo, hi)` computes the results of one span as a block. The caller runs
the first span itself; each other span runs in a child forked for this
call, which already holds `fn` and everything it closes over, so nothing
is pickled on the way in. A child pickles its results (or its exception)
into a pipe and leaves by `os._exit`, so it never returns into the
caller's stack and never runs the caller's exit handlers. The caller
flushes its std streams before forking, so a child inherits empty buffers
and flushes only what it wrote itself. The caller then reads the pipes in
index order and reaps every child before it returns or raises.

A call forks only when every process gets at least `_MIN_PER_WORKER`
(256) items; smaller calls run in the caller. Measured on a 2-core
machine, a trivial fork-join costs 2.3 ms, and the parent's half-span
runs about as long as the whole serial span (copy-on-write faults on both
sides). So a 150-scenario lp2d solve span took 3.2-5.9 ms in one process
against 5.8-10.0 ms in two, and 200-scenario full3d solve spans gained
under 10 %, while the 1000-path full3d evaluation still roughly halves
(0.87 against 0.46 s).

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
# no pool is started here; `ProcessPoolExecutor` stays a module attribute
# because bench/spans.py counts its constructions as `parallel.pools`
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from typing import BinaryIO, Callable, Sequence, TypeVar

T = TypeVar("T")

_MIN_PER_WORKER = 256  # below this, a fork costs more than the span saves


class WorkerTraceback(Exception):
    """The traceback text of an exception raised in a forked worker."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def default_workers() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def indexed_map(fn: Callable[[int, int], Sequence[T]], count: int,
                workers: int = 1) -> list[T]:
    """The results for items 0..count-1, computed span by span.

    `fn(lo, hi)` returns the hi - lo results of items lo..hi-1. The call
    uses `min(workers, count // 256)` processes, itself included, one
    contiguous span each; a serial run is one span. Below 256 items per
    process, the fork, the child's start-up and the copy-on-write faults
    cost more than the split saves (measured in the module docstring).
    Results are returned in index order and are identical for any worker
    count as long as item i is self-contained (draws only from streams
    derived from i).
    """
    if count <= 0:
        return []
    n = min(int(workers), count // _MIN_PER_WORKER)
    if n <= 1 or not hasattr(os, "fork"):
        return list(fn(0, count))

    bounds = [count * j // n for j in range(n + 1)]
    _flush_std_streams()
    children: list[tuple[int, BinaryIO]] = []
    reaped = 0
    try:
        for j in range(1, n):
            children.append(_fork_span(fn, bounds[j], bounds[j + 1]))
        out = list(fn(bounds[0], bounds[1]))
        for j, (pid, pipe) in enumerate(children, 1):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped += 1
            out.extend(_unpack(data, j, status))
        return out
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


def _fork_span(fn: Callable[[int, int], Sequence[T]], lo: int,
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


def _outcome(fn: Callable[[int, int], Sequence[T]], lo: int, hi: int) -> bytes:
    """A span's pickled (results, None, ""), or (None, exception, traceback).

    An exception that cannot make the round trip is sent as (None, None,
    traceback).
    """
    try:
        return pickle.dumps((list(fn(lo, hi)), None, ""), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        text = traceback.format_exc()
        try:
            payload = pickle.dumps((None, exc, text), pickle.HIGHEST_PROTOCOL)
            pickle.loads(payload)  # some exceptions pickle but cannot be rebuilt
            return payload
        except Exception:
            return pickle.dumps((None, None, text), pickle.HIGHEST_PROTOCOL)


def _unpack(data: bytes, j: int, status: int) -> list:
    """The results sent by worker j; raises the error it raised or died of."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:  # a child exits 0 only once its whole outcome is written
        how = f"exit status {code}" if code > 0 else f"signal {-code}"
        raise RuntimeError(f"worker {j} died without sending a result ({how})")
    results, exc, text = pickle.loads(data)
    if exc is not None:
        raise exc from WorkerTraceback(text)
    if results is None:
        raise RuntimeError(f"worker {j} raised an exception that cannot be "
                           f"sent back:\n{text}")
    return results

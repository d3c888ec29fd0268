"""Deterministic index-parallel evaluation via fork-based worker pools.

Work is split into spans of consecutive indices, and `fn(lo, hi)` computes
the results of one span as a block. Each simulated scenario owns its
random stream, so a result never depends on which span holds its index,
on which worker runs the span or in which order. The work closure is
handed to children through fork inheritance (set as a module global
before the pool starts) to avoid pickling large models per task.
"""
from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

_WORK: Callable[[int, int], Sequence] | None = None

_MIN_PER_WORKER = 16  # below this, pool overhead beats the speedup


def _run_span(span: tuple[int, int]) -> Sequence:
    fn = _WORK
    assert fn is not None
    return fn(*span)


def default_workers() -> int:
    return os.cpu_count() or 1


def indexed_map(fn: Callable[[int, int], Sequence[T]], count: int,
                workers: int = 1) -> list[T]:
    """The results for items 0..count-1, computed span by span.

    `fn(lo, hi)` returns the hi - lo results of items lo..hi-1. A serial
    run is one span; forked workers split the items into several. Results
    are returned in index order and are identical for any worker count as
    long as item i is self-contained (draws only from streams derived
    from i).
    """
    global _WORK
    if count <= 0:
        return []
    workers = max(1, int(workers))
    if workers == 1 or count < 2 * _MIN_PER_WORKER or "fork" not in mp.get_all_start_methods():
        return list(fn(0, count))

    n_spans = min(workers * 4, max(1, count // _MIN_PER_WORKER))
    bounds = [count * j // n_spans for j in range(n_spans + 1)]
    spans = [(bounds[j], bounds[j + 1]) for j in range(n_spans) if bounds[j] < bounds[j + 1]]

    _WORK = fn
    try:
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            out: list[T] = []
            for part in pool.map(_run_span, spans):
                out.extend(part)
        return out
    finally:
        _WORK = None

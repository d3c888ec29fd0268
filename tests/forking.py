"""Make `parallel.indexed_map` fork the small test batches, and count forks.

The production floor of 256 items per process keeps test-sized batches in
the caller, so a `workers=2` run would match a serial one trivially. Under
`forked_spans` the floor is 16, as it was when these batch sizes were
chosen, and every span forked by the caller is recorded as `(lo, hi)`.
"""
import contextlib

import pytest

from epidetect import parallel

TEST_FLOOR = 16


@contextlib.contextmanager
def forked_spans():
    """The `(lo, hi)` of every span forked while the context is open."""
    forks = []
    fork_span = parallel._fork_span

    def spy(fn, lo, hi):
        forks.append((lo, hi))
        return fork_span(fn, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "_MIN_PER_WORKER", TEST_FLOOR)
        mp.setattr(parallel, "_fork_span", spy)
        yield forks

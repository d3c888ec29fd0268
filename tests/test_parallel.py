"""Fork-join `parallel.indexed_map`: row-block joins, large results, failures, cleanup."""
import os
import signal
import sys
import time

import numpy as np
import pytest

from epidetect import parallel

from .forking import TEST_FLOOR

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

FLOOR = parallel._MIN_PER_WORKER  # the fewest items a forked process gets


@pytest.fixture(autouse=True)
def no_child_survives():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def draws(lo, hi):
    """Item i's row: three int64 and one float64 draw seeded by i."""
    rngs = [np.random.default_rng(i) for i in range(lo, hi)]
    ints = np.array([g.integers(0, 2**62, 3) for g in rngs], dtype=np.int64)
    return ints.reshape(hi - lo, 3), np.array([g.random() for g in rngs])


def pids(lo, hi):
    return (np.full(hi - lo, os.getpid()),)


def span(lo, hi):
    return (np.arange(lo, hi),)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2 * TEST_FLOOR - 1, 2 * TEST_FLOOR,
                                   2 * TEST_FLOOR + 1, 9 * TEST_FLOOR + 7])
def test_index_order_matches_serial(workers, count, forks):
    """Spans around the lowered floor; the production one is tested below."""
    assert parallel._MIN_PER_WORKER == TEST_FLOOR
    out = parallel.indexed_map(draws, count, workers)
    # a 2-D int64 and a 1-D float64 field, zero-row blocks for no items
    for got, want in zip(out, draws(0, count), strict=True):
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert np.array_equal(got, want)
    (by_pid,) = parallel.indexed_map(pids, count, workers)
    processes = max(1, min(workers, count // TEST_FLOOR))
    assert len(set(by_pid.tolist())) == min(count, processes)
    assert len(forks) == 2 * (processes - 1)
    assert by_pid[:1].tolist() == [os.getpid()][:count]  # the caller runs the first span


def test_results_larger_than_a_pipe_buffer():
    size = 320_000 // FLOOR  # a span sends 2.56 MB whatever the floor

    def big(lo, hi):
        return (np.repeat(np.arange(lo, hi, dtype=float)[:, None], size, axis=1),)

    (out,) = parallel.indexed_map(big, 3 * FLOOR, 3)
    assert out[FLOOR:2 * FLOOR].nbytes > 64 * 1024
    assert np.array_equal(out, big(0, 3 * FLOOR)[0])


def test_worker_exception_keeps_its_type_and_traceback():
    def fail_in_worker(lo, hi):
        if lo > 0:
            raise ValueError(f"bad span {lo}")
        return span(lo, hi)

    with pytest.raises(ValueError, match=f"bad span {FLOOR}") as info:
        parallel.indexed_map(fail_in_worker, 3 * FLOOR, 3)
    cause = info.value.__cause__
    assert isinstance(cause, parallel.WorkerTraceback)
    assert "Traceback (most recent call last)" in str(cause)
    assert "in fail_in_worker" in str(cause)


def test_unpicklable_exception_becomes_runtime_error():
    class Local(Exception):  # a local class cannot be pickled
        pass

    def fail_in_worker(lo, hi):
        if lo > 0:
            raise Local("only here")
        return span(lo, hi)

    with pytest.raises(RuntimeError, match="worker 1 raised") as info:
        parallel.indexed_map(fail_in_worker, 2 * FLOOR, 2)
    assert "Local: only here" in str(info.value)


def test_worker_that_exits_names_worker_and_status():
    def exit_in_last(lo, hi):
        if lo == 2 * FLOOR:
            os._exit(7)
        return span(lo, hi)

    with pytest.raises(RuntimeError, match=r"worker 2 .*\(exit status 7\)"):
        parallel.indexed_map(exit_in_last, 3 * FLOOR, 3)


def test_worker_killed_by_a_signal():
    def killed(lo, hi):
        if lo > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return span(lo, hi)

    with pytest.raises(RuntimeError, match=rf"worker 1 .*\(signal {signal.SIGKILL:d}\)"):
        parallel.indexed_map(killed, 2 * FLOOR, 2)


def test_caller_failure_kills_and_reaps_the_children():
    def caller_fails(lo, hi):
        if lo == 0:
            raise KeyError("caller")
        time.sleep(60)
        return span(lo, hi)

    start = time.monotonic()
    with pytest.raises(KeyError):
        parallel.indexed_map(caller_fails, 3 * FLOOR, 3)
    assert time.monotonic() - start < 30


def test_buffered_stdout_is_printed_once(tmp_path, monkeypatch):
    path = tmp_path / "stdout.txt"
    with open(path, "w") as buffered:  # block-buffered, as when piped
        monkeypatch.setattr(sys, "stdout", buffered)
        print("written before the call")

        def spans(lo, hi):
            print(f"span {lo}")
            return span(lo, hi)

        (out,) = parallel.indexed_map(spans, 3 * FLOOR, 3)
        assert np.array_equal(out, np.arange(3 * FLOOR))
        monkeypatch.undo()
    lines = path.read_text().splitlines()
    assert sorted(lines) == sorted(["span 0", f"span {FLOOR}", f"span {2 * FLOOR}",
                                    "written before the call"])


def test_serial_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    (by_pid,) = parallel.indexed_map(pids, 4 * FLOOR, 3)
    assert by_pid.tolist() == [os.getpid()] * (4 * FLOOR)


def test_production_floor_at_two_workers():
    """One process below 2 x 256 items, two from there on."""
    assert FLOOR == 256
    assert set(parallel.indexed_map(pids, 2 * FLOOR - 1, 2)[0].tolist()) == {os.getpid()}
    by_pid = parallel.indexed_map(pids, 2 * FLOOR, 2)[0].tolist()
    assert by_pid == [os.getpid()] * FLOOR + [by_pid[-1]] * FLOOR
    assert by_pid[-1] != os.getpid()


def test_default_workers_counts_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert parallel.default_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel.default_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.default_workers() == 1


def test_process_pool_executor_is_a_module_attribute():
    """bench/spans.py wraps the name and restores what the module held."""
    assert "ProcessPoolExecutor" in vars(parallel)

"""The supervised process pool: crash recovery, abandonment, shutdown.

Workers die the way an OOM kill ends them (``os._exit``, no cleanup),
so every test runs a real process pool; the callables are tiny.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.util.pool import REBUILD_BACKOFF, SupervisedPool, WorkerLost

TIMEOUT_S = 60


def _crash_once(marker: str) -> str:
    """Dies hard the first time it runs anywhere; clean ever after."""
    try:
        with open(marker, "x", encoding="utf-8") as fh:
            fh.write("fired\n")
    except FileExistsError:
        return "survived"
    os._exit(117)


def _always_crash() -> None:
    os._exit(117)


def _crash_after(delay_s: float, log: str) -> None:
    with open(log, "a", encoding="utf-8") as fh:
        fh.write("ran\n")
    time.sleep(delay_s)
    os._exit(117)


def _nap(delay_s: float) -> str:
    time.sleep(delay_s)
    return "rested"


def _record_pid_and_hang(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(str(os.getpid()))
    time.sleep(TIMEOUT_S)


def _pool(workers: int) -> SupervisedPool:
    return SupervisedPool(workers, sleep=lambda _s: None)


def test_crash_once_is_retried_on_a_rebuilt_pool(tmp_path):
    naps = []
    pool = SupervisedPool(1, sleep=lambda s: naps.append(
        (s, threading.current_thread())))
    try:
        fut = pool.submit(_crash_once, str(tmp_path / "marker"),
                          max_attempts=3)
        assert fut.result(timeout=TIMEOUT_S) == "survived"
        assert fut.attempts == 2
        assert fut.lost_in == [1]
        assert pool.rebuilds == 1
        # One backoff for the break, slept off the submitting thread.
        [(delay_s, thread)] = naps
        assert 0 < delay_s <= REBUILD_BACKOFF.max_delay_s
        assert thread is not threading.current_thread()
    finally:
        pool.shutdown()


def test_persistent_crash_raises_worker_lost_after_max_attempts():
    pool = _pool(1)
    try:
        fut = pool.submit(_always_crash, max_attempts=3)
        with pytest.raises(WorkerLost):
            fut.result(timeout=TIMEOUT_S)
        assert fut.attempts == 3
        assert pool.rebuilds == 3
    finally:
        pool.shutdown()


def test_one_break_seen_by_many_futures_rebuilds_once(tmp_path):
    pool = _pool(3)
    try:
        doomed = pool.submit(_crash_after, 0.2, str(tmp_path / "log"))
        nappers = [pool.submit(_nap, 1.0, max_attempts=2) for _ in range(2)]
        with pytest.raises(WorkerLost):
            doomed.result(timeout=TIMEOUT_S)
        for fut in nappers:
            assert fut.result(timeout=TIMEOUT_S) == "rested"
            assert fut.attempts == 2 and fut.lost_in == [1]
        assert pool.rebuilds == 1
    finally:
        pool.shutdown()


def test_cancelled_future_is_never_resubmitted(tmp_path):
    log = tmp_path / "log"
    pool = _pool(1)
    try:
        fut = pool.submit(_crash_after, 0.2, str(log), max_attempts=3)
        assert fut.cancel()                 # abandoned while running
        # Queued behind it, a later call is a victim of the same break;
        # it completes once the break has been handled.
        later = pool.submit(_nap, 0.0, max_attempts=2)
        assert later.result(timeout=TIMEOUT_S) == "rested"
        assert pool.rebuilds == 1
        assert fut.attempts == 1
        assert log.read_text(encoding="utf-8") == "ran\n"
    finally:
        pool.shutdown()


def test_kill_shutdown_leaves_no_live_children(tmp_path):
    pid_file = tmp_path / "pid"
    before = {p.pid for p in multiprocessing.active_children()}
    pool = _pool(2)
    fut = pool.submit(_record_pid_and_hang, str(pid_file))
    deadline = time.monotonic() + TIMEOUT_S
    while not pid_file.exists() or not pid_file.read_text():
        assert time.monotonic() < deadline, "worker never started"
        time.sleep(0.01)
    spawned = {p.pid for p in multiprocessing.active_children()} - before
    assert int(pid_file.read_text()) in spawned
    pool.shutdown(kill=True)
    with pytest.raises(WorkerLost):
        fut.result(timeout=TIMEOUT_S)
    alive = {p.pid for p in multiprocessing.active_children()}
    assert not spawned & alive
    with pytest.raises(RuntimeError, match="shut down"):
        pool.submit(_nap, 0.0)

"""One crash-recovering process pool for the runner, fleet and service.

A worker that dies (an OOM kill, ``os._exit``, a segfault) breaks a
whole ``ProcessPoolExecutor``: every unfinished future fails, innocent
or not. :class:`SupervisedPool` rebuilds the executor once per broken
generation, however many futures or consumers see the break, and
resubmits every victim that has attempts left and was not cancelled.
Every submission counts as an attempt, so a consumer that wants only
running calls charged keeps at most ``max_workers`` in flight.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import (BrokenExecutor, Future, InvalidStateError,
                                ProcessPoolExecutor)
from typing import Callable

from repro.util.retry import Backoff

#: The one rebuild backoff: short, capped, half-range jitter when the
#: pool is given a seeded ``rng``.
REBUILD_BACKOFF = Backoff(initial_s=0.05, max_delay_s=1.0, jitter_frac=0.5)


class WorkerLost(RuntimeError):
    """A submission's worker died on every allowed attempt."""


class PoolFuture(Future):
    """A future that counts its attempts; ``lost_in`` numbers the
    rebuilds (like :attr:`SupervisedPool.rebuilds`) it was a victim of.
    Cancelling it abandons it: never resubmitted, late result dropped.
    """

    def __init__(self, fn: Callable, args: tuple, max_attempts: int) -> None:
        super().__init__()
        self.attempts = 0
        self.lost_in: list[int] = []
        self.max_attempts = max_attempts
        self._call = (fn, args)


class SupervisedPool:
    """A process pool that survives worker death.

    The first victim of each break sleeps :data:`REBUILD_BACKOFF`
    (jittered by a seeded ``rng``) before the victims are resubmitted. It does so in
    its done callback, on the broken executor's management thread, and
    skips the sleep when the callback runs inline in the thread that
    submitted it, so no caller (no asyncio loop) ever blocks on it.
    """

    def __init__(self, max_workers: int, *, rng=None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.max_workers = max_workers
        self.rng = rng
        self.sleep = sleep
        self.rebuilds = 0       # also the number of the live generation
        self._backed_off = 0    # generations whose backoff was slept
        self._lock = threading.Lock()
        self._executor = ProcessPoolExecutor(max_workers)
        self._closed = False

    def submit(self, fn: Callable, *args,
               max_attempts: int = 1) -> PoolFuture:
        """Run ``fn(*args)`` in a worker, on up to ``max_attempts``
        workers if earlier ones die."""
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        future = PoolFuture(fn, args, max_attempts)
        self._launch(future)
        return future

    def shutdown(self, *, kill: bool = False) -> None:
        """Stop the pool. Running calls finish in the background, or
        with ``kill`` (a signal-driven unwind) their workers are
        SIGKILLed and their futures fail with :class:`WorkerLost`.

        Not SIGTERM: forked workers inherit the parent's signal
        handlers, so the worker's own harness would absorb it while the
        call kept computing, and interpreter exit would block on it.
        """
        with self._lock:
            self._closed = True
        if not kill:
            self._executor.shutdown(wait=False)
            return
        # No executor.shutdown(): the killed workers break the executor,
        # whose own machinery reaps its management thread at exit (and
        # the interpreter's exit hook still writes to its wakeup pipe).
        processes = list((self._executor._processes or {}).values())
        for proc in processes:
            proc.kill()
        for proc in processes:
            proc.join()

    # ---- internals -------------------------------------------------------

    def _launch(self, future: PoolFuture) -> None:
        fn, args = future._call
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a pool that was shut down")
            try:
                inner = self._executor.submit(fn, *args)
            except BrokenExecutor:      # broke before a callback said so
                self._rebuild(self.rebuilds)
                inner = self._executor.submit(fn, *args)
            future.attempts += 1
            generation = self.rebuilds
        inner.add_done_callback(functools.partial(
            self._on_done, future, generation, threading.get_ident()))

    def _rebuild(self, generation: int) -> None:
        """Replace a broken executor once per generation (lock held)."""
        if generation != self.rebuilds or self._closed:
            return
        self.rebuilds += 1
        self._executor.shutdown(wait=False)
        self._executor = ProcessPoolExecutor(self.max_workers)

    def _on_done(self, future: PoolFuture, generation: int, submitter: int,
                 inner: Future) -> None:
        error = inner.exception()
        if isinstance(error, BrokenExecutor):
            future.lost_in.append(generation + 1)
            with self._lock:
                self._rebuild(generation)
                delay = None
                if self._backed_off <= generation and not self._closed:
                    self._backed_off = generation + 1
                    delay = REBUILD_BACKOFF.delay_s(min(generation + 1, 10),
                                                    rng=self.rng)
            if delay is not None and threading.get_ident() != submitter:
                self.sleep(delay)
            if future.attempts < future.max_attempts and not future.cancelled():
                try:
                    self._launch(future)
                    return
                except RuntimeError:
                    pass        # shut down while backing off
            cause, error = error, WorkerLost(str(error))
            error.__cause__ = cause
        try:
            if error is None:
                future.set_result(inner.result())
            else:
                future.set_exception(error)
        except InvalidStateError:
            pass                # cancelled by its consumer: abandoned

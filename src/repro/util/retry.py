"""The retry policy: which errors are transient, and how long to back off.

The one retry loop is :meth:`repro.faults.runner.ExperimentRunner._run_one`
(it reseeds the fault plan between attempts); the supervised process
pool sleeps :class:`Backoff` before it rebuilds a broken executor.

The default retryable set is what the fault-injection subsystem (and
real measurement campaigns) produce transiently: ``TransientFaultError``
(including injected MSR read failures) and ``MeasurementError`` (e.g. a
meter dropout leaving an averaging window empty). Configuration and
simulation-logic errors are never retried — they would fail identically
every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import MeasurementError, TransientFaultError

#: Exception classes retried by default.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    TransientFaultError, MeasurementError)


@dataclass(frozen=True)
class Backoff:
    """Exponential backoff policy: ``initial * factor^(attempt-1)``,
    capped at ``max_delay_s``.

    ``jitter_frac`` optionally de-synchronizes retry storms (many fleet
    shards requeued by one worker death would otherwise hammer the pool
    in lockstep): with a generator passed to :meth:`delay_s`, the delay
    is scaled by a factor drawn uniformly from ``[1 - jitter_frac, 1]``.
    The draw comes only from the *passed-in* RNG — never wall clock or
    global ``random`` state — so a reseeded replay sleeps the identical
    schedule. Without an RNG the delay stays un-jittered, which keeps
    every existing call site bit-for-bit unchanged."""

    initial_s: float = 0.05
    factor: float = 2.0
    max_delay_s: float = 2.0
    jitter_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.initial_s < 0 or self.factor < 1.0 or self.max_delay_s < 0:
            raise ValueError("invalid backoff parameters")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("jitter_frac must be within [0, 1]")

    def delay_s(self, attempt: int, rng=None) -> float:
        """Sleep before retry number ``attempt`` (1-based).

        ``rng`` is a seeded ``numpy.random.Generator`` (or anything with
        a ``random()`` method) supplying the jitter draw.
        """
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        delay = min(self.initial_s * self.factor ** (attempt - 1),
                    self.max_delay_s)
        if self.jitter_frac > 0.0 and rng is not None:
            delay *= 1.0 - self.jitter_frac * float(rng.random())
        return delay

    def delays(self, n: int) -> Iterator[float]:
        return (self.delay_s(i) for i in range(1, n + 1))

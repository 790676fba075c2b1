"""The fleet supervisor: survive worker death, stragglers and signals.

Failure taxonomy (per shard, in the run report):

* ``ok``       — completed on its first submission;
* ``cached``   — already checkpointed by an earlier run (resume);
* ``retried``  — its worker died; the pool was rebuilt and the shard
  requeued, and a later attempt completed;
* ``degraded`` — exceeded the per-shard straggler deadline; the sweep
  carries on without it (its future is abandoned, never killed — a
  late result is simply ignored);
* ``lost``     — worker death on every allowed attempt;
* ``failed``   — the shard raised a real exception (a bug, not chaos);
* ``interrupted`` — still pending/in flight when SIGINT/SIGTERM stopped
  the run.

Fleet status is ``interrupted``, or else the
:func:`~repro.util.pool.rollup` every harness shares: ``ok`` (all
ok/cached), ``degraded`` (everything completed-or-degraded, nothing
failed/lost — the acceptance bar for a chaos sweep) or ``failed``.
Every non-``ok`` sweep is resumable: completed shards live in the
checkpoint namespace, and ``resume`` runs only what is missing.

Worker death is recovered by :class:`~repro.util.pool.SupervisedPool`;
its rebuild backoff gets *seeded* jitter from a generator derived from
the plan seed, so a mass requeue after a pool rebuild de-synchronizes
without consulting wall clock or global random state.
"""

from __future__ import annotations

import signal
import time
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.engine.rng import make_rng
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.plan import FleetPlan
from repro.fleet.worker import run_shard
from repro.util.pool import (COMPLETE_STATUSES, PoolFuture, SupervisedPool,
                             rollup, settle)


@dataclass
class ShardOutcome:
    shard_id: int
    status: str                 # see module docstring
    attempts: int
    error: str | None = None
    duration_s: float = 0.0

    def record(self) -> dict:
        return {"shard_id": self.shard_id, "status": self.status,
                "attempts": self.attempts, "error": self.error}


@dataclass
class FleetRunReport:
    plan_digest: str
    outcomes: list[ShardOutcome] = field(default_factory=list)
    pool_rebuilds: int = 0
    interrupted: bool = False

    @property
    def counts(self) -> dict[str, int]:
        return dict(Counter(o.status for o in self.outcomes))

    @property
    def status(self) -> str:
        statuses = {o.status for o in self.outcomes}
        if self.interrupted or "interrupted" in statuses:
            return "interrupted"
        return rollup(statuses)

    def completed_shards(self) -> list[int]:
        return sorted(o.shard_id for o in self.outcomes
                      if o.status in COMPLETE_STATUSES)

    def to_dict(self) -> dict:
        return {"plan_digest": self.plan_digest, "status": self.status,
                "counts": self.counts, "pool_rebuilds": self.pool_rebuilds,
                "shards": [o.record() for o in self.outcomes]}

    def render(self) -> str:
        lines = [f"fleet sweep [{self.plan_digest}]: {self.status}"]
        summary = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        lines.append(f"  shards: {len(self.outcomes)} ({summary}), "
                     f"pool rebuilds: {self.pool_rebuilds}")
        for o in self.outcomes:
            if o.status not in ("ok", "cached"):
                tag = f"  shard {o.shard_id:4d}: {o.status} " \
                      f"(attempts={o.attempts})"
                if o.error:
                    tag += f" [{o.error}]"
                lines.append(tag)
        return "\n".join(lines)


class FleetSupervisor:
    """Drives one :class:`FleetPlan` to completion over a process pool."""

    def __init__(
        self,
        plan: FleetPlan,
        ckpt_root: Path | str,
        *,
        jobs: int = 4,
        sleep: Callable[[float], None] = time.sleep,
        progress: Callable[[ShardOutcome], None] | None = None,
        poll_s: float = 0.05,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.plan = plan
        self.store = CheckpointStore(ckpt_root, plan)
        self.jobs = jobs
        self.sleep = sleep
        self.progress = progress
        self.poll_s = poll_s
        # Jitter stream: seeded from the plan, so a replayed sweep backs
        # off on the identical schedule.
        self._jitter_rng = make_rng((plan.seed_root ^ 0x0BAC_50FF)
                                    & 0xFFFF_FFFF)
        self._stop_requested = False
        self._old_handlers: dict[int, object] = {}

    # ---- signals ---------------------------------------------------------

    def request_stop(self) -> None:
        """Graceful shutdown: finish nothing new, flush, report."""
        self._stop_requested = True

    def _install_signal_handlers(self) -> None:
        def handler(signum, frame):  # noqa: ARG001 — signal signature
            self.request_stop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._old_handlers[signum] = signal.signal(signum, handler)

    def _restore_signal_handlers(self) -> None:
        for signum, old in self._old_handlers.items():
            signal.signal(signum, old)
        self._old_handlers.clear()

    # ---- run loop --------------------------------------------------------

    def run(self, *, resume: bool = False, inject: bool = True,
            install_signals: bool = False) -> FleetRunReport:
        """Sweep the plan; with ``resume``, keep completed checkpoints.

        A fresh run clears the plan's checkpoint namespace (including
        injection tombstones, so one-shot chaos re-arms); a resume keeps
        both, which is what makes injected failures fire exactly once
        across an interrupt/resume pair.

        ``inject=False`` pre-claims every injection tombstone instead of
        editing the plan, so an undisturbed reference run keeps the
        *same* plan digest (and checkpoint namespace key) as the chaos
        run it is compared against.
        """
        self.store.ensure()
        if not resume:
            self.store.clear()
            self.store.save_plan()
        if not inject:
            for sid in (*self.plan.crash_shards,
                        *self.plan.chaos_crash_shards()):
                self.store.claim_marker(f"crash-{sid:04d}")
            for sid in self.plan.straggler_shards:
                self.store.claim_marker(f"straggler-{sid:04d}")
        if install_signals:
            self._install_signal_handlers()
        try:
            return self._run_loop(resume)
        finally:
            if install_signals:
                self._restore_signal_handlers()

    def _run_loop(self, resume: bool) -> FleetRunReport:
        report = FleetRunReport(plan_digest=self.store.plan_digest)
        outcomes: dict[int, ShardOutcome] = {}
        cached = self.store.completed() if resume else {}
        for sid in cached:
            outcomes[sid] = ShardOutcome(shard_id=sid, status="cached",
                                         attempts=0)
        pending: deque[int] = deque(
            s.shard_id for s in self.plan.shards() if s.shard_id not in cached)
        # At most ``jobs`` shards in flight: a submitted shard starts at
        # once, so its duration is run time, never queue time.
        in_flight: dict[PoolFuture, tuple[int, float]] = {}
        pool = SupervisedPool(self.jobs, rng=self._jitter_rng,
                              sleep=self.sleep)

        def finish(fut: PoolFuture, status: str, error: str | None) -> None:
            sid, t_submit = in_flight.pop(fut)
            outcome = ShardOutcome(
                shard_id=sid, status=status, attempts=fut.attempts,
                error=error,
                # repro-lint: disable=det-wallclock — harness-side duration report; never enters simulator state
                duration_s=time.monotonic() - t_submit)
            outcomes[sid] = outcome
            if self.progress is not None:
                self.progress(outcome)

        try:
            while (pending or in_flight) and not self._stop_requested:
                while pending and len(in_flight) < self.jobs:
                    sid = pending.popleft()
                    fut = pool.submit(run_shard, self.plan, sid,
                                      str(self.store.dir.parent),
                                      max_attempts=self.plan.max_attempts)
                    # repro-lint: disable=det-wallclock — straggler deadline is a harness-side wall-clock budget
                    in_flight[fut] = (sid, time.monotonic())
                done, _ = wait(set(in_flight), timeout=self.poll_s,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    status, checkpoint, error = settle(fut)
                    if status in COMPLETE_STATUSES:
                        self.store.write_shard(checkpoint)
                    finish(fut, status, error)
                # Straggler deadlines: degrade, never kill. The future is
                # abandoned; a late result is ignored (no checkpoint).
                # repro-lint: disable=det-wallclock — straggler deadline is a harness-side wall-clock budget
                now = time.monotonic()
                for fut, (_sid, t_submit) in list(in_flight.items()):
                    if now - t_submit > self.plan.straggler_timeout_s:
                        fut.cancel()
                        finish(fut, "degraded",
                               f"straggler: exceeded "
                               f"{self.plan.straggler_timeout_s:g} s")
        finally:
            for fut in list(in_flight):
                finish(fut, "interrupted", "stopped by signal")
            for sid in pending:
                outcomes[sid] = ShardOutcome(shard_id=sid, status="interrupted",
                                             attempts=0,
                                             error="stopped by signal")
            report.interrupted = self._stop_requested
            report.pool_rebuilds = pool.rebuilds
            pool.shutdown()
        report.outcomes = [outcomes[sid]
                           for sid in sorted(outcomes)]
        return report

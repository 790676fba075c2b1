"""Resilient experiment harness for the table/figure suite.

Lives in the fault layer (it is the consumer-facing face of chaos
mode: retries under reseeded fault plans, crash-surviving process
pools) so the conformance machinery can drive it without importing the
app-layer ``repro.experiments`` package.

Wraps each experiment in a wall-clock timeout, retries transient faults
with exponential backoff under a reseeded fault plan, checkpoints
partial artifacts, and records a structured outcome per experiment —
one bad experiment degrades to a report entry instead of killing the
suite. ``scripts/run_paper.py`` is a thin CLI over this module.

Outcome semantics:

* ``ok``       — succeeded on the first attempt;
* ``retried``  — succeeded after ≥1 transient-fault retry;
* ``degraded`` — every attempt failed, but only with transient
  (retryable) errors; partial checkpoints exist;
* ``lost``     — (``jobs > 1`` only) its worker process died on every
  attempt;
* ``failed``   — a non-retryable error or the wall-clock timeout.

Parallelism: ``jobs > 1`` fans independent experiments out over a
:class:`~repro.util.pool.SupervisedPool`, whose
:func:`~repro.util.pool.settle` names each worker-side outcome. Every
experiment builds its own seeded simulator/node, so per-experiment
results are bit-identical to a serial run; outcomes are reported in
submission order. Builders must be picklable (module-level functions /
``functools.partial``, not lambdas); one that is not fails alone.
Under chaos mode each worker process arms the same chaos seed with
fresh counters, so a parallel chaos run is deterministic but its
per-experiment fault plans differ from a serial suite's (where the plan
depends on how many nodes earlier experiments built).
"""

from __future__ import annotations

import json
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import TransientFaultError
from repro.faults import chaos
from repro.faults.plan import DEFAULT_PROFILE, FaultProfile
from repro.util.pool import COMPLETE_STATUSES, SupervisedPool, settle
from repro.util.retry import DEFAULT_RETRYABLE, Backoff


@dataclass(frozen=True)
class Built:
    """A build's rendered artifact plus the structured result behind it.

    The result rides on the outcome for the caller (run_paper checks the
    paper's claims on it) but never enters a record or report."""

    text: str
    result: Any


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable table/figure: a name and a zero-argument builder
    returning the rendered artifact text, or a :class:`Built`."""

    name: str
    build: Callable[[], str | Built]
    timeout_s: float = 600.0


@dataclass
class ExperimentOutcome:
    name: str
    status: str                  # ok | retried | degraded | lost | failed
    attempts: int
    duration_s: float
    error: str | None = None
    artifact: str | None = None
    text: str | None = None      # rendered output (None unless ok/retried)
    result: Any = None           # a Built build's result; never recorded

    def record(self) -> dict:
        """The deterministic fields (no wall-clock durations/paths)."""
        return {"name": self.name, "status": self.status,
                "attempts": self.attempts, "error": self.error}

    def to_dict(self) -> dict:
        out = self.record()
        out["duration_s"] = round(self.duration_s, 3)
        out["artifact"] = self.artifact
        return out


@dataclass
class SuiteReport:
    outcomes: list[ExperimentOutcome] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        return dict(Counter(o.status for o in self.outcomes))

    @property
    def hard_failures(self) -> list[ExperimentOutcome]:
        return [o for o in self.outcomes if o.status in ("failed", "lost")]

    def records(self) -> list[dict]:
        return [o.record() for o in self.outcomes]

    def to_json(self) -> str:
        return json.dumps({"counts": self.counts,
                           "experiments": [o.to_dict()
                                           for o in self.outcomes]},
                          indent=2, sort_keys=True)

    def to_stable_json(self) -> str:
        """Byte-stable report: only the deterministic per-experiment
        fields (no wall-clock durations, no absolute artifact paths),
        so a committed report matches a fresh run of the same suite
        byte for byte. Ends with a newline."""
        return json.dumps({"counts": self.counts,
                           "experiments": self.records()},
                          indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        width = max((len(o.name) for o in self.outcomes), default=4)
        lines = ["experiment outcomes:"]
        for o in self.outcomes:
            line = (f"  {o.name:<{width}}  {o.status:<8}  "
                    f"attempts={o.attempts}  {o.duration_s:6.1f} s")
            if o.error:
                line += f"  [{o.error}]"
            lines.append(line)
        summary = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        lines.append(f"  total: {len(self.outcomes)} ({summary or 'empty'})")
        return "\n".join(lines)


class ExperimentRunner:
    """Runs a suite of :class:`ExperimentSpec` with fault resilience.

    ``artifact_writer(name, text) -> path`` checkpoints artifacts (both
    the final rendering and per-attempt partials); ``chaos_seed`` arms
    the fault-injection subsystem for the whole run, with the epoch
    bumped between retries so each attempt sees a fresh fault plan.
    """

    def __init__(
        self,
        specs: Sequence[ExperimentSpec],
        *,
        artifact_writer: Callable[[str, str], Path] | None = None,
        max_attempts: int = 3,
        backoff: Backoff = Backoff(initial_s=0.02, max_delay_s=0.5),
        retry_on: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE,
        sleep: Callable[[float], None] = time.sleep,
        chaos_seed: int | None = None,
        chaos_profile: FaultProfile = DEFAULT_PROFILE,
        progress: Callable[[ExperimentOutcome], None] | None = None,
        jobs: int = 1,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.specs = {s.name: s for s in specs}
        self.artifact_writer = artifact_writer
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.retry_on = retry_on
        self.sleep = sleep
        self.chaos_seed = chaos_seed
        self.chaos_profile = chaos_profile
        self.progress = progress
        self.jobs = jobs
        # One timeout-guard executor reused across attempts and
        # experiments; replaced only when a timed-out builder wedges its
        # worker thread (see _call_with_timeout) and torn down in
        # close(). Spawning one per attempt and shutting it down with
        # wait=False leaked a thread per retry across a long suite.
        self._executor: ThreadPoolExecutor | None = None

    # ---- public API -------------------------------------------------------

    def run(self, names: Sequence[str] | None = None) -> SuiteReport:
        selected = list(names) if names is not None else list(self.specs)
        unknown = [n for n in selected if n not in self.specs]
        if unknown:
            raise KeyError(f"unknown experiment ids {unknown}; "
                           f"valid: {sorted(self.specs)}")
        if self.jobs > 1:
            return self._run_parallel(selected)
        report = SuiteReport()
        chaos_armed = self.chaos_seed is not None
        if chaos_armed:
            chaos.activate(self.chaos_seed, profile=self.chaos_profile)
        try:
            for name in selected:
                self._record(report, self._run_one(self.specs[name]))
        finally:
            if chaos_armed:
                chaos.deactivate()
            self.close()
        return report

    def _record(self, report: SuiteReport,
                outcome: ExperimentOutcome) -> None:
        """Checkpoint the artifact and report progress as each outcome
        lands, so an interrupted suite still flushes what finished."""
        if outcome.text is not None and self.artifact_writer is not None:
            outcome.artifact = str(
                self.artifact_writer(outcome.name, outcome.text))
        report.outcomes.append(outcome)
        if self.progress is not None:
            self.progress(outcome)

    def close(self) -> None:
        """Release the timeout-guard executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ---- parallel mode ----------------------------------------------------

    def _run_parallel(self, selected: list[str]) -> SuiteReport:
        """Fan the suite out over a :class:`SupervisedPool` and collect
        in submission order. An experiment whose worker died is
        requeued; it is lost only if its worker died on every attempt."""
        pool = SupervisedPool(self.jobs, sleep=self.sleep)
        options = dict(max_attempts=self.max_attempts, backoff=self.backoff,
                       retry_on=self.retry_on, chaos_seed=self.chaos_seed,
                       chaos_profile=self.chaos_profile)
        futures = [pool.submit(_run_spec_in_worker, self.specs[name], options,
                               max_attempts=self.max_attempts)
                   for name in selected]
        report = SuiteReport()
        try:
            for name, future in zip(selected, futures):
                status, outcome, error = settle(future)
                if status in COMPLETE_STATUSES:
                    outcome.attempts += future.attempts - 1
                    if status == "retried" and outcome.status == "ok":
                        outcome.status = "retried"
                else:
                    outcome = ExperimentOutcome(
                        name=name, status=status, attempts=future.attempts,
                        duration_s=0.0, error=error)
                self._record(report, outcome)
        except BaseException:
            # A signal-driven unwind abandons in-flight experiments
            # rather than block on them; the caller flushes the rest.
            pool.shutdown(kill=True)
            raise
        pool.shutdown()
        return report

    # ---- internals --------------------------------------------------------

    def _run_one(self, spec: ExperimentSpec) -> ExperimentOutcome:
        # repro-lint: disable=det-wallclock — harness-side duration report; never enters simulator state
        t0 = time.monotonic()
        retryable = tuple(self.retry_on)
        last_error: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                built = self._call_with_timeout(spec)
            except FutureTimeout:
                return self._finish(spec, t0, "failed", attempt,
                                    f"timeout after {spec.timeout_s:.0f} s")
            except retryable as exc:
                last_error = exc
                self._checkpoint_attempt(spec, attempt, exc)
                if attempt < self.max_attempts:
                    chaos.bump_epoch()      # reseed the fault plan
                    self.sleep(self.backoff.delay_s(attempt))
            except Exception as exc:        # noqa: BLE001 — suite must survive
                self._checkpoint_attempt(spec, attempt, exc)
                return self._finish(spec, t0, "failed", attempt,
                                    f"{type(exc).__name__}: {exc}")
            else:
                if not isinstance(built, Built):
                    built = Built(built, None)
                status = "ok" if attempt == 1 else "retried"
                return self._finish(spec, t0, status, attempt, None,
                                    built.text, built.result)
        return self._finish(
            spec, t0, "degraded", self.max_attempts,
            f"{type(last_error).__name__}: {last_error}")

    def _call_with_timeout(self, spec: ExperimentSpec) -> str | Built:
        """Run the builder under a wall-clock timeout.

        A timed-out builder thread cannot be killed, but the simulation
        it drives is pure computation that ends with its event horizon;
        the runner stops waiting and reports the experiment as failed.
        The single-worker executor is reused across attempts and
        experiments; only a timeout (which wedges the worker thread)
        forces a replacement, so a retried suite no longer accumulates
        one leaked thread per attempt.
        """
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="experiment-runner")
        future = self._executor.submit(spec.build)
        try:
            return future.result(timeout=spec.timeout_s)
        except FutureTimeout:
            # The worker thread is stuck inside spec.build; abandon the
            # executor (cancelling anything queued) so the next
            # experiment gets a fresh worker instead of queueing behind
            # the wedged one.
            self.close()
            raise

    def _finish(self, spec: ExperimentSpec, t0: float, status: str,
                attempts: int, error: str | None,
                text: str | None = None,
                result: Any = None) -> ExperimentOutcome:
        return ExperimentOutcome(
            name=spec.name, status=status, attempts=attempts,
            # repro-lint: disable=det-wallclock — harness-side duration report; never enters simulator state
            duration_s=time.monotonic() - t0, error=error, text=text,
            result=result)

    def _checkpoint_attempt(self, spec: ExperimentSpec, attempt: int,
                            exc: BaseException) -> None:
        """Persist what a failed attempt knew (the partial artifact)."""
        if self.artifact_writer is None:
            return
        text = (f"attempt {attempt}/{self.max_attempts} of "
                f"'{spec.name}' failed: {type(exc).__name__}: {exc}\n\n"
                + "".join(traceback.format_exception(exc)))
        self.artifact_writer(f"{spec.name}.attempt{attempt}", text)


def _run_spec_in_worker(spec: ExperimentSpec,
                        options: dict) -> ExperimentOutcome:
    """Run one experiment in a pool worker process: a fresh single-spec
    runner with the parent's ``options`` reproduces the serial
    retry/timeout/chaos semantics; the outcome carries the rendered
    text and the build's result home for the parent."""
    return ExperimentRunner([spec], **options).run().outcomes[0]

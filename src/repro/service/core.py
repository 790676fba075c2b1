"""The asyncio experiment service: jobs, workers, verified caching.

:class:`ExperimentService` is the long-lived core behind
``repro-service``. A submitted :class:`~repro.service.sweep.SweepRequest`
becomes a *job*: the sweep expands to conformance-scenario tasks, each
task first consults the digest-verified result cache, and the misses
are submitted to the service's one
:class:`~repro.util.pool.SupervisedPool` and awaited through
``asyncio.wrap_future``. Worker death (injected or real) is the pool's
to recover: it rebuilds once per break and requeues every task that
was running, bounded by the request's ``max_attempts`` — the same
contract, and the same primitive, as the fleet supervisor's.

Task taxonomy (per task, in the job's run report): ``cached`` — served
from a verified cache entry; ``ok`` — computed on the first attempt;
``retried`` — computed after surviving at least one pool rebuild;
``lost`` — its worker died on every allowed attempt; ``failed`` — the
scenario raised a real exception; ``cancelled``. Job status is ``ok``
(all cached/ok), ``degraded`` (complete, but something retried or was
lost), ``failed``, or ``cancelled``.

Each finished job writes two files, mirroring the fleet's
aggregate/run-report split: ``results.json`` holds only the canonical
per-task records (a pure function of request × dataset × schema — a
resubmission serves it byte-identically from cache), and ``run.json``
holds the dynamics (hits, attempts, rebuilds) that are deliberately
*not* data.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.conformance.recorder import Trace, canonical_json, sha256_hex
from repro.conformance.scenario import ScenarioManifest, run_scenario
from repro.errors import ServiceError
from repro.fleet.checkpoint import claim_tombstone
from repro.fleet.worker import CRASH_EXIT_STATUS
from repro.service.cache import ResultCache, make_entry
from repro.service.dataset import (DEFAULT_SEARCH_DIRS, HostDataset,
                                   load_dataset, resolve_dataset)
from repro.service.sweep import SweepRequest, TaskSpec, expand_sweep
from repro.util.pool import PoolFuture, SupervisedPool, WorkerLost

RESULTS_FORMAT = "repro-service-results"

#: Task statuses whose records enter the canonical results report.
COMPLETE_STATUSES = frozenset({"cached", "ok", "retried"})


# ---- worker side (module-level: must pickle into the pool) ------------------

def execute_task(manifest_dict: dict, crash_marker: str | None) -> dict:
    """Run one scenario in a pool worker; returns record + trace.

    With ``crash_marker`` set (injected chaos) and unclaimed, the worker
    dies mid-task exactly like an OOM kill — no exception, no cleanup —
    and the pool sees a broken executor. The tombstone makes the
    crash one-shot: the retry runs clean.
    """
    if crash_marker is not None and claim_tombstone(crash_marker):
        os._exit(CRASH_EXIT_STATUS)
    manifest = ScenarioManifest.from_dict(manifest_dict)
    trace = run_scenario(manifest)
    return {"trace_jsonl": trace.to_jsonl(),
            "summary": summarize_trace(trace)}


def summarize_trace(trace: Trace) -> dict:
    """The canonical per-task summary extracted from a trace.

    A pure function of the trace (itself a pure function of the
    manifest), so a record served from cache is byte-identical to one
    freshly computed.
    """
    run_end = trace.of_kind("run-end")
    return {"n_events": len(trace.events),
            "kind_counts": trace.kind_counts(),
            "end_ns": trace.events[-1].time_ns if trace.events else 0,
            "state_sha256": (run_end[-1].payload["state_sha256"]
                             if run_end else ""),
            "trace_digest": trace.digest()}


# ---- service side -----------------------------------------------------------

@dataclass
class TaskState:
    """One task's live status inside a job."""

    spec: TaskSpec
    status: str = "pending"     # see module docstring
    attempts: int = 0
    error: str | None = None
    record: dict | None = None  # canonical per-task record when complete


@dataclass
class Job:
    """One submitted sweep and everything that happened to it."""

    job_id: str
    request: SweepRequest
    dataset_name: str
    dataset_digest: str
    tasks: list[TaskState]
    state: str = "running"      # running | ok | degraded | failed | cancelled
    cache_hits: int = 0
    rebuilds_seen: set[int] = field(default_factory=set)
    events: list[dict] = field(default_factory=list)
    cond: asyncio.Condition = field(default_factory=asyncio.Condition)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.tasks:
            out[t.status] = out.get(t.status, 0) + 1
        return out

    def status_dict(self) -> dict:
        return {"job_id": self.job_id, "name": self.request.name,
                "state": self.state, "n_tasks": len(self.tasks),
                "counts": self.counts(), "cache_hits": self.cache_hits,
                "pool_rebuilds": len(self.rebuilds_seen),
                "request_digest": self.request.digest(),
                "dataset": self.dataset_name,
                "dataset_digest": self.dataset_digest[:16]}

    def records(self) -> list[dict]:
        return [t.record for t in self.tasks
                if t.status in COMPLETE_STATUSES and t.record is not None]

    def results_dict(self) -> dict:
        """The canonical results report — request × dataset × schema
        only; no job id, hit counts or attempt history (resubmission
        must reproduce it byte-for-byte)."""
        records = self.records()
        records_digest = sha256_hex(
            "\n".join(canonical_json(r) for r in records) + "\n")
        return {"format": RESULTS_FORMAT,
                "request_digest": self.request.digest(),
                "dataset_digest": self.dataset_digest,
                "n_tasks": len(self.tasks),
                "complete": len(records) == len(self.tasks),
                "records": records,
                "records_digest": records_digest}

    def run_dict(self) -> dict:
        """The run-dynamics report — everything that is *not* data."""
        return {**self.status_dict(),
                "tasks": [{"task_id": t.spec.task_id, "status": t.status,
                           "attempts": t.attempts, "error": t.error}
                          for t in self.tasks]}


class ExperimentService:
    """Long-lived asyncio service: submit sweeps, stream their progress."""

    def __init__(self, *, state_root: Path | str, jobs: int = 2,
                 dataset_dirs: tuple[str, ...] | None = None) -> None:
        if jobs < 1:
            raise ServiceError("the service needs at least one worker")
        self.state_root = Path(state_root)
        self.cache = ResultCache(self.state_root / "cache")
        self.dataset_dirs = (dataset_dirs if dataset_dirs is not None
                             else DEFAULT_SEARCH_DIRS)
        self._jobs: dict[str, Job] = {}
        self._runners: dict[str, asyncio.Task] = {}
        self._seq = 0
        self._pool = SupervisedPool(jobs)
        # Tasks in flight are capped at the worker count, so a worker
        # death charges an attempt only to tasks that were running.
        self._slots = asyncio.Semaphore(jobs)

    # ---- submission -------------------------------------------------------

    def _load_dataset(self, request: SweepRequest) -> HostDataset | None:
        if not request.dataset:
            return None
        return load_dataset(
            resolve_dataset(request.dataset, self.dataset_dirs))

    async def submit(self, request: SweepRequest) -> str:
        """Expand, register and start a job; returns its id."""
        dataset = self._load_dataset(request)
        tasks = expand_sweep(request, dataset)
        self._seq += 1
        job_id = f"job-{self._seq:03d}-{request.digest()[:8]}"
        job = Job(job_id=job_id, request=request,
                  dataset_name=dataset.name if dataset else "",
                  dataset_digest=dataset.digest() if dataset else "",
                  tasks=[TaskState(spec=t) for t in tasks])
        self._jobs[job_id] = job
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        self._runners[job_id] = asyncio.create_task(
            self._run_job(job), name=job_id)
        return job_id

    def job_dir(self, job_id: str) -> Path:
        return self.state_root / "jobs" / job_id

    # ---- queries ----------------------------------------------------------

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"no such job {job_id!r} "
                               f"(known: {', '.join(self._jobs) or 'none'})")
        return job

    def status(self, job_id: str) -> dict:
        return self._get(job_id).status_dict()

    def jobs(self) -> list[dict]:
        return [job.status_dict() for job in self._jobs.values()]

    async def watch(self, job_id: str):
        """Async stream of a job's events, ending when the job settles.

        Yields every event from the beginning (a late watcher replays
        history), then follows live until the job leaves ``running``.
        """
        job = self._get(job_id)
        index = 0
        while True:
            async with job.cond:
                while index >= len(job.events) and job.state == "running":
                    await job.cond.wait()
                pending = job.events[index:]
                index += len(pending)
                settled = job.state != "running"
            for event in pending:
                yield event
            if settled and index >= len(job.events):
                return

    async def cancel(self, job_id: str) -> dict:
        """Cancel a running job; a settled job is left untouched."""
        job = self._get(job_id)
        runner = self._runners.get(job_id)
        if job.state == "running" and runner is not None:
            runner.cancel()
            try:
                await runner
            except asyncio.CancelledError:
                pass
        return job.status_dict()

    async def close(self) -> None:
        """Cancel every running job and shut the pool down."""
        for job_id in list(self._runners):
            await self.cancel(job_id)
        self._pool.shutdown()

    # ---- job execution ----------------------------------------------------

    async def _emit(self, job: Job, **event) -> None:
        async with job.cond:
            job.events.append(event)
            job.cond.notify_all()

    async def _finish_task(self, job: Job, task: TaskState, status: str,
                           error: str | None = None) -> None:
        task.status = status
        task.error = error
        await self._emit(job, event="task", task_id=task.spec.task_id,
                         status=status, attempts=task.attempts,
                         cache_key=task.spec.cache_key, error=error)

    async def _settle(self, job: Job, state: str) -> None:
        job.state = state
        self._write_outputs(job)
        await self._emit(job, event="job", job_id=job.job_id, state=state,
                         counts=job.counts(), cache_hits=job.cache_hits,
                         pool_rebuilds=len(job.rebuilds_seen))

    def _write_outputs(self, job: Job) -> Path:
        out = self.job_dir(job.job_id)
        results = job.results_dict()
        (out / "results.json").write_text(
            canonical_json(results) + "\n", encoding="utf-8")
        (out / "run.json").write_text(
            canonical_json(job.run_dict()) + "\n", encoding="utf-8")
        return out / "results.json"

    def _serve_from_cache(self, job: Job, task: TaskState) -> bool:
        """Verified hit → install the cached record; False on miss."""
        entry = self.cache.get(task.spec.cache_key)
        if entry is None:
            return False
        if entry.manifest_digest != task.spec.manifest.digest():
            return False
        task.record = self._record_for(task, entry.result)
        job.cache_hits += 1
        return True

    @staticmethod
    def _record_for(task: TaskState, summary: dict) -> dict:
        return {"task_id": task.spec.task_id, **task.spec.axes,
                "cache_key": task.spec.cache_key,
                "manifest_digest": task.spec.manifest.digest(),
                **summary}

    async def _run_job(self, job: Job) -> None:
        try:
            await self._drive(job)
        except asyncio.CancelledError:
            for task in job.tasks:
                if task.status in ("pending", "running"):
                    task.status = "cancelled"
            await self._settle(job, "cancelled")
            raise
        except Exception as exc:  # noqa: BLE001 — a job must always settle
            for task in job.tasks:
                if task.status in ("pending", "running"):
                    task.status = "failed"
                    task.error = f"{type(exc).__name__}: {exc}"
            await self._settle(job, "failed")

    async def _drive(self, job: Job) -> None:
        marker_dir = self.job_dir(job.job_id) / "markers"
        marker_dir.mkdir(parents=True, exist_ok=True)
        futures: list[PoolFuture] = []
        try:
            await asyncio.gather(*(self._execute(job, task, marker_dir, futures)
                                   for task in job.tasks))
        finally:
            for fut in futures:
                fut.cancel()        # abandon whatever is still unfinished
        statuses = {t.status for t in job.tasks}
        if statuses & {"failed"}:
            state = "failed"
        elif statuses <= {"cached", "ok"}:
            state = "ok"
        else:
            state = "degraded"
        await self._settle(job, state)

    async def _execute(self, job: Job, task: TaskState, marker_dir: Path,
                       futures: list[PoolFuture]) -> None:
        """Serve one task from the cache, or run it on the pool."""
        if self._serve_from_cache(job, task):
            await self._finish_task(job, task, "cached")
            return
        crash = (str(marker_dir / f"crash-{task.spec.task_id:04d}")
                 if task.spec.task_id in job.request.crash_tasks else None)
        async with self._slots:
            task.status = "running"
            fut = self._pool.submit(execute_task, task.spec.manifest.to_dict(),
                                    crash, max_attempts=job.request.max_attempts)
            futures.append(fut)
            try:
                payload = await asyncio.wrap_future(fut)
            except WorkerLost:
                status, error = "lost", "worker died on every attempt"
            except Exception as exc:  # noqa: BLE001 — job must survive
                status, error = "failed", f"{type(exc).__name__}: {exc}"
            else:
                self._store_result(job, task, payload)
                status = "ok" if fut.attempts == 1 else "retried"
                error = None
        task.attempts = fut.attempts
        # Each pool rebuild that requeued this job's tasks is reported
        # once, when the first of its victims settles.
        for rebuild in sorted(set(fut.lost_in) - job.rebuilds_seen):
            job.rebuilds_seen.add(rebuild)
            await self._emit(
                job, event="pool-rebuild", rebuilds=len(job.rebuilds_seen),
                requeued=sum(rebuild in f.lost_in for f in futures))
        await self._finish_task(job, task, status, error)

    def _store_result(self, job: Job, task: TaskState,
                      payload: dict) -> None:
        task.record = self._record_for(task, payload["summary"])
        self.cache.put(make_entry(
            cache_key=task.spec.cache_key,
            manifest_digest=task.spec.manifest.digest(),
            dataset_digest=job.dataset_digest,
            result=payload["summary"],
            trace_jsonl=payload["trace_jsonl"]))

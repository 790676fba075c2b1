"""Experiment service: sweep expansion, verified caching, crash recovery.

The service tests run real process pools with injected worker crashes
(the same ``os._exit`` chaos the fleet supervisor tests use), so sweeps
are kept tiny — a couple of tasks, millisecond measure windows. The
properties they certify are the service's headline guarantees:

* an identical resubmission is served 100% from verified cache hits and
  its ``results.json`` is byte-identical to the original job's;
* a job that lost workers mid-sweep completes degraded, and its
  canonical results still equal an undisturbed job's;
* a cache entry that fails any link of its verification chain is a
  silent miss, never a wrong answer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.conformance import schema as conformance_schema
from repro.conformance.scenario import make_manifest, run_scenario
from repro.errors import ServiceError
from repro.service import (
    CacheEntry,
    ExperimentService,
    ResultCache,
    SweepRequest,
    expand_sweep,
    save_dataset,
    snapshot_host,
)
from repro.service.cache import make_entry
from repro.service.dataset import dataset_path
from repro.service.sweep import task_seed
from repro.hostif import VirtualHost
from repro.system.node import build_haswell_node
from repro.units import ms

MEASURE_NS = ms(2)


# ---- sweep requests and expansion -------------------------------------------


def _request(**overrides) -> SweepRequest:
    base = dict(name="t", seeds=(11, 12), measure_ns=MEASURE_NS)
    base.update(overrides)
    return SweepRequest(**base)


def test_request_round_trip():
    req = _request(variants=("direct", "hostif"), fastpath_modes=(True, False),
                   crash_tasks=(0,))
    assert SweepRequest.from_dict(req.to_dict()) == req
    assert req.n_tasks == 8


def test_request_validation():
    with pytest.raises(ServiceError, match="name"):
        SweepRequest(name="")
    with pytest.raises(ServiceError, match="seed"):
        _request(seeds=())
    with pytest.raises(ServiceError, match="variants"):
        _request(variants=("warp",))
    with pytest.raises(ServiceError, match="chaos"):
        _request(chaos_profiles=("not-a-profile",))
    with pytest.raises(ServiceError, match="measure_ns"):
        _request(measure_ns=0)
    with pytest.raises(ServiceError, match="crash_tasks"):
        _request(crash_tasks=(99,))


def test_request_digest_excludes_injections():
    """Injected crashes and retry budgets are dynamics, not data: jobs
    with and without them must share a request digest (their canonical
    results are provably identical)."""
    clean = _request()
    assert _request(crash_tasks=(0,)).digest() == clean.digest()
    assert _request(max_attempts=7).digest() == clean.digest()
    assert _request(seeds=(11,)).digest() != clean.digest()


def _dataset(tmp_path, name="ds", seed=271):
    sim, node = build_haswell_node(seed=seed)
    ds = snapshot_host(VirtualHost(sim, node), name, seed)
    save_dataset(ds, dataset_path(tmp_path / "datasets", name))
    return ds


def test_expand_sweep_folds_dataset_into_seed_and_key(tmp_path):
    req = _request(seeds=(11,))
    bare = expand_sweep(req, None)
    ds = _dataset(tmp_path)
    targeted = expand_sweep(req, ds)
    assert len(bare) == len(targeted) == 1
    assert bare[0].manifest.seed == 11
    assert targeted[0].manifest.seed == task_seed(11, ds)
    assert bare[0].cache_key != targeted[0].cache_key
    # axes report the *request* seed, not the mixed scenario seed
    assert targeted[0].axes["seed"] == 11


def test_expand_sweep_is_deterministic(tmp_path):
    ds = _dataset(tmp_path)
    req = _request(variants=("direct", "hostif"))
    assert expand_sweep(req, ds) == expand_sweep(req, ds)
    ids = [t.task_id for t in expand_sweep(req, ds)]
    assert ids == list(range(req.n_tasks))


# ---- result cache -----------------------------------------------------------


def _entry(seed=31) -> CacheEntry:
    manifest = make_manifest(seed=seed, measure_ns=MEASURE_NS)
    trace = run_scenario(manifest)
    return make_entry(cache_key=manifest.cache_key(""),
                      manifest_digest=manifest.digest(),
                      dataset_digest="",
                      result={"trace_digest": trace.digest()},
                      trace_jsonl=trace.to_jsonl())


def test_cache_entry_round_trip_and_verify():
    entry = _entry()
    again = CacheEntry.from_jsonl(entry.to_jsonl())
    assert again == entry
    again.verify(entry.cache_key)           # must not raise
    assert again.recomputed_key() == entry.cache_key


def test_cache_put_get_hit(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _entry()
    cache.put(entry)
    hit = cache.get(entry.cache_key)
    assert hit == entry
    assert cache.get("0" * 32) is None      # unknown key: plain miss


def test_tampered_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _entry()
    path = cache.put(entry)
    lines = path.read_text(encoding="utf-8").splitlines()
    result = json.loads(lines[1])
    result["result"]["trace_digest"] = "f" * 64
    lines[1] = json.dumps(result, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cache.get(entry.cache_key) is None


def test_mis_keyed_cache_entry_is_a_miss(tmp_path):
    """A valid entry renamed under another key must not be served: its
    header components no longer digest to the key being looked up."""
    cache = ResultCache(tmp_path)
    entry = _entry()
    other = make_manifest(seed=99, measure_ns=MEASURE_NS).cache_key("")
    cache.path(other).parent.mkdir(parents=True, exist_ok=True)
    cache.put(entry)
    cache.path(entry.cache_key).rename(cache.path(other))
    assert cache.get(other) is None


def test_cache_key_moves_with_schema():
    manifest = make_manifest(seed=31, measure_ns=MEASURE_NS)
    key = manifest.cache_key("")
    entry = _entry()
    assert entry.schema_version == conformance_schema.SCHEMA_VERSION
    assert key == entry.cache_key
    stale = CacheEntry(cache_key=key, manifest_digest=entry.manifest_digest,
                       dataset_digest="",
                       schema_version=entry.schema_version + 1,
                       schema_digest=entry.schema_digest,
                       trace_digest=entry.trace_digest,
                       result=entry.result, trace_jsonl=entry.trace_jsonl)
    with pytest.raises(ServiceError, match="components"):
        stale.verify(key)


# ---- the service ------------------------------------------------------------


def _service(tmp_path, **overrides) -> ExperimentService:
    base = dict(state_root=tmp_path / "state", jobs=2,
                dataset_dirs=(str(tmp_path / "datasets"),))
    base.update(overrides)
    return ExperimentService(**base)


async def _run_job(service: ExperimentService, request: SweepRequest):
    """Submit and follow a job to settlement; returns (status, events)."""
    job_id = await service.submit(request)
    events = [event async for event in service.watch(job_id)]
    return service.status(job_id), events


def _results_bytes(service: ExperimentService, status: dict) -> bytes:
    return (service.job_dir(status["job_id"]) / "results.json").read_bytes()


def test_job_runs_and_identical_resubmission_is_fully_cached(tmp_path):
    _dataset(tmp_path)
    req = _request(dataset="ds")

    async def scenario():
        service = _service(tmp_path)
        try:
            first, _ = await _run_job(service, req)
            second, _ = await _run_job(service, req)
        finally:
            await service.close()
        return service, first, second

    service, first, second = asyncio.run(scenario())
    assert first["state"] == "ok"
    assert first["counts"] == {"ok": 2}
    assert first["cache_hits"] == 0

    # 100% verified hits, zero executions, byte-identical report.
    assert second["state"] == "ok"
    assert second["counts"] == {"cached": 2}
    assert second["cache_hits"] == 2
    assert _results_bytes(service, first) == _results_bytes(service, second)

    run = json.loads((service.job_dir(second["job_id"]) / "run.json")
                     .read_text(encoding="utf-8"))
    assert all(t["status"] == "cached" for t in run["tasks"])


def test_cache_survives_service_restarts(tmp_path):
    _dataset(tmp_path)
    req = _request(seeds=(11,), dataset="ds")

    async def run_once():
        service = _service(tmp_path)
        try:
            return await _run_job(service, req)
        finally:
            await service.close()

    first, _ = asyncio.run(run_once())
    second, _ = asyncio.run(run_once())     # a brand-new service instance
    assert first["counts"] == {"ok": 1}
    assert second["counts"] == {"cached": 1}


def test_worker_crash_degrades_job_but_not_results(tmp_path):
    """An injected worker death breaks the pool mid-sweep: the job must
    complete (degraded), every task must carry a record, and the
    canonical results must be byte-identical to an undisturbed job's."""
    _dataset(tmp_path)
    crashed_req = _request(dataset="ds", crash_tasks=(0,))
    clean_req = _request(dataset="ds")

    async def scenario():
        service = _service(tmp_path)
        try:
            crashed, events = await _run_job(service, crashed_req)
            clean, _ = await _run_job(service, clean_req)
        finally:
            await service.close()
        return service, crashed, events, clean

    service, crashed, events, clean = asyncio.run(scenario())
    assert crashed["state"] == "degraded"
    assert crashed["pool_rebuilds"] >= 1
    # A pool break kills every in-flight sibling, so all victims retry.
    assert crashed["counts"].get("retried", 0) >= 1
    assert sum(crashed["counts"].values()) == 2
    assert any(e["event"] == "pool-rebuild" for e in events)

    assert clean["counts"] == {"cached": 2}   # crash results were cached
    assert _results_bytes(service, crashed) == _results_bytes(service, clean)


def test_concurrent_jobs_each_survive_a_worker_crash(tmp_path):
    """Two jobs share the service's pool and each crashes one worker:
    the pool must rebuild without stranding the other job, so both
    settle degraded with every record equal to an undisturbed run's."""
    _dataset(tmp_path)
    requests = [_request(name=name, seeds=seeds, dataset="ds",
                         crash_tasks=(0,))
                for name, seeds in (("a", (11, 12, 13)), ("b", (21, 22, 23)))]

    async def run_all(state: str, reqs):
        service = _service(tmp_path, state_root=tmp_path / state)
        try:
            statuses = await asyncio.gather(
                *(_run_job(service, r) for r in reqs))
        finally:
            await service.close()
        return [_results_bytes(service, s) for s, _ in statuses], statuses

    crashed, statuses = asyncio.run(run_all("crashed", requests))
    clean, _ = asyncio.run(run_all(
        "clean", [dataclasses.replace(r, crash_tasks=()) for r in requests]))
    for (status, _events), got, want in zip(statuses, crashed, clean):
        assert status["state"] == "degraded"
        assert status["pool_rebuilds"] >= 1
        assert set(status["counts"]) <= {"ok", "retried"}
        assert json.loads(got)["complete"] is True
        assert got == want


def test_exhausted_attempts_mark_task_lost(tmp_path):
    req = _request(seeds=(11,), crash_tasks=(0,), max_attempts=1)

    async def scenario():
        service = _service(tmp_path)
        try:
            status, _ = await _run_job(service, req)
            results = json.loads(
                _results_bytes(service, status).decode("utf-8"))
        finally:
            await service.close()
        return status, results

    status, results = asyncio.run(scenario())
    assert status["state"] == "failed"
    assert status["counts"] == {"lost": 1}
    assert results["complete"] is False
    assert results["records"] == []


def test_watch_replays_history_for_late_watchers(tmp_path):
    req = _request(seeds=(11,))

    async def scenario():
        service = _service(tmp_path)
        try:
            job_id = await service.submit(req)
            live = [e async for e in service.watch(job_id)]
            late = [e async for e in service.watch(job_id)]   # job settled
        finally:
            await service.close()
        return live, late

    live, late = asyncio.run(scenario())
    assert live == late
    assert late[-1]["event"] == "job"
    assert late[-1]["state"] == "ok"


def test_unknown_job_and_dataset_raise(tmp_path):
    async def scenario():
        service = _service(tmp_path)
        try:
            with pytest.raises(ServiceError, match="no such job"):
                service.status("job-999-deadbeef")
            with pytest.raises(ServiceError):  # DatasetError is a miss here
                await service.submit(_request(dataset="missing"))
        finally:
            await service.close()

    asyncio.run(scenario())


# ---- the socket front end ---------------------------------------------------


async def _rpc(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
               message: dict) -> dict:
    writer.write((json.dumps(message) + "\n").encode("utf-8"))
    await writer.drain()
    return json.loads(await reader.readline())


def test_ndjson_protocol_end_to_end(tmp_path):
    """One connection drives the whole protocol: ping, submit, watch to
    completion, status, jobs, an error response, shutdown."""
    from repro.service.server import ServiceServer, socket_path

    req = _request(seeds=(11,))

    async def scenario():
        service = _service(tmp_path)
        server = await ServiceServer(service).start()
        runner = asyncio.create_task(server.run_until_shutdown())
        reader, writer = await asyncio.open_unix_connection(
            str(socket_path(service.state_root)))
        try:
            pong = await _rpc(reader, writer, {"op": "ping"})
            submitted = await _rpc(reader, writer,
                                   {"op": "submit",
                                    "request": req.to_dict()})
            job_id = submitted["job_id"]
            events = []
            while True:
                if not events:
                    writer.write((json.dumps({"op": "watch",
                                              "job_id": job_id}) + "\n")
                                 .encode("utf-8"))
                    await writer.drain()
                event = json.loads(await reader.readline())
                events.append(event)
                if event.get("done"):
                    break
            status = await _rpc(reader, writer,
                                {"op": "status", "job_id": job_id})
            jobs = await _rpc(reader, writer, {"op": "jobs"})
            error = await _rpc(reader, writer, {"op": "nope"})
            bye = await _rpc(reader, writer, {"op": "shutdown"})
        finally:
            writer.close()
        await runner
        return pong, submitted, events, status, jobs, error, bye

    pong, submitted, events, status, jobs, error, bye = \
        asyncio.run(scenario())
    assert pong == {"ok": True, "pong": True, "jobs": 0}
    assert submitted["ok"] and submitted["n_tasks"] == 1
    assert events[-1]["done"] and events[-1]["status"]["state"] == "ok"
    assert status["status"]["counts"] == {"ok": 1}
    assert jobs["ok"] and len(jobs["jobs"]) == 1
    assert error["ok"] is False and "unknown op" in error["error"]
    assert bye == {"ok": True, "shutting_down": True}
    # The socket is gone after shutdown.
    assert not socket_path(tmp_path / "state").exists()

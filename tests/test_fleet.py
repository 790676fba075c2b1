"""Fleet subsystem: variation draws, plans, checkpoints, crash recovery.

The supervisor tests run real process pools with injected worker
crashes/stalls, so plans are kept tiny (a few nodes, millisecond
windows); the property they certify is the big one — a sweep that lost
workers, degraded stragglers, or resumed from checkpoints aggregates to
the byte-identical report of an undisturbed sweep of the same plan.
"""

from __future__ import annotations

import functools
import json
import os

import pytest

from repro.engine.rng import make_rng
from repro.errors import CheckpointError, FleetError
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, FaultProfile
from repro.fleet import (
    CheckpointStore,
    FleetPlan,
    FleetSupervisor,
    ShardCheckpoint,
    aggregate_from_store,
    simulate_node,
    stable_aggregate_json,
)
from repro.specs.node import HASWELL_TEST_NODE
from repro.specs.variation import VariationModel, draw_variation
from repro.units import ms, seconds
from repro.util.retry import Backoff


def _plan(**overrides) -> FleetPlan:
    """A tiny, fast plan: 6 nodes in 3 shards, millisecond windows."""
    base = dict(n_nodes=6, seed_root=77, shard_size=2,
                settle_ns=ms(1), measure_ns=ms(2), active_cores=2,
                straggler_timeout_s=30.0, max_attempts=3)
    base.update(overrides)
    return FleetPlan(**base)


def _sweep(plan: FleetPlan, root, *, jobs: int = 2, resume: bool = False,
           inject: bool = True, progress=None):
    sup = FleetSupervisor(plan, root, jobs=jobs, sleep=lambda _s: None,
                          poll_s=0.01, progress=progress)
    report = sup.run(resume=resume, inject=inject)
    return sup, report


def _aggregate_bytes(store: CheckpointStore) -> str:
    return stable_aggregate_json(aggregate_from_store(store))


# ---- per-node manufacturing variation ------------------------------------


class TestVariation:
    def test_same_seed_same_silicon(self):
        a = draw_variation(1234, n_sockets=2)
        b = draw_variation(1234, n_sockets=2)
        assert a == b

    def test_different_seeds_differ(self):
        assert draw_variation(1, n_sockets=2) != draw_variation(2, n_sockets=2)

    def test_draws_respect_model_limits(self):
        model = VariationModel(voltage_limit_v=0.004,
                               leakage_limit_frac=0.01)
        for seed in range(40):
            v = draw_variation(seed, n_sockets=2, model=model)
            assert all(abs(off) <= 0.004 for off in v.voltage_offsets_v)
            assert abs(v.leakage_scale - 1.0) <= 0.01 + 1e-9
            assert v.turbo_derate_bins in (0, 1, 2)

    def test_apply_scales_leakage_and_derates_turbo(self):
        v = draw_variation(3, n_sockets=HASWELL_TEST_NODE.n_sockets)
        spec = v.apply(HASWELL_TEST_NODE)
        base_cpu = HASWELL_TEST_NODE.cpu
        assert spec.cpu.power.static_w == pytest.approx(
            base_cpu.power.static_w * v.leakage_scale)
        # Turbo bins never derate below the sustainable base frequency.
        assert all(b >= base_cpu.nominal_hz for b in spec.cpu.turbo.non_avx_hz)
        derate = v.turbo_derate_bins * 100e6
        for varied, base in zip(spec.cpu.turbo.non_avx_hz,
                                base_cpu.turbo.non_avx_hz):
            assert varied == pytest.approx(
                max(base - derate, base_cpu.nominal_hz))

    def test_apply_leaves_base_spec_untouched(self):
        before = HASWELL_TEST_NODE.cpu.power.static_w
        draw_variation(9, n_sockets=2).apply(HASWELL_TEST_NODE)
        assert HASWELL_TEST_NODE.cpu.power.static_w == before

    def test_socket_count_mismatch_rejected(self):
        v = draw_variation(5, n_sockets=1)
        with pytest.raises(Exception, match="sockets"):
            v.apply(HASWELL_TEST_NODE)


# ---- the plan ------------------------------------------------------------


class TestFleetPlan:
    def test_shards_partition_every_node_exactly_once(self):
        plan = _plan(n_nodes=7, shard_size=3)
        shards = plan.shards()
        assert [s.shard_id for s in shards] == [0, 1, 2]
        seen = [n for s in shards for n in s.node_ids]
        assert seen == list(range(7))
        assert all(len(s) <= 3 for s in shards)

    def test_node_seed_stable_and_distinct(self):
        plan = _plan(n_nodes=64, shard_size=16)
        seeds = [plan.node_seed(i) for i in range(64)]
        assert seeds == [plan.node_seed(i) for i in range(64)]
        assert len(set(seeds)) == 64

    def test_digest_stable_and_sensitive(self):
        assert _plan().digest() == _plan().digest()
        assert _plan().digest() != _plan(n_nodes=8).digest()
        assert _plan().digest() != _plan(seed_root=78).digest()
        # Injections are part of the setup, hence part of the digest.
        assert _plan().digest() != _plan(crash_shards=(1,)).digest()

    def test_json_roundtrip_preserves_digest(self):
        plan = _plan(chaos_profile="numa-link", crash_shards=(0, 2),
                     straggler_shards=(1,), straggler_hold_s=1.5)
        clone = FleetPlan.from_dict(json.loads(plan.to_json()))
        assert clone == plan
        assert clone.digest() == plan.digest()

    def test_validation(self):
        with pytest.raises(FleetError):
            _plan(n_nodes=0)
        with pytest.raises(FleetError):
            _plan(shard_size=0)
        with pytest.raises(FleetError):
            _plan(chaos_profile="nope")
        with pytest.raises(FleetError):
            _plan(max_attempts=0)
        with pytest.raises(FleetError, match="outside"):
            _plan(crash_shards=(99,))
        with pytest.raises(FleetError, match="outside"):
            plan = _plan()
            plan.node_seed(plan.n_nodes)

    def test_chaos_plans_are_per_node_and_deterministic(self):
        plan = _plan(chaos_profile="numa-link")
        a = plan.fault_plan_for(0)
        b = plan.fault_plan_for(1)
        assert a is not None and b is not None
        assert a.to_json() == plan.fault_plan_for(0).to_json()
        assert a.to_json() != b.to_json()
        assert _plan().fault_plan_for(0) is None


# ---- worker-crash fault kind ---------------------------------------------


class TestWorkerCrashFaultKind:
    def test_profile_draws_worker_crash_events(self):
        profile = FaultProfile(worker_crash_rate=0.5)
        plan = FaultPlan.generate(7, horizon_ns=seconds(30), profile=profile)
        assert plan.by_kind(FaultKind.WORKER_CRASH)

    def test_injector_skips_process_level_events(self):
        from repro.engine.simulator import Simulator
        from repro.system.node import build_node

        event = FaultEvent(time_ns=ms(1), kind=FaultKind.WORKER_CRASH)
        plan = FaultPlan(seed=0, horizon_ns=ms(10), events=(event,))
        sim = Simulator(seed=1)
        node = build_node(sim, HASWELL_TEST_NODE)
        injector = FaultInjector(sim, node, plan).arm()
        sim.run_for(ms(10))          # would raise if the event were armed
        assert injector.log == []


# ---- checkpoints ---------------------------------------------------------


def _fake_checkpoint(plan: FleetPlan, shard_id: int) -> ShardCheckpoint:
    shard = plan.shards()[shard_id]
    return ShardCheckpoint(
        plan_digest=plan.digest(), shard_id=shard_id,
        node_ids=shard.node_ids,
        records=tuple({"node_id": n, "pkg_power_w": 100.0 + n}
                      for n in shard.node_ids))


class TestCheckpointStore:
    def test_write_load_roundtrip(self, tmp_path):
        plan = _plan()
        store = CheckpointStore(tmp_path, plan).ensure()
        ck = _fake_checkpoint(plan, 1)
        store.write_shard(ck)
        assert store.load_shard(1) == ck
        assert list(store.completed()) == [1]

    def test_records_must_cover_node_ids(self):
        plan = _plan()
        with pytest.raises(CheckpointError, match="cover"):
            ShardCheckpoint(plan_digest=plan.digest(), shard_id=0,
                            node_ids=(0, 1), records=({"node_id": 0},))

    def test_foreign_plan_checkpoint_rejected(self, tmp_path):
        plan, other = _plan(), _plan(seed_root=1)
        store = CheckpointStore(tmp_path, plan).ensure()
        with pytest.raises(CheckpointError, match="namespace"):
            store.write_shard(_fake_checkpoint(other, 0))

    def test_markers_claim_exactly_once_until_cleared(self, tmp_path):
        store = CheckpointStore(tmp_path, _plan()).ensure()
        assert store.claim_marker("crash-0001") is True
        assert store.claim_marker("crash-0001") is False
        store.clear()
        assert store.claim_marker("crash-0001") is True


# ---- worker records ------------------------------------------------------


class TestSimulateNode:
    def test_record_is_pure_function_of_plan_and_node(self):
        plan = _plan()
        assert simulate_node(plan, 2) == simulate_node(plan, 2)
        assert simulate_node(plan, 2) != simulate_node(plan, 3)

    def test_record_carries_physics_and_silicon(self):
        rec = simulate_node(_plan(), 0)
        assert rec["pkg_power_w"] > 0
        assert rec["ac_power_w"] > rec["pkg_power_w"]
        assert rec["mean_active_freq_hz"] > 1e9
        assert rec["variation"]["leakage_scale"] > 0


# ---- the supervisor ------------------------------------------------------


class TestFleetSupervisor:
    def test_clean_sweep_all_ok_and_jobs_invariant(self, tmp_path):
        plan = _plan()
        sup1, rep1 = _sweep(plan, tmp_path / "a", jobs=2)
        sup2, rep2 = _sweep(plan, tmp_path / "b", jobs=1)
        assert rep1.status == "ok" and rep2.status == "ok"
        assert rep1.counts == {"ok": plan.n_shards}
        agg = aggregate_from_store(sup1.store)
        assert agg["complete"] is True
        assert agg["nodes_reported"] == plan.n_nodes
        assert _aggregate_bytes(sup1.store) == _aggregate_bytes(sup2.store)

    def test_injected_crash_recovers_requeued_exactly_once(self, tmp_path):
        plan = _plan(crash_shards=(1,))
        sup, report = _sweep(plan, tmp_path / "chaos", jobs=2)
        assert report.status == "degraded"
        assert report.pool_rebuilds >= 1
        by_id = {o.shard_id: o for o in report.outcomes}
        assert by_id[1].status == "retried"
        assert by_id[1].attempts == 2          # requeued exactly once
        assert aggregate_from_store(sup.store)["complete"] is True
        # Byte-identical to an undisturbed reference run of the SAME plan
        # (inject=False disarms the crash without changing the digest).
        ref, _ = _sweep(plan, tmp_path / "ref", jobs=2, inject=False)
        assert _aggregate_bytes(sup.store) == _aggregate_bytes(ref.store)

    def test_straggler_degrades_then_resume_restores_equality(self, tmp_path):
        plan = _plan(straggler_shards=(1,), straggler_hold_s=5.0,
                     straggler_timeout_s=0.3)
        sup, report = _sweep(plan, tmp_path / "slow", jobs=2)
        by_id = {o.shard_id: o for o in report.outcomes}
        assert report.status == "degraded"
        assert by_id[1].status == "degraded"
        assert "straggler" in by_id[1].error
        agg = aggregate_from_store(sup.store)
        assert agg["complete"] is False
        assert agg["shards"]["missing"] == 1
        # Resume: the stall tombstone is already claimed, so the shard
        # runs clean and the aggregate matches an undisturbed sweep.
        sup2, report2 = _sweep(plan, tmp_path / "slow", jobs=2, resume=True)
        assert report2.status == "ok"
        assert report2.counts == {"cached": 2, "ok": 1}
        ref, _ = _sweep(plan, tmp_path / "ref", jobs=2, inject=False)
        assert _aggregate_bytes(sup2.store) == _aggregate_bytes(ref.store)

    def test_stop_request_interrupts_then_resume_completes(self, tmp_path):
        plan = _plan()
        holder = {}

        def stop_after_first(outcome):
            holder["sup"].request_stop()

        sup = FleetSupervisor(plan, tmp_path / "int", jobs=1,
                              sleep=lambda _s: None, poll_s=0.01,
                              progress=stop_after_first)
        holder["sup"] = sup
        report = sup.run()
        assert report.status == "interrupted"
        assert "interrupted" in report.counts
        assert 0 < len(report.completed_shards()) < plan.n_shards
        agg = aggregate_from_store(sup.store)
        assert agg["complete"] is False
        sup2, report2 = _sweep(plan, tmp_path / "int", resume=True)
        assert report2.status == "ok"
        ref, _ = _sweep(plan, tmp_path / "ref")
        assert _aggregate_bytes(sup2.store) == _aggregate_bytes(ref.store)

    def test_resume_reruns_corrupted_checkpoint(self, tmp_path):
        plan = _plan()
        sup, _ = _sweep(plan, tmp_path / "x")
        clean = _aggregate_bytes(sup.store)
        path = sup.store.shard_path(2)
        path.write_text(path.read_text()[:40])      # corrupt one shard
        sup2, report = _sweep(plan, tmp_path / "x", resume=True)
        assert {o.status for o in report.outcomes} == {"cached", "ok"}
        assert _aggregate_bytes(sup2.store) == clean


# ---- experiment-runner worker-crash recovery -----------------------------


def _crash_once_builder(marker: str) -> str:
    """Dies hard the first time it runs anywhere; clean ever after."""
    try:
        with open(marker, "x") as fh:
            fh.write("fired\n")
    except FileExistsError:
        return "survived\n"
    os._exit(117)


def _ok_builder() -> str:
    return "ok\n"


class TestRunnerWorkerCrashRecovery:
    def test_pool_rebuilt_and_victims_requeued(self, tmp_path):
        marker = str(tmp_path / "crash.marker")
        runner = ExperimentRunner(
            [ExperimentSpec("crashy",
                            functools.partial(_crash_once_builder, marker)),
             ExperimentSpec("steady", _ok_builder)],
            jobs=2, sleep=lambda _s: None)
        report = runner.run()
        by_name = {o.name: o for o in report.outcomes}
        assert not report.hard_failures
        assert by_name["crashy"].status == "retried"
        assert by_name["crashy"].attempts >= 2
        assert by_name["steady"].status in ("ok", "retried")
        assert [o.name for o in report.outcomes] == ["crashy", "steady"]

    def test_persistent_crash_fails_after_max_attempts(self):
        runner = ExperimentRunner(
            [ExperimentSpec("doomed", _always_crash)],
            jobs=2, max_attempts=2, sleep=lambda _s: None)
        report = runner.run(["doomed"])
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "worker process died" in outcome.error


def _always_crash() -> str:
    os._exit(117)


# ---- seeded backoff jitter -----------------------------------------------


class TestBackoffJitter:
    def test_no_rng_means_exact_legacy_sequence(self):
        b = Backoff(initial_s=0.1, factor=2.0, max_delay_s=0.5,
                    jitter_frac=0.5)
        assert list(b.delays(4)) == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_bounded_and_seed_deterministic(self):
        b = Backoff(initial_s=0.1, factor=2.0, max_delay_s=10.0,
                    jitter_frac=0.4)
        one = [b.delay_s(i, rng=make_rng(9)) for i in range(1, 6)]
        two = [b.delay_s(i, rng=make_rng(9)) for i in range(1, 6)]
        assert one == two                       # same seed, same schedule
        for attempt, delay in enumerate(one, start=1):
            nominal = min(0.1 * 2.0 ** (attempt - 1), 10.0)
            assert nominal * 0.6 <= delay <= nominal

    def test_jitter_frac_validated(self):
        with pytest.raises(ValueError):
            Backoff(jitter_frac=1.5)
        with pytest.raises(ValueError):
            Backoff(jitter_frac=-0.1)

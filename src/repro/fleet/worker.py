"""Worker-side fleet execution: one shard of seeded node simulations.

:func:`run_shard` is the (picklable, module-level) function the
supervisor submits to its process pool. It simulates every node of the
shard — silicon drawn from the node seed, optional per-node fault plan
under the plan's chaos profile — and returns the per-node records; the
*parent* writes the checkpoint, so a half-dead worker can never race a
file into the namespace.

Determinism contract: a node record is a pure function of
``(plan, node_id)``. Nothing host-side (attempt number, wall clock,
worker identity, injected process faults) reaches a record, which is
why a sweep that lost workers, retried shards or resumed from
checkpoints aggregates to the byte-identical report of an undisturbed
sweep.

Injected process failures (one-shot, tombstoned via the checkpoint
store's marker files):

* a *crash* (``FaultKind.WORKER_CRASH`` drawn in a shard's chaos plan,
  or the shard listed in ``plan.crash_shards``) hard-kills the worker
  with ``os._exit`` — the parent sees ``BrokenProcessPool`` exactly as
  if the OOM killer had struck;
* a *straggler* stalls the worker past ``plan.straggler_timeout_s`` so
  the supervisor's per-shard deadline fires and degrades the sweep.
"""

from __future__ import annotations

import os
import time

from repro.engine.simulator import Simulator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind
from repro.fleet.checkpoint import CheckpointStore, ShardCheckpoint
from repro.fleet.plan import FleetPlan, FleetShard
from repro.power.rapl import RaplDomain
from repro.specs.node import HASWELL_TEST_NODE
from repro.specs.variation import draw_variation
from repro.system.node import build_node
from repro.units import NS_PER_S
from repro.workloads.firestarter import firestarter

#: Exit status of an injected worker crash (visible in pool diagnostics).
CRASH_EXIT_STATUS = 117


def simulate_node(plan: FleetPlan, node_id: int) -> dict:
    """One node's sweep record — a pure function of (plan, node_id)."""
    seed = plan.node_seed(node_id)
    variation = draw_variation(seed, n_sockets=HASWELL_TEST_NODE.n_sockets,
                               model=plan.variation)
    spec = variation.apply(HASWELL_TEST_NODE)
    sim = Simulator(seed=seed)
    node = build_node(sim, spec)
    injector = None
    fault_plan = plan.fault_plan_for(node_id)
    if fault_plan is not None:
        injector = FaultInjector(sim, node, fault_plan).arm()
    cpus = list(range(min(plan.active_cores, spec.total_cores)))
    node.run_workload(cpus, firestarter())
    sim.run_for(plan.settle_ns)

    e_pkg0 = sum(s.rapl.true_energy_j(RaplDomain.PACKAGE)
                 for s in node.sockets)
    e_dram0 = sum(s.rapl.true_energy_j(RaplDomain.DRAM)
                  for s in node.sockets)
    e_ac0 = node.ac_energy_j
    t0 = sim.now_ns
    sim.run_for(plan.measure_ns)
    dt_s = (sim.now_ns - t0) / NS_PER_S

    pkg_w = (sum(s.rapl.true_energy_j(RaplDomain.PACKAGE)
                 for s in node.sockets) - e_pkg0) / dt_s
    dram_w = (sum(s.rapl.true_energy_j(RaplDomain.DRAM)
                  for s in node.sockets) - e_dram0) / dt_s
    ac_w = (node.ac_energy_j - e_ac0) / dt_s
    active = [c for c in node.all_cores if c.is_active]
    mean_f = (sum(c.freq_hz for c in active) / len(active)) if active else 0.0
    return {
        "node_id": node_id,
        "seed": seed,
        "pkg_power_w": round(pkg_w, 6),
        "dram_power_w": round(dram_w, 6),
        "ac_power_w": round(ac_w, 6),
        "mean_active_freq_hz": round(mean_f, 3),
        "variation": variation.to_dict(),
        "faults_fired": len(injector.log) if injector is not None else 0,
    }


def _maybe_inject_process_faults(plan: FleetPlan, shard: FleetShard,
                                 store: CheckpointStore) -> None:
    """Fire the shard's one-shot injected crash/stall, if unclaimed."""
    crash = (shard.shard_id in plan.crash_shards
             or any((fp := plan.fault_plan_for(nid)) is not None
                    and fp.by_kind(FaultKind.WORKER_CRASH)
                    for nid in shard.node_ids))
    if crash and store.claim_marker(f"crash-{shard.shard_id:04d}"):
        # A real worker death: no exception, no cleanup, no checkpoint.
        os._exit(CRASH_EXIT_STATUS)
    if (shard.shard_id in plan.straggler_shards
            and plan.straggler_hold_s > 0
            and store.claim_marker(f"straggler-{shard.shard_id:04d}")):
        # repro-lint: disable=det-wallclock — injected straggler stalls the host process; simulator state is untouched
        time.sleep(plan.straggler_hold_s)


def run_shard(plan: FleetPlan, shard_id: int,
              ckpt_root: str) -> ShardCheckpoint:
    """Execute one shard; returns its checkpoint for the parent to write."""
    shard = plan.shards()[shard_id]
    store = CheckpointStore(ckpt_root, plan)
    _maybe_inject_process_faults(plan, shard, store)
    records = [simulate_node(plan, node_id) for node_id in shard.node_ids]
    return ShardCheckpoint(plan_digest=store.plan_digest, shard_id=shard_id,
                           node_ids=shard.node_ids, records=tuple(records))

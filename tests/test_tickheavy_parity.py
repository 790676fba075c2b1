"""Randomized tick-heavy churn parity: fast path on == fast path off.

The fast path (steady PCU tick plans, epoch-keyed caches, the
operating-point memo) claims bit-identical behaviour to the path that
re-derives every PCU grant and recomputes every segment's rates. Both
runs share event cohorts, batched RNG draws and the segment-rate lanes
of ``Socket._rates_from_key``; ``tests/test_rate_parity.py`` checks
those lanes against the scalar reference. This harness hammers the
claim with ~100 seeded random churn schedules: every schedule loads all
cores with the sub-quantum tick-heavy workload and then fires a random
interleaving of governor flips, EPB writes, c-state disables,
uncore-window changes, workload stop/restart and (on a third of the
seeds) an armed chaos fault plan. Each schedule runs twice — fast path on and off — under the
runtime sanitizer, and the full observable state *and* the RNG draw
ledger must match exactly.

The schedule is generated once per seed (plain data) and applied to
both runs, so any divergence is attributable to the execution strategy
alone.
"""

from __future__ import annotations

import pytest

from repro.cstates.states import CState, PackageCState
from repro.engine import sanitize
from repro.engine.simulator import Simulator
from repro.faults.injector import FaultInjector
from repro.conformance.scenario import chaos_plan
from repro.pcu.epb import Epb
from repro.specs.node import HASWELL_TEST_NODE
from repro.system.node import build_node
from repro.units import ms, us
from repro.workloads import micro

N_SCHEDULES = 100
MEASURE_NS = ms(2)

# Deterministic schedule generator: a tiny LCG avoids importing `random`
# (repro-lint det-seed would rightly flag an unseeded global stream, and
# the stdlib Mersenne state is overkill for picking churn actions).
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK = (1 << 64) - 1


class _Lcg:
    def __init__(self, seed: int) -> None:
        self.state = (seed * 2862933555777941757 + 3037000493) & _MASK

    def next(self, bound: int) -> int:
        self.state = (self.state * _LCG_A + _LCG_C) & _MASK
        return (self.state >> 33) % bound


def _make_schedule(seed: int) -> dict:
    """One churn recipe: plain data, identical for both parity runs."""
    rng = _Lcg(seed)
    pstates = HASWELL_TEST_NODE.cpu.pstates_hz
    n_cores = HASWELL_TEST_NODE.cpu.n_cores * HASWELL_TEST_NODE.n_sockets
    actions = []
    t = 0
    for _ in range(3 + rng.next(4)):
        t += us(150) + us(rng.next(400))
        kind = rng.next(6)
        cores = sorted({rng.next(n_cores) for _ in range(1 + rng.next(6))})
        if kind == 0:      # governor flip: pinned p-state or back to turbo
            f = None if rng.next(3) == 0 else pstates[rng.next(len(pstates))]
            actions.append(("pstate", cores, f))
        elif kind == 1:    # EPB write
            epb = (Epb.PERFORMANCE, Epb.BALANCED, Epb.POWERSAVE)[rng.next(3)]
            actions.append(("epb", None, epb))
        elif kind == 2:    # cpuidle disable knob
            state = (CState.C3, CState.C6)[rng.next(2)]
            actions.append(("cstate-disable", cores, (state, rng.next(2))))
        elif kind == 3:    # uncore window narrow/restore
            lo = 1.2e9 + 0.1e9 * rng.next(4)
            actions.append(("uncore", None, (lo, lo + 0.2e9)))
        elif kind == 4:    # park a few cores
            actions.append(("stop", cores, None))
        else:              # (re)start the churn workload
            actions.append(("run", cores, None))
    return {
        "seed": seed,
        "chaos": ("" if seed % 3 else
                  ("numa-link", "psu-brownout")[rng.next(2)]),
        "turbo": rng.next(4) != 0,      # mostly on, so dither is live
        "actions": [(t_i, a) for t_i, a in zip(
            _action_times(rng, len(actions)), actions)],
    }


def _action_times(rng: _Lcg, n: int) -> list[int]:
    times, t = [], 0
    for _ in range(n):
        t += us(100) + us(rng.next(500))
        times.append(t)
    return times


def _apply(node, action) -> None:
    kind, cores, arg = action
    if kind == "pstate":
        node.set_pstate(cores, arg)
    elif kind == "epb":
        node.set_epb(arg)
    elif kind == "cstate-disable":
        state, disabled = arg
        for core_id in cores:
            node.core(core_id).set_cstate_disabled(state, bool(disabled))
    elif kind == "uncore":
        node.set_uncore_limits(*arg)
    elif kind == "stop":
        node.stop_workload(cores)
    elif kind == "run":
        node.run_workload(cores, micro.tick_heavy())
    else:                                       # pragma: no cover
        raise AssertionError(f"unknown churn action {kind!r}")


def _snapshot(node) -> dict:
    out: dict = {"ac_energy_j": node.ac_energy_j}
    for s in node.sockets:
        for c in s.cores:
            out[f"core{c.core_id}"] = c.counters.snapshot()
            out[f"core{c.core_id}-res"] = dict(c.counters.cstate_residency_ns)
            out[f"core{c.core_id}-op"] = (c.freq_hz, c.requested_hz,
                                          c.cstate, c.avx_license)
        out[f"s{s.socket_id}-energy"] = (s.energy_pkg_j, s.energy_dram_j)
        out[f"s{s.socket_id}-rapl"] = {
            d.name: s.rapl.true_energy_j(d) for d in s.rapl.domains}
        out[f"s{s.socket_id}-pkg"] = {
            p.name: s.package_residency_ns(p) for p in PackageCState}
    return out


def _run_schedule(schedule: dict, fastpath: bool) -> tuple[dict, tuple]:
    """Execute one churn schedule; returns (state snapshot, RNG ledger)."""
    sanitize.set_enabled(True)
    try:
        sim = Simulator(seed=77000 + schedule["seed"])
        node = build_node(sim, HASWELL_TEST_NODE)
        node.set_fastpath(fastpath)
        if schedule["chaos"]:
            plan = chaos_plan(schedule["chaos"], schedule["seed"], MEASURE_NS)
            FaultInjector(sim, node, plan).arm()
        node.set_turbo(schedule["turbo"])
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.tick_heavy())
        for t_ns, action in schedule["actions"]:
            sim.run_until(min(t_ns, MEASURE_NS))
            _apply(node, action)
        sim.run_until(MEASURE_NS)
        assert sim.ledger is not None
        return _snapshot(node), tuple(sim.ledger.entries)
    finally:
        sanitize.set_enabled(None)


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_random_churn_parity(seed):
    schedule = _make_schedule(seed)
    fast_state, fast_ledger = _run_schedule(schedule, fastpath=True)
    slow_state, slow_ledger = _run_schedule(schedule, fastpath=False)
    mismatched = [k for k in fast_state if fast_state[k] != slow_state[k]]
    assert not mismatched, (
        f"schedule {seed} ({schedule['chaos'] or 'no chaos'}): fast path "
        f"diverged on {mismatched}")
    assert fast_ledger == slow_ledger, (
        f"schedule {seed}: RNG draw ledgers diverged "
        f"(fast {len(fast_ledger)} sites, slow {len(slow_ledger)})")


def test_schedules_exercise_the_dither():
    """At least some schedules must actually draw turbo dither RNG —
    otherwise the ledger half of the parity assertion is vacuous."""
    drew = 0
    for seed in range(0, N_SCHEDULES, 10):
        _, ledger = _run_schedule(_make_schedule(seed), fastpath=True)
        if any(count > 0 for _, _, count in ledger):
            drew += 1
    assert drew > 0

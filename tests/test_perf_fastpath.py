"""The steady-state fast path: epoch invalidation, parity, parallelism.

Three properties guard the optimization (docs/performance.md):

1. every rate-changing mutation bumps the socket epoch (and the node
   epoch through the parent chain), while idempotent writes do not;
2. the cached fast path is bit-identical to the uncached slow path —
   including under an armed chaos fault plan, and through steady PCU
   ticks both below and at the TDP budget (state, MBVR power state and
   RNG draw ledger);
3. a parallel (``jobs=4``) experiment suite reports exactly what the
   serial suite reports.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cstates.states import CState
from repro.engine.simulator import Simulator
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.faults import chaos
from repro.pcu.pcu import Pcu
from repro.system.core import AvxLicense
from repro.system.node import Node, build_haswell_node
from repro.units import NS_PER_S, ms, us
from repro.workloads import micro
from repro.workloads.base import Workload, WorkloadPhase
from repro.workloads.firestarter import firestarter


def _node() -> tuple[Simulator, Node]:
    return build_haswell_node(seed=4711)


def _phasey_workload() -> Workload:
    return Workload(name="phasey", phases=(
        WorkloadPhase(name="burst", duration_ns=us(150), power_activity=0.6,
                      ipc_parity=2.0, stall_fraction=0.05),
        WorkloadPhase(name="avx", duration_ns=us(120), power_activity=0.9,
                      avx_fraction=0.9, ipc_parity=1.4, stall_fraction=0.08,
                      l3_bytes_per_cycle=1.0),
        WorkloadPhase(name="nap", duration_ns=us(80), active=False,
                      idle_cstate="C1"),
    ), cyclic=True)


# ---- 1. epoch bumps ---------------------------------------------------------


class TestEpochBumps:
    def test_apply_frequency_bumps(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]
        before = socket.epoch.value
        core.apply_frequency(core.freq_hz + 100e6)
        assert socket.epoch.value > before

    def test_apply_same_frequency_does_not_bump(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]
        before = socket.epoch.value
        core.apply_frequency(core.freq_hz)
        assert socket.epoch.value == before

    def test_request_pstate_bumps(self):
        _, node = _node()
        socket = node.sockets[0]
        before = socket.epoch.value
        socket.cores[0].request_pstate(socket.spec.pstates_hz[0])
        assert socket.epoch.value > before

    def test_cstate_transitions_bump(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]            # boots parked in C6
        before = socket.epoch.value
        core.wake()
        after_wake = socket.epoch.value
        assert after_wake > before
        core.enter_cstate(CState.C3)
        assert socket.epoch.value > after_wake

    def test_avx_license_write_bumps(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]
        before = socket.epoch.value
        core.avx_license = AvxLicense.REQUESTING
        assert socket.epoch.value > before
        again = socket.epoch.value
        core.avx_license = AvxLicense.REQUESTING     # idempotent
        assert socket.epoch.value == again

    def test_workload_bind_and_phase_advance_bump(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]
        before = socket.epoch.value
        core.bind_workload(_phasey_workload())
        after_bind = socket.epoch.value
        assert after_bind > before
        core.advance_phase()
        assert socket.epoch.value > after_bind

    def test_uncore_frequency_and_halt_bump(self):
        _, node = _node()
        socket = node.sockets[0]
        uncore = socket.uncore
        before = socket.epoch.value
        uncore.set_frequency(socket.spec.uncore_max_hz)
        after_freq = socket.epoch.value
        assert after_freq > before
        uncore.halt()
        after_halt = socket.epoch.value
        assert after_halt > after_freq
        uncore.halt()                                # idempotent
        assert socket.epoch.value == after_halt
        uncore.resume()
        assert socket.epoch.value > after_halt

    def test_socket_bumps_propagate_to_node_epoch(self):
        _, node = _node()
        before = node.epoch.value
        node.sockets[1].cores[0].wake()
        assert node.epoch.value > before

    def test_epoch_settles_in_steady_state(self):
        """A settled steady workload stops mutating: the epoch freezes,
        so every segment integrates through the cached rates."""
        sim, node = _node()
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.compute())
        sim.run_for(int(0.05 * NS_PER_S))            # settle grants/EET
        marks = [node.epoch.value]
        for _ in range(5):
            sim.run_for(int(0.01 * NS_PER_S))
            marks.append(node.epoch.value)
        assert marks[-1] == marks[1], f"epoch still moving: {marks}"


# ---- 2. fast/slow parity ----------------------------------------------------
# Each input drives a fresh node through mid-run mutations; the fast and
# slow runs must leave every observable surface bit-identical.


def _mixed(sim: Simulator, node: Node) -> dict:
    """dgemm plus a phase-cycling fleet, a p-state change, then a stop."""
    ids = [c.core_id for c in node.all_cores]
    node.run_workload(ids[:8], micro.dgemm())
    node.run_workload(ids[8:16], _phasey_workload())
    sim.run_for(int(0.08 * NS_PER_S))
    node.set_pstate(ids[:4], 2.2e9)
    sim.run_for(int(0.06 * NS_PER_S))
    node.stop_workload(ids[8:16])
    sim.run_for(int(0.08 * NS_PER_S))
    return {}


def _settled_firestarter(start_hz: float | None, moved: slice,
                         mid_hz: float):
    """FIRESTARTER on all 24 cores settles into steady PCU ticks (the
    control key stops moving), then the ``moved`` cores get a new
    p-state and the node settles again.

    The MBVR power state is sampled every 50 us at the end: both
    sockets overwrite the node-shared regulator on every tick, so a
    socket that skipped its selection shows up as a different sequence
    whenever the two sockets' loads sit on opposite sides of a
    threshold.
    """
    def drive(sim: Simulator, node: Node) -> dict:
        ids = [c.core_id for c in node.all_cores]
        node.run_workload(ids, firestarter())
        node.set_pstate(ids, start_hz)
        sim.run_for(ms(40))
        node.set_pstate(ids[moved], mid_hz)
        sim.run_for(ms(30))
        states = []
        for _ in range(200):
            sim.run_for(us(50))
            states.append(node.mbvr.power_state)
        return {"mbvr-samples": states}
    return drive


def _run_scenario(fastpath: bool, drive=_mixed,
                  chaos_seed: int | None = None) -> dict:
    """Every observable counter/energy/operating-point surface after
    ``drive``, plus the RNG draw ledger when the sanitizer is on."""
    if chaos_seed is not None:
        chaos.activate(chaos_seed)
    try:
        sim, node = build_haswell_node(seed=99173)
    finally:
        if chaos_seed is not None:
            chaos.deactivate()
    node.set_fastpath(fastpath)
    out = drive(sim, node)
    out.update(ac_energy_j=node.ac_energy_j, mbvr=node.mbvr.power_state)
    from repro.cstates.states import PackageCState
    for s in node.sockets:
        for c in s.cores:
            out[f"core{c.core_id}"] = c.counters.snapshot()
            out[f"core{c.core_id}-res"] = dict(c.counters.cstate_residency_ns)
            out[f"core{c.core_id}-op"] = (c.freq_hz, c.requested_hz,
                                          c.cstate, c.avx_license)
        out[f"s{s.socket_id}-uncore"] = s.uncore.freq_hz
        out[f"s{s.socket_id}-rapl"] = {
            d.name: s.rapl.true_energy_j(d) for d in s.rapl.domains}
        out[f"s{s.socket_id}-pkg"] = {
            p.name: s.package_residency_ns(p) for p in PackageCState}
    if sim.ledger is not None:
        out["ledger"] = [tuple(entry) for entry in sim.ledger.entries]
    return out


def _assert_parity(drive=_mixed, chaos_seed: int | None = None) -> dict:
    fast = _run_scenario(True, drive, chaos_seed)
    slow = _run_scenario(False, drive, chaos_seed)
    mismatched = [k for k in fast if fast[k] != slow[k]]
    assert not mismatched, f"fast path diverged on {mismatched}"
    return fast


@pytest.fixture
def steady_plans(monkeypatch) -> Counter:
    """Counts the steady-tick plans the fast path classifies, so a
    steady input proves it reached the branch it exists to cover."""
    seen: Counter = Counter()
    plan_steady = Pcu._plan_steady

    def spy(pcu):
        plan = plan_steady(pcu)
        seen[plan] += 1
        return plan
    monkeypatch.setattr(Pcu, "_plan_steady", spy)
    return seen


class TestFastSlowParity:
    def test_bit_identical_without_chaos(self):
        _assert_parity()

    def test_bit_identical_under_chaos(self):
        _assert_parity(chaos_seed=20150406)

    def test_steady_ticks_tdp_bound(self, monkeypatch, steady_plans):
        """FIRESTARTER at turbo: steady ticks are grant-only (one dither
        draw each), whose draws the sanitizer ledger pins by site."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        fast = _assert_parity(_settled_firestarter(None, slice(6), 2.2e9))
        assert fast["ledger"], "no RNG draws recorded"
        assert steady_plans["grant"] > 0, dict(steady_plans)

    def test_steady_ticks_below_tdp_budget(self, monkeypatch, steady_plans):
        """Below the budget, steady ticks are no-ops apart from the
        node-shared MBVR selection; slowing socket 1 to 1.2 GHz puts
        the sockets on opposite sides of an MBVR threshold."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        fast = _assert_parity(_settled_firestarter(2.1e9, slice(12, None),
                                                   1.2e9))
        assert len(set(fast["mbvr-samples"])) > 1, "MBVR never switched"
        assert steady_plans["noop"] > 0, dict(steady_plans)


# ---- 3. parallel suite parity ----------------------------------------------
# Module-level builders: ProcessPoolExecutor pickles specs by reference,
# so they cannot be lambdas or closures.


def _exp_counters() -> str:
    sim, node = build_haswell_node(seed=101)
    node.run_workload([0, 1, 2], micro.compute())
    sim.run_for(int(0.02 * NS_PER_S))
    total = node.sockets[0].counter_total("instructions_core")
    return f"instructions={total!r}"


def _exp_energy() -> str:
    sim, node = build_haswell_node(seed=202)
    node.run_workload([c.core_id for c in node.all_cores], micro.dgemm())
    sim.run_for(int(0.02 * NS_PER_S))
    return f"ac_energy={node.ac_energy_j!r}"


def _exp_idle() -> str:
    sim, node = build_haswell_node(seed=303)
    sim.run_for(int(0.02 * NS_PER_S))
    return f"idle_energy={node.ac_energy_j!r}"


def _exp_pstate() -> str:
    sim, node = build_haswell_node(seed=404)
    node.run_workload([0, 1], micro.compute())
    node.set_pstate([0, 1], 1.2e9)
    sim.run_for(int(0.02 * NS_PER_S))
    return f"freq={node.core(0).freq_hz!r}"


_SUITE = [
    ExperimentSpec(name="counters", build=_exp_counters, timeout_s=120.0),
    ExperimentSpec(name="energy", build=_exp_energy, timeout_s=120.0),
    ExperimentSpec(name="idle", build=_exp_idle, timeout_s=120.0),
    ExperimentSpec(name="pstate", build=_exp_pstate, timeout_s=120.0),
]


class TestParallelSuite:
    def test_jobs4_report_identical_to_serial(self, tmp_path):
        def writer_for(tag):
            d = tmp_path / tag
            d.mkdir()

            def write(name, text):
                path = d / f"{name}.txt"
                path.write_text(text)
                return path
            return write

        serial = ExperimentRunner(_SUITE, jobs=1,
                                  artifact_writer=writer_for("serial")).run()
        parallel = ExperimentRunner(_SUITE, jobs=4,
                                    artifact_writer=writer_for("par")).run()
        assert serial.records() == parallel.records()
        for spec in _SUITE:
            a = (tmp_path / "serial" / f"{spec.name}.txt").read_text()
            b = (tmp_path / "par" / f"{spec.name}.txt").read_text()
            assert a == b, f"artifact {spec.name} differs"

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(_SUITE, jobs=0)

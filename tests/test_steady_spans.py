"""Steady spans are bit-identical to firing every periodic event.

A steady span (``Node.run_span``) runs both PCUs' ticks, their EET polls
and the RAPL refresh directly and integrates their segments with one
accumulate. Each case here runs a fast-path twin, where spans run, and
a ``set_fastpath(False)`` twin, where every event fires from the queue,
under the sanitizer, and asserts the full state — counters, energies,
residencies, EET windows, visible RAPL energy, the MBVR state, the
timers' times and sequence numbers, traces — and the RNG draw ledger
are equal. Each case also asserts that spans absorbed events.
"""

import numpy as np
import pytest

from repro.conformance.recorder import ConformanceRecorder
from repro.cstates.states import PackageCState
from repro.engine.simulator import Simulator
from repro.engine.trace import TraceRecorder
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, _pairs
from repro.pcu.epb import Epb
from repro.pcu.pcu import _EET_ROWS, TICK_JITTER_NS, Pcu
from repro.specs.node import (HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE,
                              WESTMERE_TEST_NODE, NodeSpec)
from repro.system.node import (SPAN_MAX_EVENTS, Node, build_haswell_node,
                               build_node)
from repro.units import ghz, ms, seconds, us
from repro.workloads.firestarter import firestarter
from repro.workloads.base import Workload, WorkloadPhase
from repro.workloads.micro import compute, memory_read


@pytest.fixture(autouse=True)
def _sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def _state(sim: Simulator, node: Node) -> dict:
    out = {"now": sim.now_ns, "ac": node.ac_energy_j,
           "mbvr": node.mbvr.power_state, "next_seq": sim.queue.next_seq,
           "ledger": [tuple(entry) for entry in sim.ledger.entries],
           "trace": [(r.time_ns, r.source, r.kind, r.payload)
                     for r in sim.trace.records]}
    for s in node.sockets:
        for c in s.cores:
            out[f"core{c.core_id}"] = (
                c.counters.snapshot(), dict(c.counters.cstate_residency_ns),
                c.freq_hz, c.cstate)
        rapl = s.rapl
        out[f"s{s.socket_id}"] = (
            s.uncore.counters.snapshot(), s.uncore.freq_hz,
            s.energy_pkg_j, s.energy_dram_j,
            {d.name: rapl.true_energy_j(d) for d in rapl.domains},
            {d.name: rapl.read_counter(d) for d in rapl.domains},
            {p.name: s.package_residency_ns(p) for p in PackageCState})
    for pcu in node.pcus:
        out[f"pcu{pcu.socket.socket_id}"] = (
            pcu._eet_last_stall, pcu._eet_last_cycles, pcu.eet.trim_hz,
            (pcu.tick_event.time_ns, pcu.tick_event.seq),
            (pcu.eet_timer.event.time_ns, pcu.eet_timer.event.seq))
    out["rapl-timer"] = (node.rapl_timer.event.time_ns,
                         node.rapl_timer.event.seq)
    return out


def _twins(drive, *, epb: Epb = Epb.BALANCED, trace=None, seed: int = 4242,
           spec: NodeSpec = HASWELL_TEST_NODE):
    """Runs ``drive(sim, node)`` on a fast-path and a fast-path-off twin;
    asserts equal states and returns the fast twin's node."""
    states = []
    nodes = []
    for fastpath in (True, False):
        sim = Simulator(seed=seed, trace=trace() if trace else None)
        node = build_node(sim, spec, epb=epb)
        node.set_fastpath(fastpath)
        drive(sim, node)
        states.append(_state(sim, node))
        nodes.append(node)
    fast, slow = states
    assert fast["ledger"], "no RNG draws recorded"
    mismatched = [k for k in fast if fast[k] != slow[k]]
    assert not mismatched, f"steady spans diverged on {mismatched}"
    assert nodes[1].span_events == 0
    assert nodes[0].span_events > 0, "no span absorbed an event"
    return nodes[0]


def test_below_tdp_compute_noop_plan():
    def drive(sim, node):
        ids = list(range(4))
        node.run_workload(ids, compute())
        node.set_pstate(ids, ghz(2.0))
        sim.run_for(ms(300))

    node = _twins(drive)
    # Long no-op spans: most periodic events never reach the queue.
    assert node.span_events > 1000


def test_sandy_bridge_modeled_rapl():
    """Modeled RAPL adds each segment's power times the workload bias,
    a rate the span's accumulate must advance like the other entries."""
    def drive(sim, node):
        node.run_workload([0, 1, 2, 8], compute())
        sim.run_for(ms(150))

    node = _twins(drive, spec=SANDY_BRIDGE_TEST_NODE)
    assert node.sockets[0].rapl.modeled


def test_all_core_firestarter_grant_only_plan():
    """TDP-bound turbo: grants dither, and a grant that leaves the apply
    window ends the span — the apply lands from the queue."""
    def drive(sim, node):
        ids = [c.core_id for c in node.all_cores]
        node.run_workload(ids, firestarter())
        node.set_pstate(ids, None)
        sim.run_for(ms(400))

    node = _twins(drive, trace=lambda: TraceRecorder(kinds={"freq-apply"}))
    applies = node.sim.trace.records
    assert sum(1 for r in applies if r.time_ns > ms(100)) >= 3
    assert node.spans >= 3
    assert node.span_ends["window"] > 0


def _stall_flip() -> Workload:
    """A lean and a memory-bound stally phase, off the 1 ms poll grid:
    the EET window straddles each switch."""
    return Workload(name="stall-flip", cyclic=True, phases=(
        WorkloadPhase(name="lean", duration_ns=us(7300), power_activity=0.6,
                      ipc_parity=1.5, stall_fraction=0.1),
        WorkloadPhase(name="stally", duration_ns=us(6100),
                      power_activity=0.4, ipc_parity=0.6,
                      stall_fraction=0.45, bw_bound=True,
                      dram_bytes_per_cycle=2.0)))


def test_memory_bound_powersave_eet_trims(monkeypatch):
    """EPB powersave trims memory-bound phases; a replayed poll that
    moves a trim ends its span after that poll."""
    replays = []
    replay = Pcu.span_eet_replay

    def spy(pcu, totals):
        first = replay(pcu, totals)
        replays.append((first, len(totals)))
        return first

    monkeypatch.setattr(Pcu, "span_eet_replay", spy)

    def drive(sim, node):
        node.run_workload(list(range(4)), memory_read(node.spec.cpu))
        node.run_workload([12, 13], _stall_flip())
        node.set_pstate(list(range(4)) + [12, 13], ghz(2.5))
        sim.run_for(ms(400))

    node = _twins(drive, epb=Epb.POWERSAVE)
    assert all(pcu.eet.trim_hz > 0 for pcu in node.pcus)
    assert any(first < n for first, n in replays), \
        "no replayed poll moved a trim"
    assert any(first > 0 for first, _ in replays)
    assert node.span_ends["trim"] > 0


def test_fault_episodes_land_mid_span():
    plan = FaultPlan(seed=0, horizon_ns=seconds(1), events=(
        FaultEvent(ms(53), FaultKind.PCU_JITTER, _pairs(
            socket=0, duration_ns=ms(41), extra_jitter_ns=150_000)),
        FaultEvent(ms(137), FaultKind.THERMAL_THROTTLE, _pairs(
            socket=1, duration_ns=ms(29))),
        FaultEvent(ms(211), FaultKind.PCU_JITTER, _pairs(
            socket=1, duration_ns=ms(17), extra_jitter_ns=40_000)),
    ))
    logs = []

    def drive(sim, node):
        injector = FaultInjector(sim, node, plan).arm()
        node.run_workload(list(range(8)) + [12, 13], compute())
        node.set_pstate(list(range(8)) + [12, 13], ghz(2.2))
        sim.run_for(ms(300))
        logs.append(injector.log)

    _twins(drive)
    assert logs[0] == logs[1]
    assert len(logs[0]) == 3


@pytest.mark.parametrize("drive_name", ["compute", "firestarter"])
def test_odd_run_for_chunks(drive_name):
    """Spans stop at every run_until horizon, whatever its phase."""
    chunks = [us(1), us(37), ms(3) + 7, us(499), ms(17) + 3, 1, us(1001),
              ms(41) + 11, us(250), ms(9) + 999, us(3), ms(63) + 1]

    def drive(sim, node):
        ids = list(range(12)) if drive_name == "firestarter" else [0, 1]
        node.run_workload(ids, firestarter() if drive_name == "firestarter"
                          else compute())
        for chunk in chunks * 2:
            sim.run_for(chunk)

    node = _twins(drive)
    assert node.span_ends["horizon"] > 0


@pytest.mark.parametrize("drive_name", ["compute", "firestarter"])
def test_ticks_polls_and_refresh_share_timestamps(monkeypatch, drive_name):
    """Jitter-free ticks re-armed onto the 1 ms grid of the EET polls and
    the RAPL refresh: both ticks, both polls and the refresh fire at the
    same instant every millisecond, and the merge must order them as
    the queue would (queued seq first, then the re-arm of the earlier
    firing)."""
    settles = []
    settle = Node._span_settle

    def spy(*args):
        settles.append(1)
        return settle(*args)

    monkeypatch.setattr(Node, "_span_settle", staticmethod(spy))

    def drive(sim, node):
        ids = list(range(12)) if drive_name == "firestarter" else [0, 1, 12]
        node.run_workload(ids, firestarter() if drive_name == "firestarter"
                          else compute())
        # Socket 1's tick queued first: at every tie it fires first.
        for pcu in reversed(node.pcus):
            pcu.extra_tick_jitter_ns = -TICK_JITTER_NS
            sim.queue.rearm(pcu.tick_event, ms(3), pcu._tick)
        for chunk in (ms(61), us(250), ms(97) + 500, ms(140)):
            sim.run_for(chunk)

    node = _twins(drive)
    assert node.span_events > 200
    assert settles, "no merge needed settling"


def test_conformance_recorder_sees_every_rapl_update():
    def drive(sim, node):
        node.run_workload([0, 1, 2], compute())
        sim.run_for(ms(120))

    node = _twins(drive, trace=ConformanceRecorder)
    updates = [r for r in node.sim.trace.records if r.kind == "rapl-update"]
    # One per socket per millisecond, absorbed or not.
    assert len(updates) == 2 * 120


class _Tally:
    """An integrator registered after the node: records every segment."""

    def __init__(self) -> None:
        self.segments: list[tuple[int, int]] = []

    def integrate(self, t0_ns: int, t1_ns: int) -> None:
        self.segments.append((t0_ns, t1_ns))


def test_extra_integrator_sees_every_segment():
    tallies = []

    def drive(sim, node):
        tally = _Tally()
        sim.add_integrator(tally)
        node.run_workload([0, 1, 2, 3], compute())
        sim.run_for(ms(80))
        tallies.append(tally.segments)

    _twins(drive)
    fast, slow = tallies
    assert fast == slow
    assert fast[-1][1] == ms(80)


def test_sanitizer_cadence_matches_span_free_run():
    """Absorbed segments count toward the epoch-check stride, so the
    sanitizer checks as often as it would without spans."""
    def run():
        sim = Simulator(seed=99)
        node = build_node(sim, HASWELL_TEST_NODE)
        node.run_workload(list(range(4)), compute())
        sim.run_for(ms(200))
        return node, [(s._sanitize_segments, s.sanitize_checks)
                      for s in node.sockets]

    with_spans, counts = run()
    original = Node.run_span
    Node.run_span = lambda self, now_ns: None
    try:
        without, reference = run()
    finally:
        Node.run_span = original
    assert with_spans.span_events > 0 and without.span_events == 0
    assert counts == reference
    assert all(checks > 0 for _, checks in counts)


@pytest.mark.parametrize("spec", [HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE,
                                  WESTMERE_TEST_NODE])
def test_commit_reduce_matches_accumulate(spec):
    """The commit sums a span's increments with ``np.add.reduce`` along
    the rows; for the node's real column count and every row count a
    span can have, that is the sequential sum ``np.add.accumulate``
    forms (numpy sums pairwise only along a narrow reduced axis)."""
    node = build_node(Simulator(seed=3), spec)
    rng = np.random.default_rng(1905)
    rows = SPAN_MAX_EVENTS + 1
    inc = np.empty((rows, node._acc.size + 1))
    inc[...] = (rng.standard_normal(inc.shape)
                * 10.0 ** rng.integers(-12, 12, inc.shape))
    running = np.add.accumulate(inc, axis=0)
    for k in range(1, rows + 1):
        assert np.array_equal(np.add.reduce(inc[:k], axis=0), running[k - 1])


def test_stacked_eet_reduce_matches_live_reduce():
    """The replay reduces a stack of block states in one call; each
    state's sums equal the live reduce of that state bit for bit."""
    _, node = build_haswell_node(seed=5)
    rng = np.random.default_rng(20150406)
    block = node._cnt_block
    shape = (40,) + block.shape
    states = (rng.standard_normal(shape)
              * 10.0 ** rng.integers(-30, 30, shape))
    for pcu in node.pcus:
        stacked = pcu.span_eet_totals(states[:, _EET_ROWS])
        for k, state in enumerate(states):
            block[...] = state
            assert (stacked[k].tolist()
                    == pcu.socket.counter_totals(_EET_ROWS))

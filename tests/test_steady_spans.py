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
    """TDP-bound turbo: grants dither, and a span carries each grant that
    leaves the apply window through its landing."""
    def drive(sim, node):
        ids = [c.core_id for c in node.all_cores]
        node.run_workload(ids, firestarter())
        node.set_pstate(ids, None)
        sim.run_for(ms(400))

    node = _twins(drive, trace=lambda: TraceRecorder(kinds={"freq-apply"}))
    applies = node.sim.trace.records
    assert sum(1 for r in applies if r.time_ns > ms(100)) >= 3
    assert node.spans >= 3
    assert node.span_applies >= 3


def _firestarter_turbo(sim: Simulator, node: Node) -> list[int]:
    """FIRESTARTER on every core at turbo: TDP-bound, grant-only PCUs."""
    ids = [c.core_id for c in node.all_cores]
    node.run_workload(ids, firestarter())
    node.set_pstate(ids, None)
    return ids


def test_carried_applies_trace_with_rapl_updates():
    """A span that carries applies emits each landing's ``freq-apply``
    records and each refresh's ``rapl-update`` records in event order."""
    def drive(sim, node):
        _firestarter_turbo(sim, node)
        sim.run_for(ms(250))

    node = _twins(drive, trace=lambda: TraceRecorder(
        kinds={"freq-apply", "rapl-update"}))
    kinds = [r.kind for r in node.sim.trace.records]
    assert node.span_applies >= 3
    # Landings between refreshes: the two kinds interleave.
    switches = sum(1 for a, b in zip(kinds, kinds[1:]) if a != b)
    assert switches >= node.span_applies


def _at_horizon(sim: Simulator, node: Node) -> tuple:
    """What a caller sees between two ``run_until`` calls: the timers'
    times and sequence numbers, pending applies, and whether each
    socket's rates and breakdown are those of its current clocks."""
    timers = [pcu.tick_event for pcu in node.pcus] + [
        pcu.eet_timer.event for pcu in node.pcus] + [node.rapl_timer.event]
    return (sim.queue.next_seq, [(e.time_ns, e.seq) for e in timers],
            [dict(pcu._pending_apply) for pcu in node.pcus],
            [(s.breakdown_current(), s.last_breakdown)
             for s in node.sockets])


def test_horizons_around_applies():
    """``run_until`` horizons after an apply's tick and before its
    landing, at the landing, and at the next millisecond's poll and
    refresh: a span holds an apply's tick only with its landing and a
    firing after it, so at each horizon the caller sees what the queue
    leaves (a pending apply, rates refreshed on the next segment only,
    and the tick re-armed after the landing's sequence number)."""
    log = TraceRecorder(kinds={"freq-apply"})
    pilot = Simulator(seed=4242, trace=log)
    pilot_node = build_node(pilot, HASWELL_TEST_NODE)
    _firestarter_turbo(pilot, pilot_node)
    pilot.run_for(ms(200))
    switch_ns = HASWELL_TEST_NODE.cpu.pstate_switch_time_ns
    lands = sorted({r.time_ns for r in log.records if r.time_ns > ms(20)})
    # Each kind of horizon at its own landings: an earlier horizon at
    # the same apply would leave it to the queue.
    horizons = sorted([t - switch_ns // 2 for t in lands[0::6]]
                      + lands[2::6]
                      + [-(-t // ms(1)) * ms(1) for t in lands[4::6]])
    seen = []

    def drive(sim, node):
        _firestarter_turbo(sim, node)
        views = []
        for t in horizons:
            sim.run_until(t)
            views.append(_at_horizon(sim, node))
        seen.append(views)
        sim.run_until(ms(200))

    node = _twins(drive)
    fast, slow = seen
    assert fast == slow
    assert sum(1 for view in fast if any(view[2])) >= 3, \
        "no horizon fell between an apply and its landing"
    assert node.span_applies >= 3
    assert node.span_ends["horizon"] > 0


def test_tied_coupling_applies_end_spans():
    """Sandy Bridge ties the uncore to the core clocks: a landing is a
    decision input, so a span never carries an apply."""
    def drive(sim, node):
        _firestarter_turbo(sim, node)
        sim.run_for(ms(300))

    node = _twins(drive, spec=SANDY_BRIDGE_TEST_NODE)
    assert node.span_applies == 0
    assert node.span_ends["window"] > 0


def test_mixed_window_applies_end_spans(monkeypatch):
    """Active cores on two clocks (two moved outside the PCU, within the
    apply threshold of the next grant): a tick that leaves the window
    applies to some cores only, so its span ends at the tick."""
    mixed = []
    carries = Pcu._carries_apply

    def spy(pcu):
        ok = carries(pcu)
        if pcu._steady_lo_hz != pcu._steady_hi_hz:
            mixed.append(ok)
        return ok

    monkeypatch.setattr(Pcu, "_carries_apply", spy)

    def drive(sim, node):
        _firestarter_turbo(sim, node)
        sim.run_for(ms(50))
        for cid in (3, 15):
            core = node.core(cid)
            node._apply_immediately(core, core.freq_hz + 4e6)
        sim.run_for(ms(100))

    node = _twins(drive)
    assert mixed and not any(mixed)
    assert node.span_ends["window"] > 0
    assert node.span_applies > 0


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


def test_moved_trim_between_apply_and_landing(monkeypatch):
    """Jitter-free ticks half a microsecond before the 1 ms poll grid:
    an apply's landing comes just after the polls, so a poll that moves
    a trim can fall between an apply's tick and its landing. The span
    then ends before the tick, not after the poll."""
    cuts = []
    replay = Node._span_replay

    def spy(node, plan, mid):
        n_commit, polls = replay(node, plan, mid)
        if n_commit < plan.n and plan.applies:
            cuts.append(n_commit > Node._span_cut(
                n_commit, np.array([a.exit for a in plan.applies]),
                np.array([a.land for a in plan.applies])))
        return n_commit, polls

    monkeypatch.setattr(Node, "_span_replay", spy)

    def drive(sim, node):
        node.run_workload(list(range(12)), firestarter())
        node.set_pstate(list(range(12)), None)
        node.run_workload([12, 13, 14, 15], _stall_flip())
        node.set_pstate([12, 13, 14, 15], ghz(2.5))
        for pcu in reversed(node.pcus):
            pcu.extra_tick_jitter_ns = -TICK_JITTER_NS
            sim.queue.rearm(pcu.tick_event, ms(3) - 500, pcu._tick)
        sim.run_for(ms(400))

    node = _twins(drive, epb=Epb.POWERSAVE)
    assert any(cuts), "no moved trim fell between an apply and its landing"
    assert node.span_applies > 0 and node.span_ends["trim"] > 0


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


@pytest.mark.parametrize("drive_name", ["compute", "firestarter",
                                        "firestarter-landings"])
def test_ticks_polls_and_refresh_share_timestamps(monkeypatch, drive_name):
    """Jitter-free ticks re-armed onto the 1 ms grid of the EET polls and
    the RAPL refresh: both ticks, both polls and the refresh fire at the
    same instant every millisecond, and the merge must order them as
    the queue would (queued seq first, then the re-arm of the earlier
    firing). With the ticks one switch time before the grid, a landing
    on the millisecond ties with both polls and the refresh, and its
    span ends at its tick."""
    settles = []
    settle = Node._span_settle

    def spy(*args):
        settles.append(1)
        return settle(*args)

    monkeypatch.setattr(Node, "_span_settle", staticmethod(spy))

    busy = drive_name != "compute"
    landings = drive_name == "firestarter-landings"
    first_ns = ms(3) - (node_switch_ns() if landings else 0)

    def drive(sim, node):
        ids = list(range(24 if landings else 12)) if busy else [0, 1, 12]
        node.run_workload(ids, firestarter() if busy else compute())
        # Socket 1's tick queued first: at every tie it fires first.
        for pcu in reversed(node.pcus):
            pcu.extra_tick_jitter_ns = -TICK_JITTER_NS
            sim.queue.rearm(pcu.tick_event, first_ns, pcu._tick)
        for chunk in (ms(61), us(250), ms(97) + 500, ms(140)):
            sim.run_for(chunk)

    node = _twins(drive, trace=lambda: TraceRecorder(
        kinds={"freq-apply", "rapl-update"}))
    assert node.span_events > 200
    if landings:
        # A landing on the millisecond grid ties and ends its span at its
        # tick; one between (at the half millisecond) is carried.
        assert any(r.kind == "freq-apply" and r.time_ns % ms(1) == 0
                   for r in node.sim.trace.records)
        assert node.span_ends["window"] > 0
        assert node.span_applies > 0
    else:
        assert settles, "no merge needed settling"


def node_switch_ns() -> int:
    return HASWELL_TEST_NODE.cpu.pstate_switch_time_ns


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


def test_sanitizer_cadence_with_landings():
    """Each landing's next segment refreshes its socket's rates, which
    is no epoch-check hit: spans that carry applies count hits and run
    checks exactly as a span-free run."""
    def run():
        sim = Simulator(seed=99)
        node = build_node(sim, HASWELL_TEST_NODE)
        _firestarter_turbo(sim, node)
        sim.run_for(ms(300))
        return node, [(s._sanitize_segments, s.sanitize_checks)
                      for s in node.sockets]

    with_spans, counts = run()
    original = Node.run_span
    Node.run_span = lambda self, now_ns: None
    try:
        without, reference = run()
    finally:
        Node.run_span = original
    assert with_spans.span_applies > 0 and without.span_events == 0
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

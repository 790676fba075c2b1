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
from repro.instruments.lmg450 import Lmg450
from repro.pcu.epb import Epb
from repro.pcu.pcu import _EET_ROWS, TICK_JITTER_NS, Pcu
from repro.specs.node import (HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE,
                              WESTMERE_TEST_NODE, NodeSpec)
from repro.system.cohorts import SpanCohorts
from repro.system.node import (SPAN_MAX_EVENTS, Node, build_haswell_node,
                               build_node)
from repro.units import ghz, ms, seconds, us
from repro.workloads.firestarter import firestarter
from repro.workloads.base import Workload, WorkloadPhase
from repro.pcu.turbo import TdpLimiter
from repro.workloads.micro import compute, memory_read, sinus, tick_heavy


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
    """Jitter-free ticks half a microsecond (socket 1's 0.6 µs, so the
    ticks never tie) before the 1 ms poll grid: an apply's landing comes
    just after the polls, so a poll that moves a trim can fall between
    an apply's tick and its landing. The span then ends before the tick,
    not after the poll."""
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
            sim.queue.rearm(pcu.tick_event,
                            ms(3) - 500 - 100 * pcu.socket.socket_id,
                            pcu._tick)
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
def test_ticks_polls_and_refresh_share_timestamps(drive_name):
    """Both EET polls and the RAPL refresh fire at the same instant every
    millisecond, and the tie rank orders them as the queue would (queued
    seq first, then the re-arm of the earlier firing). Ticks re-armed
    onto that grid with one nanosecond of jitter tie with them, and with
    each other, at scattered instants; the merge keys cannot order a
    tie with a tick, so a span ends before that instant (``tie``) and
    its firings fire from the queue. With jitter-free ticks one switch
    time before the grid (socket 0's a quarter millisecond later, so no
    two ticks tie), a landing on the millisecond ties with both polls
    and the refresh, and its span ends before its tick (``tie``); one at
    the half millisecond is carried."""
    busy = drive_name != "compute"
    landings = drive_name == "firestarter-landings"

    def drive(sim, node):
        ids = list(range(24 if landings else 12)) if busy else [0, 1, 12]
        node.run_workload(ids, firestarter() if busy else compute())
        # Socket 1's tick queued first: at every tie it fires first.
        for pcu in reversed(node.pcus):
            if landings:
                pcu.extra_tick_jitter_ns = -TICK_JITTER_NS
                first_ns = ms(3) - node_switch_ns() + us(250) * (
                    1 - pcu.socket.socket_id)
            else:
                pcu.extra_tick_jitter_ns = 1 - TICK_JITTER_NS
                first_ns = ms(3)
            sim.queue.rearm(pcu.tick_event, first_ns, pcu._tick)
        for chunk in (ms(61), us(250), ms(97) + 500, ms(140)):
            sim.run_for(chunk)

    node = _twins(drive, trace=lambda: TraceRecorder(
        kinds={"freq-apply", "rapl-update"}))
    assert node.span_events > 200
    assert node.span_ends["tie"] > 0
    if landings:
        assert any(r.kind == "freq-apply" and r.time_ns % ms(1) == 0
                   for r in node.sim.trace.records)
        assert node.span_applies > 0


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


# ---- instrument samples and collapsed landings ----------------------------


def _spans_off_twins(monkeypatch, drive, *, trace=None, seed: int = 4242,
                     spec: NodeSpec = HASWELL_TEST_NODE, spans: bool = True,
                     epb: Epb = Epb.BALANCED):
    """Runs ``drive(sim, node)`` with spans on and with ``Node.run_span``
    patched to a no-op (every event fires from the queue); asserts equal
    states, ledgers and equal ``drive`` results, and returns the node
    and result of the run with spans. With ``spans`` false the run may
    absorb no event."""
    runs = []
    for on in (True, False):
        with monkeypatch.context() as patch:
            if not on:
                patch.setattr(Node, "run_span", lambda self, now_ns: None)
            sim = Simulator(seed=seed, trace=trace() if trace else None)
            node = build_node(sim, spec, epb=epb)
            seen = drive(sim, node)
            runs.append((_state(sim, node), seen, node))
    (fast, fast_seen, node), (slow, slow_seen, off) = runs
    assert fast["ledger"], "no RNG draws recorded"
    mismatched = [k for k in fast if fast[k] != slow[k]]
    assert not mismatched, f"steady spans diverged on {mismatched}"
    assert fast_seen == slow_seen
    assert off.span_events == 0
    if spans:
        assert node.span_events > 0, "no span absorbed an event"
    return node, fast_seen


def _metered(meter: Lmg450) -> tuple:
    event = meter._task.event if meter._task is not None else None
    return (list(meter.times_ns), list(meter.watts),
            None if event is None else (event.time_ns, event.seq))


def _queue_samples(monkeypatch) -> list:
    """Counts the meter samples fired from the queue."""
    fired = []
    sample = Lmg450._sample

    def spy(meter, now_ns):
        fired.append(now_ns)
        sample(meter, now_ns)

    monkeypatch.setattr(Lmg450, "_sample", spy)
    return fired


def test_meter_samples_inside_spans(monkeypatch):
    """An LMG450 on a TDP-bound node: spans absorb its samples (each
    reads the AC energy accumulated up to it) and carry applies; the
    samples, the meter's timer and the node equal a span-free run's."""
    fired = _queue_samples(monkeypatch)

    def drive(sim, node):
        _firestarter_turbo(sim, node)
        sim.run_for(ms(20))
        meter = Lmg450(sim, node)
        meter.start()
        sim.run_for(ms(600))
        return _metered(meter)

    node, (times, watts, _) = _spans_off_twins(monkeypatch, drive)
    # ``fired`` holds both runs' queued samples, all of the span-free
    # run's among them.
    absorbed = 2 * len(times) - len(fired)
    assert len(times) == 12 and absorbed >= 8, (len(times), len(fired))
    assert node.span_applies >= 3
    assert "lmg450-sample" not in node.span_heads
    assert not node.span_ends["head"]


def test_meter_stop_and_start_mid_run(monkeypatch):
    """Stopping the meter unregisters its samples, starting it again
    registers them anew: spans before, between and after match."""
    def drive(sim, node):
        node.run_workload(list(range(6)), compute())
        node.set_pstate(list(range(6)), ghz(2.0))
        meter = Lmg450(sim, node)
        meter.start()
        sim.run_for(ms(230) + 17)
        meter.stop()
        stopped = _metered(meter)
        sim.run_for(ms(120))
        meter.start()
        sim.run_for(ms(310) + 3)
        return stopped, _metered(meter), len(node._span_readers)

    node, (stopped, metered, readers) = _spans_off_twins(monkeypatch, drive)
    assert readers == 1 and len(stopped[0]) == 4
    assert len(metered[0]) == 4 + 6
    assert node.span_events > 1000


def test_meter_hook_keeps_samples_events(monkeypatch):
    """While a fault hook is registered on ``lmg450-sample``, a span ends
    at the meter's head and the sample fires (and may be dropped) from
    the queue; once the hook is removed, spans absorb samples again."""
    heads = []

    def drive(sim, node):
        node.run_workload(list(range(4)), compute())
        meter = Lmg450(sim, node)
        meter.start()
        sim.run_for(ms(160))
        heads.append(node.span_heads["lmg450-sample"])

        def drop_odd(time_ns, watts):
            return {"action": "drop"} if time_ns // ms(50) % 2 else None

        sim.add_fault_hook("lmg450-sample", drop_odd)
        sim.run_for(ms(400))
        heads.append(node.span_heads["lmg450-sample"])
        sim.remove_fault_hook("lmg450-sample", drop_odd)
        sim.run_for(ms(400))
        heads.append(node.span_heads["lmg450-sample"])
        return _metered(meter)

    node, metered = _spans_off_twins(monkeypatch, drive)
    # The hook dropped every odd sample while it was registered.
    assert len(metered[0]) == 3 + 4 + 8
    before, hooked, after = heads[:3]
    assert before == 0 and hooked >= 6 and after == hooked
    assert node.span_ends["head"] >= hooked


def _grid_meter(sim: Simulator, node: Node, *, ticks: bool) -> tuple:
    """A meter started on the millisecond: every sample ties with both
    EET polls and the RAPL refresh (and, with ticks re-armed onto the
    grid with one nanosecond of jitter, at some instants with a
    tick)."""
    _firestarter_turbo(sim, node)
    if ticks:
        for pcu in reversed(node.pcus):
            pcu.extra_tick_jitter_ns = 1 - TICK_JITTER_NS
            sim.queue.rearm(pcu.tick_event, ms(3), pcu._tick)
    sim.run_for(ms(7))
    meter = Lmg450(sim, node)
    meter.start()
    for chunk in (ms(180) + 250, ms(97), ms(301)):
        sim.run_for(chunk)
    return _metered(meter)


@pytest.mark.parametrize("ticks", [False, True])
def test_meter_samples_tied_with_refresh(monkeypatch, ticks):
    """Samples on the millisecond grid tie with the polls and the
    refresh. The tie rank orders a re-armed sample first (its parent
    fired 50 ms earlier, the others' 1 ms earlier), so spans absorb the
    tied samples; an instant where a tick ties too ends its span
    (``tie``)."""
    tied = []     # per plan, its samples tied with another firing
    plan_of = Node._span_plan

    def spy(node, now_ns):
        plan = plan_of(node, now_ns)
        if plan is not None:
            times = plan.times
            reads = [plan.rank[i] for i in node._span_reads]
            tied.append(int(np.count_nonzero(
                np.isin(plan.ranks, reads) & (np.bincount(times)[times] > 1))))
        return plan

    monkeypatch.setattr(Node, "_span_plan", spy)
    node, metered = _spans_off_twins(
        monkeypatch, lambda sim, node: _grid_meter(sim, node, ticks=ticks))
    assert len(metered[0]) == 11
    assert all(t % ms(1) == 0 for t in metered[0])
    assert sum(tied) >= 3, "no tied sample in a span"
    assert node.span_ends["tie"] > 0 if ticks else not node.span_ends["tie"]
    assert node.span_applies > 0


def test_late_reader_tied_with_a_rearmed_sample(monkeypatch):
    """A span reader of its own (every millisecond, first firing 100 ms
    after it starts) whose queued first firing ties with a re-armed
    meter sample: the queued firing sorts first, although the tie rank
    puts the longer period first, so a span ends before that instant.
    The reader's records and both timers' sequence numbers match."""
    def drive(sim, node):
        node.run_workload(list(range(4)), compute())
        sim.run_for(ms(4))
        meter = Lmg450(sim, node)
        meter.start()
        log = []
        task = sim.schedule_every(
            ms(1), lambda t: log.append((t, node.ac_energy_j)),
            label="tap", phase_ns=ms(100))
        node.add_span_reader(task, lambda times, energies: log.extend(
            zip(times, energies)))
        # Just after the tie: the meter's timer still carries the
        # sequence number its tied firing re-armed it with.
        sim.run_until(ms(104) + us(500))
        tied = (_metered(meter), list(log))
        sim.run_for(ms(300))
        return tied, _metered(meter), len(log), (task.event.time_ns,
                                                task.event.seq)

    node, (tied, metered, n_log, _) = _spans_off_twins(monkeypatch, drive)
    assert tied[1][0][0] == ms(104) == metered[0][1]
    assert n_log == 301
    assert node.span_events > 1000
    assert node.span_ends["tie"] > 0


def test_meter_draws_ledgered_in_event_order(monkeypatch):
    """Under the ledger the meter's noise draws and the ticks' jitter
    and dither draws interleave in event order, as in a span-free run
    (the twins compare ledgers); the meter's site is in the ledger."""
    def drive(sim, node):
        _firestarter_turbo(sim, node)
        meter = Lmg450(sim, node)
        meter.start()
        sim.run_for(ms(520))
        return _metered(meter), [entry[0] for entry in sim.ledger.entries]

    node, (metered, sites) = _spans_off_twins(monkeypatch, drive)
    meter_sites = [i for i, site in enumerate(sites) if "lmg450" in site]
    assert len(metered[0]) == 10 and len(meter_sites) >= 10
    # Each sample's draw sits between tick draws.
    assert meter_sites[0] > 0 and meter_sites[-1] < len(sites) - 1
    assert node.span_applies >= 3


def test_collapsed_landings(monkeypatch):
    """A span lands only each socket's last carried grant; with
    ``freq-apply`` recorded every landing lands and records in event
    order, interleaved with ``rapl-update``, as in a span-free run."""
    landed = []
    span_land = Pcu.span_land

    def spy(pcu, now_ns, grant_hz):
        landed.append(now_ns)
        span_land(pcu, now_ns, grant_hz)

    monkeypatch.setattr(Pcu, "span_land", spy)

    def drive(sim, node):
        _firestarter_turbo(sim, node)
        meter = Lmg450(sim, node)
        meter.start()
        sim.run_for(ms(400))
        return _metered(meter)

    quiet, _ = _spans_off_twins(monkeypatch, drive)
    assert quiet.span_applies >= 10
    assert len(landed) <= 2 * quiet.spans < quiet.span_applies
    landed.clear()
    traced, _ = _spans_off_twins(monkeypatch, drive, trace=lambda: (
        TraceRecorder(kinds={"freq-apply", "rapl-update"})))
    assert len(landed) == traced.span_applies == quiet.span_applies
    kinds = [r.kind for r in traced.sim.trace.records]
    # Each landing moves the socket's 12 cores.
    assert kinds.count("freq-apply") >= 12 * traced.span_applies


# ---- carried phase cohorts ------------------------------------------------


def _cohort_state(node: Node) -> tuple:
    """What a span's carried cohorts leave besides ``_state``: the cores'
    phases, the pending cohorts and their events, the node epoch (the
    sockets' own counts differ by the socket-local bumps of collapsed
    landings), the sockets' rates and sanitizer counts, the MBVR state,
    and each PCU's cached derivation, plan and MBVR load."""
    cohorts = {t: (event.time_ns, event.seq, event.cancelled,
                   [c.core_id for c in cores])
               for t, (event, cores) in node._phase_cohorts.items()}
    pcus = [(pcu._ctrl_key, pcu._ctrl_targets, pcu._ctrl_decide_targets,
             pcu._ctrl_activity, pcu._ctrl_ufs, pcu.last_decision,
             pcu._steady_plan, pcu._steady_load_w) for pcu in node.pcus]
    return ([(c.phase_index, c.current_phase, c.avx_license)
             for c in node.all_cores], cohorts, dict(node._phase_member),
            node.epoch.value,
            [(s.package_cstate, s.breakdown_current(), s.last_breakdown,
              s._sanitize_segments, s.sanitize_checks)
             for s in node.sockets], node.mbvr.power_state, pcus)


def _sinus_run(cores, calls: list, **sinus_args):
    """Sinus phases under 5 ms on ``cores`` (None: every core) with the
    AC meter sampling, as Fig. 2 runs them; ends the run's entries of
    ``calls`` (:func:`_solve_log`) with None."""
    def drive(sim, node):
        ids = cores if cores is not None else [c.core_id
                                              for c in node.all_cores]
        meter = Lmg450(sim, node)
        meter.start()
        node.run_workload(ids, sinus(period_ns=ms(100), **sinus_args))
        # Horizons between spans that carried cohorts: the pending
        # cohort's event, time and sequence number as the queue has them.
        # The first two fall on a cohort (3.125 ms phases).
        seen = []
        for until in (us(228125), us(340625), ms(450) + 3):
            sim.run_until(until)
            seen.append(_cohort_state(node))
        calls.append(None)
        return _metered(meter), seen
    return drive


def _solve_log(monkeypatch) -> list:
    """Every ``TdpLimiter._solve`` call's arguments, in call order."""
    calls = []
    solve = TdpLimiter._solve

    def spy(limiter, *args):
        calls.append(args)
        return solve(limiter, *args)

    monkeypatch.setattr(TdpLimiter, "_solve", spy)
    return calls


def _split_solves(calls: list) -> tuple:
    """``_solve_log`` of twins run one after the other, each run's calls
    ended by None: the two runs' calls."""
    first = calls.index(None)
    assert calls[-1] is None and len(calls) > 2
    return calls[:first], calls[first + 1:-1]


@pytest.mark.parametrize("spec", [HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE],
                         ids=["haswell", "sandybridge"])
@pytest.mark.parametrize("share", ["core", "half", "socket", "node"])
def test_sinus_cohorts_carried(monkeypatch, spec, share):
    """Fig. 2's sinus, its 32 phases 3.1 ms each: spans carry the
    lockstep cohorts and the derivation ticks after them, and the node,
    the meter's samples, the pending cohort and every PCU's cache equal
    a span-free run's, ledgers included."""
    n = spec.cpu.n_cores
    cores = {"core": [0], "half": list(range(n // 2)),
             "socket": list(range(n)), "node": None}[share]
    calls = _solve_log(monkeypatch)
    node, ((times, watts, _), _) = _spans_off_twins(
        monkeypatch, _sinus_run(cores, calls), spec=spec)
    assert node.span_cohorts > 0
    assert len(times) == 9 and len(watts) == 9
    with_spans, without = _split_solves(calls)
    assert with_spans == without


def test_sinus_at_peak_activity(monkeypatch):
    """Peak activity 1.0 on every core: near the peak a derivation after
    a cohort is TDP-bound or undershoots near the budget, so a span ends
    before that cohort (it fires from the queue); the rest are carried,
    and the limiter's solves are the events' in order."""
    calls = _solve_log(monkeypatch)
    node, _ = _spans_off_twins(monkeypatch,
                               _sinus_run(None, calls, peak_activity=1.0))
    assert node.span_cohorts > 0
    assert node.span_ends["cohort"] + node.span_heads["phase-cohort"] > 0
    with_spans, without = _split_solves(calls)
    assert with_spans == without


@pytest.mark.parametrize("memo_max", [5, 9])
def test_memo_cleared_inside_a_span(monkeypatch, memo_max):
    """A solve a span makes for a cohort's derivation can clear the
    limiter's memo (here shrunk to a few points): the later cohorts'
    checks looked up points the events no longer find, so the span ends
    at the next cohort and the events solve them again. The node, the
    pending cohort, every PCU's cache and the limiter's solves equal a
    span-free run's."""
    monkeypatch.setattr(TdpLimiter, "_SOLVE_MEMO_MAX", memo_max)
    cleared = []
    solve = SpanCohorts.solve

    def spy(cohorts, n):
        before = [pcu.limiter.memo_clears for pcu in cohorts.node.pcus]
        solved = solve(cohorts, n)
        if before != [pcu.limiter.memo_clears for pcu in cohorts.node.pcus]:
            cleared.append((int(cohorts.at.searchsorted(n)), solved < n))
        return solved

    monkeypatch.setattr(SpanCohorts, "solve", spy)
    calls = _solve_log(monkeypatch)
    node, _ = _spans_off_twins(monkeypatch, _sinus_run(None, calls))
    assert node.span_cohorts > 0
    assert any(carried > 1 and cut for carried, cut in cleared), \
        "no solve inside a span cleared the memo before a later cohort"
    with_spans, without = _split_solves(calls)
    assert with_spans == without


def _avx_flip() -> Workload:
    return Workload(name="avx-flip", cyclic=True, phases=(
        WorkloadPhase(name="scalar", duration_ns=us(3700),
                      power_activity=0.5, ipc_parity=1.8,
                      stall_fraction=0.04),
        WorkloadPhase(name="avx", duration_ns=us(4100), power_activity=0.7,
                      avx_fraction=0.9, ipc_parity=1.3,
                      stall_fraction=0.06)))


@pytest.mark.parametrize("case", ["avx-flip", "tick-heavy", "two-phases"])
def test_cohorts_never_carried(monkeypatch, case):
    """Cohorts a span must not carry: one that moves an AVX license, one
    into tick-heavy's C1 nap, and two sinus instances out of lockstep on
    one socket (two pending cohorts)."""
    def drive(sim, node):
        if case == "avx-flip":
            node.run_workload(list(range(6)), _avx_flip())
        elif case == "tick-heavy":
            node.run_workload([0, 1], tick_heavy())
            node.run_workload([12, 13], compute())
        else:
            node.run_workload(list(range(4)), sinus(period_ns=ms(100)))
            sim.run_for(us(1300))
            node.run_workload(list(range(4, 8)), sinus(period_ns=ms(100)))
        sim.run_for(ms(300))
        return _cohort_state(node)

    node, _ = _spans_off_twins(monkeypatch, drive, spans=False)
    assert node.span_cohorts == 0


def test_workload_moves_between_run_for_calls(monkeypatch):
    """``stop_workload`` and ``run_workload`` between two ``run_for``
    calls whose spans left a carried chain's cohort pending: the queued
    cohort is cancelled or joined as the events leave it."""
    pending = []

    def drive(sim, node):
        node.run_workload(list(range(12)), sinus(period_ns=ms(100)))
        sim.run_for(ms(250) + 7)
        pending.append((node.span_cohorts, len(node._phase_cohorts)))
        node.stop_workload([3, 4])
        node.run_workload([5], compute())
        sim.run_for(ms(40))
        node.stop_workload(list(range(12)))
        node.run_workload(list(range(6)), sinus(period_ns=ms(100)))
        sim.run_for(ms(250) + 11)
        return _cohort_state(node)

    node, _ = _spans_off_twins(monkeypatch, drive)
    carried, queued = pending[0]
    assert carried > 0 and queued == 1
    assert node.span_cohorts > carried


def _stally_sinus() -> Workload:
    """A lockstep cycle whose stall fraction moves with its phase, off
    the 1 ms poll grid, so under EPB powersave the EET polls move the
    trim at some phase switches."""
    phases = tuple(
        WorkloadPhase(name=f"stally[{i}]", duration_ns=us(3300),
                      power_activity=0.3 + 0.02 * i, ipc_parity=1.0,
                      stall_fraction=0.05 if i % 8 < 4 else 0.6,
                      dram_bytes_per_cycle=0.5 if i % 8 < 4 else 3.0,
                      bw_bound=True)
        for i in range(16))
    return Workload(name="stally-sinus", phases=phases, cyclic=True)


def test_moved_trim_between_cohort_and_derivation(monkeypatch):
    """Under EPB powersave an EET poll that moves a trim can come between
    a carried cohort and its derivation tick: the span ends after the
    poll, the cohort is committed and the derivation fires from the
    queue (with the new trim). The limiter's solves stay the events'."""
    cuts = []
    replay = Node._span_replay

    def spy(node, plan, mid):
        n_commit, polls = replay(node, plan, mid)
        cohorts = plan.cohorts
        if cohorts is not None and n_commit < plan.n:
            for j, c in enumerate(cohorts.at.tolist()):
                derive = [t[int(b[j])] if b[j] < len(t) else plan.n
                          for t, b in cohorts.ticks]
                if c < n_commit - 1 and any(d >= n_commit for d in derive):
                    cuts.append(j)
        return n_commit, polls

    monkeypatch.setattr(Node, "_span_replay", spy)
    calls = _solve_log(monkeypatch)

    def drive(sim, node):
        node.run_workload(list(range(12)), _stally_sinus())
        node.set_pstate(list(range(12)), ghz(2.5))
        sim.run_for(ms(600))
        calls.append(None)
        return _cohort_state(node), [pcu.eet.trim_hz for pcu in node.pcus]

    node, _ = _spans_off_twins(monkeypatch, drive)
    with_spans, without = _split_solves(calls)
    assert with_spans == without
    assert node.span_cohorts > 0
    assert cuts, "no trim moved between a cohort and its derivation tick"


def test_horizons_after_cohorts(monkeypatch):
    """``run_until`` horizons half a tick to a tick after cohorts a span
    carried, so some fall between a cohort and a PCU's derivation tick,
    or between that tick and the one that classifies its plan: the
    caller sees the PCUs' caches, plans and the MBVR as the events
    leave them."""
    phase_ns = us(3125)
    horizons = [phase_ns * k + offset for k in range(40, 120, 3)
                for offset in (us(150), us(550), us(800))]

    def drive(sim, node):
        node.run_workload(list(range(12)), sinus(period_ns=ms(100)))
        seen = []
        for t in sorted(horizons):
            sim.run_until(t)
            seen.append(_cohort_state(node))
        return seen

    node, seen = _spans_off_twins(monkeypatch, drive)
    assert node.span_cohorts > 0
    # Some horizon left a derivation tick's plan unclassified.
    assert any(pcu[6] is None for state in seen for pcu in state[-1])


def _short_long() -> Workload:
    """Lockstep phases of 1.3 and 0.7 ms: in a short phase a PCU ticks
    once or twice before the next cohort."""
    return Workload(name="short-long", cyclic=True, phases=(
        WorkloadPhase(name="long", duration_ns=us(1300), power_activity=0.3,
                      ipc_parity=1.6, stall_fraction=0.05),
        WorkloadPhase(name="short", duration_ns=us(700), power_activity=0.45,
                      ipc_parity=1.6, stall_fraction=0.05)))


def _horizon_states(sim, node, horizons) -> list:
    seen = []
    for t in horizons:
        sim.run_until(t)
        seen.append(_cohort_state(node))
    return seen


def test_cohorts_closer_than_two_ticks(monkeypatch):
    """A span carries a cohort only if each PCU ticks twice (derivation
    and classification) after the cohort before it: after a 0.7 ms
    phase with one tick the cohort goes to the queue. The cohorts start
    a quarter millisecond off the poll grid (a cohort tied with a poll
    would end its span). Horizons every 6.85 ms compare what the PCUs
    cached in between."""
    def drive(sim, node):
        sim.run_for(us(250))
        node.run_workload(list(range(8)), _short_long())
        return _horizon_states(sim, node, range(us(6850), ms(600),
                                                us(6850)))

    node, _ = _spans_off_twins(monkeypatch, drive)
    assert node.span_cohorts > 0


def test_cohorts_tied_with_ticks(monkeypatch):
    """Jitter-free ticks on the grid of 3 ms phases: every cohort ties
    with a tick, so none is carried (the tick after a cohort at its
    instant would derive on the breakdown before it). Horizons at the
    cohorts compare the MBVR state the ticks leave."""
    phases = tuple(WorkloadPhase(name=f"step[{i}]", duration_ns=ms(3),
                                 power_activity=0.2 + 0.05 * i,
                                 ipc_parity=1.6, stall_fraction=0.05)
                   for i in range(6))

    def drive(sim, node):
        for pcu in reversed(node.pcus):
            pcu.extra_tick_jitter_ns = -TICK_JITTER_NS
            sim.queue.rearm(pcu.tick_event, ms(1) + us(250), pcu._tick)
        sim.run_for(ms(1) + us(250))
        node.run_workload(list(range(24)),
                          Workload(name="steps", phases=phases))
        return _horizon_states(sim, node, range(
            ms(1) + us(250) + ms(3) * 31, ms(300), ms(3) * 7))

    node, _ = _spans_off_twins(monkeypatch, drive, spans=False)
    assert node.span_cohorts == 0


def test_cohort_tied_with_a_poll(monkeypatch):
    """Every eighth of the sinus's 3.125 ms cohorts falls on the 1 ms
    grid of the EET polls and the RAPL refresh: the merge keys cannot
    order a tie with a cohort, so the span ends before that instant
    (``tie``) and the cohort and the polls fire from the queue; the
    cohorts off the grid are carried."""
    cohort_ties = []
    plan_of = Node._span_plan

    def spy(node, now_ns):
        plan = plan_of(node, now_ns)
        if plan is not None and plan.reason == "tie":
            bits = node._span_bits
            times = plan.merged >> bits
            tied = plan.merged[times == times[plan.n]] & (1 << bits) - 1
            cohort_ties.append(plan.rank[node._span_cohort] in tied)
        return plan

    monkeypatch.setattr(Node, "_span_plan", spy)

    def drive(sim, node):
        node.run_workload(list(range(12)), sinus(period_ns=ms(100)))
        sim.run_for(ms(300))
        return _cohort_state(node)

    node, _ = _spans_off_twins(monkeypatch, drive)
    assert node.span_cohorts > 0
    assert any(cohort_ties), "no span ended at a cohort tied with a poll"


def test_clock_moved_outside_the_pcu(monkeypatch):
    """An idle core's clock moved outside the PCU (a pre-Haswell style
    write) between two ``run_for`` calls: the cohort checks kept for the
    earlier state do not hold, and the derivation ticks after the next
    cohorts apply the idle core's grant from the queue."""
    def drive(sim, node):
        node.run_workload(list(range(6)), sinus(period_ns=ms(100)))
        sim.run_for(ms(230))
        core = node.core(20)
        node._apply_immediately(core, core.freq_hz + 2e8)
        sim.run_for(ms(120))
        return _cohort_state(node)

    node, _ = _spans_off_twins(monkeypatch, drive)
    assert node.span_cohorts > 0


def test_summary_reports_spans():
    sim, node = build_haswell_node(seed=9)
    node.run_workload(list(range(12)), sinus(period_ns=ms(100)))
    sim.run_for(ms(300))
    line = [text for text in node.summary().splitlines()
            if text.startswith("  spans:")]
    assert line == [
        f"  spans: {node.spans} run, {node.span_events} events absorbed, "
        f"{node.span_applies} applies and {node.span_cohorts} cohorts "
        "carried; ends " + ", ".join(
            f"{end} {count}" for end, count in
            node.span_ends.most_common(3))]
    assert node.span_cohorts > 0

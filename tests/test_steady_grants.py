"""Landed grants and the PCU's steady plan (docs/performance.md).

A grant the PCU applies changes its socket's rates but, outside tied
uncore coupling, none of the inputs its derivation reads: the landing
bumps the socket epoch only, so neither PCU re-derives, and the landing
PCU re-classifies its steady plan against the new clocks. Under tied
coupling (Sandy Bridge) and for applies made outside the PCU (the
pre-Haswell immediate ``set_pstate`` path) the node epoch moves and the
PCUs re-derive.

Each case runs a fast-path twin and a ``set_fastpath(False)`` twin (a
derivation on every tick, the oracle) under ``REPRO_SANITIZE=1`` and
compares their state and RNG draw ledgers. The bit-parity unit tests
pin the two cheaper primitives steady ticks and EET polls use.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cstates.states import PackageCState
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import sanitize
from repro.engine.rng import DRAW_BATCH_BLOCK, DrawBatch, make_rng
from repro.errors import SimulationError
from repro.engine.simulator import Simulator
from repro.pcu.pcu import _EET_ROWS, Pcu
from repro.specs.node import (HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE,
                              WESTMERE_TEST_NODE, NodeSpec)
from repro.system.node import Node, build_haswell_node, build_node
from repro.units import ms
from repro.workloads.firestarter import firestarter


@pytest.fixture
def tick_log(monkeypatch) -> list:
    """Records every PCU tick as ``("tick", socket, derived)`` and every
    landed apply batch that moved a clock as ``("land", socket)``.

    A tick is logged at its one jitter draw (``Pcu._tick_jitters``),
    which ticks run as events and ticks a steady span absorbs both
    take: an event tick one draw, a span a socket's ticks in one call
    (one tick per call when the draws are ledgered), so each socket's
    ticks are logged in tick order. Only an event tick can derive. A
    batch is logged where it lands (``Pcu.land``), from the queue or in
    a span that carried its apply. A span logs its landings before its
    ticks, so the log is in event order only where no span carries an
    apply: landing-then-next-tick checks (:func:`_next_ticks`) run with
    spans off.
    """
    log: list = []
    tick_jitters, derive, land = (Pcu._tick_jitters, Pcu._derive,
                                  Pcu.land)

    def spy_tick_jitters(pcu, times_ns):
        for _ in range(1 if type(times_ns) is int else len(times_ns)):
            log.append(("tick", pcu.socket.socket_id,
                        getattr(pcu, "_spy_derived", False)))
            pcu._spy_derived = False
        return tick_jitters(pcu, times_ns)

    def spy_derive(pcu, key):
        pcu._spy_derived = True
        derive(pcu, key)

    def spy_land(pcu, now_ns, grants):
        before = [c.freq_hz for c in pcu.socket.cores]
        land(pcu, now_ns, grants)
        if before != [c.freq_hz for c in pcu.socket.cores]:
            log.append(("land", pcu.socket.socket_id))

    monkeypatch.setattr(Pcu, "_tick_jitters", spy_tick_jitters)
    monkeypatch.setattr(Pcu, "_derive", spy_derive)
    monkeypatch.setattr(Pcu, "land", spy_land)
    return log


def _state(sim: Simulator, node: Node) -> dict:
    out = {"now": sim.now_ns, "ac": node.ac_energy_j,
           "mbvr": node.mbvr.power_state}
    for s in node.sockets:
        for c in s.cores:
            out[f"core{c.core_id}"] = (
                c.counters.snapshot(), dict(c.counters.cstate_residency_ns),
                c.freq_hz, c.requested_hz, c.cstate, c.avx_license)
        out[f"s{s.socket_id}"] = (
            s.uncore.freq_hz,
            {d.name: s.rapl.true_energy_j(d) for d in s.rapl.domains},
            {p.name: s.package_residency_ns(p) for p in PackageCState})
    out["ledger"] = [tuple(entry) for entry in sim.ledger.entries]
    return out


def _twins(spec: NodeSpec, drive, log: list) -> list:
    """Runs ``drive`` on a fast-path and a fast-path-off node built from
    ``spec``, asserts both end in the same state with the same draw
    ledger, and returns the fast run's tick log."""
    states = []
    fast_log: list = []
    for fastpath in (True, False):
        log.clear()
        sim = Simulator(seed=4242)
        node = build_node(sim, spec)
        node.set_fastpath(fastpath)
        drive(sim, node)
        states.append(_state(sim, node))
        if fastpath:
            fast_log = list(log)
    fast, slow = states
    assert fast["ledger"], "no RNG draws recorded"
    mismatched = [k for k in fast if fast[k] != slow[k]]
    assert not mismatched, f"fast path diverged on {mismatched}"
    return fast_log


def _settled_window(spec: NodeSpec, log: list, then=None,
                    settle_ms: int = 40, run_ms: int = 80) -> list:
    """FIRESTARTER on every core at turbo (TDP-bound) on fast and slow
    twins; ``then(node, core_ids)`` runs after the settle. Returns the
    fast twin's tick log from the settle on."""
    settled: list = []

    def drive(sim: Simulator, node: Node) -> None:
        ids = [c.core_id for c in node.all_cores]
        node.run_workload(ids, firestarter())
        node.set_pstate(ids, None)
        sim.run_for(ms(settle_ms))
        settled.append(len(log))
        if then is not None:
            then(node, ids)
        sim.run_for(ms(run_ms))
    return _twins(spec, drive, log)[settled[0]:]


def _next_ticks(log: list, n_sockets: int) -> list[bool]:
    """For every landing, whether each socket's next tick derived."""
    derived = []
    for i, entry in enumerate(log):
        if entry[0] != "land":
            continue
        for sid in range(n_sockets):
            nxt = next((e for e in log[i + 1:]
                        if e[0] == "tick" and e[1] == sid), None)
            if nxt is not None:
                derived.append(nxt[2])
    return derived


class TestLandedGrants:
    def test_landed_batches_rederive_on_neither_pcu(self, monkeypatch,
                                                    tick_log):
        """Haswell (UFS): once settled, landed grant batches leave both
        PCUs on steady ticks. No span runs, so every landing and every
        tick fires from the queue and each landing's next tick is an
        event tick that could derive."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setattr(Node, "run_span", lambda self, now_ns: None)
        window = _settled_window(HASWELL_TEST_NODE, tick_log)
        landings = [e for e in window if e[0] == "land"]
        assert len(landings) >= 3, "too few landed batches to judge"
        derived = _next_ticks(window, 2)
        assert derived and not any(derived), derived
        assert not any(e[2] for e in window if e[0] == "tick")

    def test_carried_landings_rederive_on_neither_pcu(self, monkeypatch,
                                                      tick_log):
        """Haswell (UFS) with spans: the landings a span carries leave
        every PCU's control key at its cached derivation's, so the next
        tick would not derive even where it ran from the queue (span
        ticks never derive, and a span lands only a socket's last
        carried grant, so the key is checked at each span commit that
        carried landings)."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        steady_after: list = []
        commit = Node._span_commit

        def spy_commit(node, *args):
            before = node.span_applies
            commit(node, *args)
            if node.span_applies > before:
                steady_after.append((node.span_applies - before, all(
                    p._control_key() == p._ctrl_key for p in node.pcus)))

        monkeypatch.setattr(Node, "_span_commit", spy_commit)
        _settled_window(HASWELL_TEST_NODE, tick_log)
        assert sum(n for n, _ in steady_after) >= 3, \
            "too few carried landings to judge"
        assert all(ok for _, ok in steady_after), steady_after

    def test_tied_coupling_landing_rederives(self, monkeypatch, tick_log):
        """Sandy Bridge ties the uncore to the core clocks, so a landed
        grant is a decision input: both PCUs re-derive after it."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        window = _settled_window(SANDY_BRIDGE_TEST_NODE, tick_log)
        assert any(e[0] == "land" for e in window), "no landed batches"
        derived = _next_ticks(window, 2)
        assert derived and all(derived), derived

    def test_legacy_immediate_apply_rederives(self, monkeypatch, tick_log):
        """Westmere carries requests out immediately. Re-requesting turbo
        changes no request but applies the nominal clock outside the
        PCU, so the PCU must re-derive to grant turbo again."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        def rerequest(node, ids):
            node.set_pstate(ids, None)

        window = _settled_window(WESTMERE_TEST_NODE, tick_log,
                                 then=rerequest, run_ms=20)
        ticks = [e for e in window if e[0] == "tick"]
        assert sum(e[2] for e in ticks) >= 2, "no re-derivation"
        assert not any(e[2] for e in ticks[-10:]), "never settled again"


class TestBitParity:
    def test_eet_window_reduce_matches_counter_total(self):
        """The EET window's one reduce over the aperf and stall rows
        sums each row exactly like ``counter_total``."""
        _, node = build_haswell_node(seed=5)
        rng = np.random.default_rng(20150406)
        block = node._cnt_block
        for _ in range(200):
            block[...] = (rng.standard_normal(block.shape)
                          * 10.0 ** rng.integers(-30, 30, block.shape))
            for s in node.sockets:
                cycles, stall = s.counter_totals(_EET_ROWS)
                assert cycles == s.counter_total("aperf")
                assert stall == s.counter_total("stall_cycles")

    @pytest.mark.parametrize("method,args,scalar", [
        ("integers", (-10_000, 10_001), int),
        ("normal", (0.0, 5e6), float),
    ])
    @pytest.mark.parametrize("block", [1, 7, DRAW_BATCH_BLOCK])
    def test_draw_batch_list_matches_direct_draws(self, method, args,
                                                  scalar, block):
        """Across several refills the list buffer hands out the values
        sequential generator calls produce, as Python scalars."""
        batch = DrawBatch(make_rng(77), method, block=block)
        direct = make_rng(77)
        n = 3 * block + 5
        taken = [batch.take(*args) for _ in range(n)]
        assert taken == [getattr(direct, method)(*args) for _ in range(n)]
        assert all(type(v) is scalar for v in taken)

    @settings(max_examples=60, deadline=None)
    @given(method=st.sampled_from(["integers", "normal"]),
           block=st.integers(1, 40),
           ks=st.lists(st.integers(0, 45), min_size=1, max_size=6))
    def test_take_n_is_k_takes(self, method, block, ks):
        """``take_n(k)`` hands out the values, advances the cursor and
        records the ledger entries of ``k`` takes from its caller's
        site, and refuses to run past the prefilled block."""
        args = (-10_000, 10_001) if method == "integers" else (0.0, 5e6)
        ledgers = [sanitize.DrawLedger(), sanitize.DrawLedger()]
        takes, batched = (
            DrawBatch(sanitize.wrap_rng(make_rng(7), ledger), method,
                      block=block) for ledger in ledgers)
        takes.take(*args), batched.take(*args)
        for k in ks:
            cursor = batched.block(*args)[1]
            if k > block - cursor:
                with pytest.raises(SimulationError):
                    batched.take_n(k, *args)
                assert batched.block(*args)[1] == cursor
                continue
            a = args
            # One line, so both record the same site.
            got, want = batched.take_n(k, *a).tolist(), [takes.take(*a) for _ in range(k)]
            assert got == want
            assert batched.block(*args)[1] == takes.block(*args)[1]
        assert ledgers[0].entries == ledgers[1].entries

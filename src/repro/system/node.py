"""The full compute node: sockets, PCUs, MBVR, PSU, workload control.

This is the top-level object experiments drive. It is the simulator's
one integrator: it owns the accumulator vector every float accumulator
of every socket lives in (the core counter block at its head, each
socket's uncore, energy and RAPL entries in its tail) and the matching
rate vector, advances all of them with one multiply-add per segment,
and defers core c-state residency into one pending integer. It also
owns the workload-phase event machinery and implements the
software-visible control interfaces (cpufreq-like p-state requests,
EPB, workload placement).

Steady spans (:meth:`Node.run_span`): while nothing but the periodic
events — both PCUs' ticks, their EET polls and the RAPL refresh, the
samples of the instruments registered as span readers
(:meth:`Node.add_span_reader`), the landings of the grants a TDP-bound
tick applies, and a lockstep workload's phase cohorts whose next ticks
re-grant the running clocks — would fire, and each of those would
change nothing but draws, the MBVR state, the EET window, the visible
RAPL energy, a reader's samples, the clocks a landing moves and the
phase a cohort moves to, the node plans them in (time, seq) order,
integrates all their segments with one sequential accumulate and
commits them, each step as array operations bit-identical to one event
and one segment at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, pairwise

import numpy as np

from repro.engine.epoch import EpochCell
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.pcu.epb import Epb
from repro.pcu.pcu import Pcu
from repro.power.mbvr import Mbvr, SvidCommand
from repro.power.psu import PsuModel
from repro.power.rapl import RaplDomain
from repro.specs.node import NodeSpec, HASWELL_TEST_NODE
from repro.system import buildhooks
from repro.system.cohorts import SpanCohorts
from repro.system.core import Core
from repro.system.counters import CORE_COUNTER_FIELDS, FIELD_ROW
from repro.system.socket import Socket
from repro.topology.routing import LinkDerate
from repro.units import NS_PER_S
from repro.workloads.base import Workload

#: The periodic events a steady span runs.
_TICK, _POLL, _REFRESH, _READ = "tick", "poll", "refresh", "read"

#: Shortest span worth its fixed cost: a span's plan, integrate, replay
#: and commit are about a hundred array operations whatever its length,
#: about what this many periodic events cost fired one by one (a 6 ms
#: fleet node's one span of ~32 events cost more than its events).
#: Shorter runs fire as events.
SPAN_MIN_EVENTS = 34
#: Most events one span absorbs: bounds its buffers to
#: ``SPAN_MAX_EVENTS`` rows of the node block plus the scalars.
SPAN_MAX_EVENTS = 1024

#: Why a span plan stopped (the keys of :attr:`Node.span_ends`): the
#: queue head, the ``run_until`` horizon, a tick whose dithered grant
#: leaves its window and whose apply the span cannot carry, the end of
#: a PCU's draw block, ``SPAN_MAX_EVENTS``, a plan too short to run (it
#: fires as events), an absorbed EET poll that moved a trim, a phase
#: cohort after a carried one that the span cannot carry, and an instant
#: whose tied firings the merge may have ordered wrongly
#: (:meth:`Node._span_ties_unsure`).
SPAN_ENDS = ("head", "horizon", "window", "draws", "max", "short", "trim",
             "cohort", "tie")
_HEAD, _HORIZON, _WINDOW, _DRAWS, _MAX, _SHORT, _TRIM, _COHORT, _TIE = \
    SPAN_ENDS
#: The label of a phase-advance cohort's event.
_COHORT_LABEL = "phase-cohort"
#: Merge keys stay below this (see Node._span_plan).
_SPAN_KEY_MAX = 1 << 62
#: The keys of a timer with no candidate firing.
_NO_KEYS = np.empty(0, dtype=np.int64)


class _SpanTimer:
    """One periodic event of a steady span: its kind, the index of its
    PCU (ticks and polls), its re-armed :class:`Event`, its fixed
    period (polls, refreshes and readers), its ``rearm(time_ns, seq)``
    and a reader's ``on_samples`` (:meth:`Node.add_span_reader`)."""

    __slots__ = ("kind", "pcu", "event", "period_ns", "rearm", "read")

    def __init__(self, kind, pcu, event, period_ns, rearm,
                 read=None) -> None:
        self.kind = kind
        self.pcu = pcu
        self.event = event
        self.period_ns = period_ns
        self.rearm = rearm
        self.read = read


class _SpanApply:
    """A grant apply a span carries: the PCU's index, its tick's index
    among the PCU's span ticks and the grant; the places of the tick
    and of the landing in the merge; the landed point's segment rates
    (:meth:`Socket.landed_rates`)."""

    __slots__ = ("pcu", "tick", "grant", "exit", "land", "rates")

    def __init__(self, pcu, tick, grant, exit, land, rates) -> None:
        self.pcu = pcu
        self.tick = tick
        self.grant = grant
        self.exit = exit
        self.land = land
        self.rates = rates


class _SpanPlan:
    """A planned span (:meth:`Node._span_plan`).

    ``keys`` holds every candidate firing's merge key, timer after
    timer (timer ``i`` from ``offsets[i]``; each PCU's landings after
    the timers), and ``merged`` the same keys sorted: (time, seq) order
    up to the plan's end, where a candidate's place is found by its
    key. Per planned event ``k``: ``ranks[k]`` (its timer's tie rank,
    ``rank[i]`` for timer ``i``), ``times[k]`` (ns after the span's
    start) and ``seg_of[k]``, the number of non-empty segments up to
    it, whose lengths are ``seg_ns``. Per PCU, ``ticks[p]`` holds the
    merge keys of its ticks (one past the last that can run), the tick
    jitters they came from, the applies :meth:`Pcu.span_ticks` found and
    the socket's landed lane (:meth:`Socket.landed_lane`). ``applies``
    lists the planned applies in landing order, ``cohorts`` the phase
    cohorts the plan carries (None: none), and ``rows`` the places where
    a landing or a cohort starts a new rate row, each with its
    ``(socket, rates)`` pairs. ``reason`` is why the plan stopped, and
    ``head`` the queue head's event when it stopped there.
    """

    __slots__ = ("n", "reason", "keys", "merged", "offsets",
                 "rank", "by_rank", "ranks", "times", "seg_of", "seg_ns",
                 "ticks", "applies", "cohorts", "rows", "head")

    def __init__(self, n, reason, keys, merged, offsets, rank,
                 by_rank, ranks, times, seg_of, seg_ns, ticks,
                 applies, cohorts, rows, head) -> None:
        self.n = n
        self.reason = reason
        self.keys = keys
        self.merged = merged
        self.offsets = offsets
        self.rank = rank
        self.by_rank = by_rank
        self.ranks = ranks
        self.times = times
        self.seg_of = seg_of
        self.seg_ns = seg_ns
        self.ticks = ticks
        self.applies = applies
        self.cohorts = cohorts
        self.rows = rows
        self.head = head


@dataclass
class Node:
    sim: Simulator
    spec: NodeSpec
    sockets: list[Socket]
    pcus: list[Pcu]
    mbvr: Mbvr
    psu: PsuModel
    ac_energy_j: float = 0.0
    # Phase-advance cohorts: fire time -> (event, cores advancing then).
    # Lockstep fleets put every core's boundary at the same instant, so
    # one heap event advances the whole cohort instead of one event per
    # core — per-core order inside a cohort is insertion order, which is
    # exactly the scheduling order per-core events would have fired in.
    _phase_cohorts: dict[int, tuple[object, list[Core]]] = field(
        default_factory=dict)
    _phase_member: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Node-wide epoch: any socket's mutation bumps it, so the PCU
        # decision caches invalidate without scanning every core.
        self.epoch = EpochCell()
        for socket in self.sockets:
            socket.epoch.parent = self.epoch
        # Cross-socket (QPI) link health; NUMA-link faults degrade it and
        # placement studies consult it via NumaBandwidthModel.
        self.link_derate = LinkDerate()
        # O(1) topology lookups: the phase-advance machinery resolves a
        # core id on every phase flip, which a linear scan over sockets
        # turns into a tick-heavy hot spot.
        self._cores_by_id: dict[int, Core] = {
            c.core_id: c for s in self.sockets for c in s.cores}
        # Node-wide active-core count, maintained incrementally by every
        # Core c-state transition (a shared one-element list so cores
        # can update it without a back-reference protocol). Replaces the
        # all-core scan in any_core_active.
        cores = list(self._cores_by_id.values())
        counter = [sum(1 for c in cores if c.is_active)]
        self._active_counter = counter
        for c in cores:
            object.__setattr__(c, "_active_counter", counter)
        # One accumulator vector and a same-shape rate vector. Their
        # head is the (n_fields, n_cores_total) core counter block, in
        # which each socket owns a column slice; their tail holds each
        # socket's scalar accumulators. Every socket keeps its rate
        # entries current, so a segment advances every float
        # accumulator on the node with one multiply and one add.
        shape = (len(CORE_COUNTER_FIELDS), len(cores))
        n_block = shape[0] * shape[1]
        n_acc = n_block + sum(s._scalars.size for s in self.sockets)
        self._acc = np.zeros(n_acc, dtype=np.float64)
        self._acc_rates = np.zeros(n_acc, dtype=np.float64)
        self._acc_scratch = np.empty(n_acc, dtype=np.float64)
        self._cnt_block = self._acc[:n_block].reshape(shape)
        self._rate_block = self._acc_rates[:n_block].reshape(shape)
        # Core c-state residency earned since the last sync, in ns. Every
        # socket's residency rows hold still until its rates are
        # replaced, so the per-segment integer adds are deferred into
        # this one count (integer adds are exact: bit-identical).
        self._res_pending_ns = 0
        first_col = 0
        first = n_block
        # Each RAPL bank's entries, for a steady span's latches, and
        # each socket's columns of the block and entries of the tail,
        # for its rate rows.
        self._rapl_entries = []
        self._socket_entries = []
        for socket in self.sockets:
            tail = slice(first, first + socket._scalars.size)
            socket.attach(self._cnt_block, self._rate_block, first_col,
                          self._acc[tail], self._acc_rates[tail],
                          self.sync_residency)
            self._rapl_entries.append(
                slice(tail.stop - len(socket.rapl.domains), tail.stop))
            self._socket_entries.append(
                (slice(first_col, first_col + len(socket.cores)), tail))
            first_col += len(socket.cores)
            first = tail.stop
        # Steady spans: the periodic timers (collected on the first
        # span, once every PCU and the RAPL refresh have started, and
        # again when a span reader comes, goes or gains or loses a fault
        # hook), the registered readers, how many spans ran, how many
        # events they absorbed, how many grant applies and phase cohorts
        # they carried, why each plan stopped (a count per SPAN_ENDS
        # reason) and, of the spans the queue head ended, the head
        # event's label.
        self.rapl_timer = None
        self._span_timers: list[_SpanTimer] | None = None
        self._span_readers: list[tuple] = []
        self._span_hooked: tuple[bool, ...] = ()
        self._span_short_until = 0
        self.spans = 0
        self.span_events = 0
        self.span_applies = 0
        self.span_cohorts = 0
        # The cohort checks per state they hold for (SpanCohorts):
        # {state: {phase: check}}.
        self._span_checks: dict[tuple, dict] = {}
        self.span_ends: Counter = Counter()
        self.span_heads: Counter = Counter()

    def set_fastpath(self, enabled: bool) -> None:
        """Toggle the steady-state fast path on every socket and PCU
        (A/B parity testing; both settings are bit-identical)."""
        for socket in self.sockets:
            socket.fastpath_enabled = enabled
        for pcu in self.pcus:
            pcu.fastpath_enabled = enabled

    # ---- topology accessors -----------------------------------------------------

    @property
    def all_cores(self) -> list[Core]:
        return [c for s in self.sockets for c in s.cores]

    def core(self, core_id: int) -> Core:
        try:
            return self._cores_by_id[core_id]
        except KeyError:
            raise ConfigurationError(f"no core {core_id}") from None

    def socket_of(self, core_id: int) -> Socket:
        return self.sockets[self.core(core_id).socket_id]

    def pcu_of(self, core_id: int) -> Pcu:
        return self.pcus[self.core(core_id).socket_id]

    # ---- system-wide views used by the PCUs -----------------------------------------

    def any_core_active(self) -> bool:
        return self._active_counter[0] > 0

    def system_fastest_setting(self) -> float | None | str:
        """P-state setting of the fastest active core anywhere.

        ``None`` = at least one active core requests turbo; a float = the
        highest explicit setting; ``"no-active-core"`` if all idle.
        """
        requests: list[float | None] = []
        for s in self.sockets:
            for c in s.active_cores():
                requests.append(c.requested_hz)
        if not requests:
            return "no-active-core"
        if any(r is None for r in requests):
            return None
        return max(requests)

    # ---- workload control -----------------------------------------------------------------

    def run_workload(self, core_ids: list[int], workload: Workload) -> None:
        """Place (a per-core instance of) ``workload`` on each core."""
        for core_id in core_ids:
            core = self.core(core_id)
            self._cancel_phase_event(core_id)
            core.bind_workload(workload)
            self.pcu_of(core_id).avx_unit.on_phase_change(core)
            self._schedule_phase_advance(core)

    def stop_workload(self, core_ids: list[int]) -> None:
        for core_id in core_ids:
            core = self.core(core_id)
            self._cancel_phase_event(core_id)
            core.bind_workload(None)
            self.pcu_of(core_id).avx_unit.on_phase_change(core)

    def _schedule_phase_advance(self, core: Core) -> None:
        phase = core.current_phase
        if phase is None or phase.duration_ns is None:
            return
        t = self.sim.now_ns + phase.duration_ns
        entry = self._phase_cohorts.get(t)
        if entry is None:
            event = self.sim.schedule_at(t, self._advance_cohort,
                                         label="phase-cohort")
            entry = (event, [])
            self._phase_cohorts[t] = entry
        entry[1].append(core)
        self._phase_member[core.core_id] = t

    def _advance_cohort(self, now_ns: int) -> None:
        entry = self._phase_cohorts.pop(now_ns, None)
        if entry is None:
            return
        member = self._phase_member
        units = [pcu.avx_unit for pcu in self.pcus]
        cohorts = self._phase_cohorts
        sim = self.sim
        # Lockstep fleets re-enter the same next cohort core after core;
        # remember the last (time -> entry) pair so the common case pays
        # one dict lookup per cohort, not one per core.
        last_t = -1
        last_cores = None
        # Cores defer their epoch bumps (advance_phase(bump=False));
        # each touched socket is bumped once after the loop. No segment
        # is integrated between two cores of one callback, so one bump
        # invalidates exactly what per-core bumps would have.
        touched: set[int] = set()
        add_touched = touched.add
        last_sid = -1
        for core in entry[1]:
            phase = core.advance_phase(False)
            sid = core.socket_id
            if sid != last_sid:
                add_touched(sid)
                last_sid = sid
            units[sid].on_phase_change(core, False)
            # _schedule_phase_advance, inlined for the hot loop. The
            # membership entry is overwritten (not popped first): no
            # cancel can run between the two points of this loop body.
            if phase is None or phase.duration_ns is None:
                member.pop(core.core_id, None)
                continue
            t = now_ns + phase.duration_ns
            if t != last_t:
                next_entry = cohorts.get(t)
                if next_entry is None:
                    event = sim.schedule_at(t, self._advance_cohort,
                                            label="phase-cohort")
                    next_entry = (event, [])
                    cohorts[t] = next_entry
                last_t = t
                last_cores = next_entry[1]
            last_cores.append(core)
            member[core.core_id] = t
        sockets = self.sockets
        for sid in touched:
            sockets[sid].epoch.bump()

    def _cancel_phase_event(self, core_id: int) -> None:
        t = self._phase_member.pop(core_id, None)
        if t is None:
            return
        entry = self._phase_cohorts.get(t)
        if entry is None:
            return
        event, cores = entry
        cores[:] = [c for c in cores if c.core_id != core_id]
        if not cores:
            # An empty cohort must not fire: a spurious event would
            # split an integration segment and perturb the float
            # accumulation order.
            event.cancel()
            del self._phase_cohorts[t]

    # ---- software control interfaces ---------------------------------------------------------

    def set_pstate(self, core_ids: list[int] | None,
                   f_hz: float | None) -> None:
        """cpufreq-like request: ``None`` = turbo/hardware-managed max.

        On pre-Haswell parts the request is carried out immediately
        (Section VI-A); on Haswell it waits for the next PCU grant
        opportunity.
        """
        targets = core_ids if core_ids is not None \
            else [c.core_id for c in self.all_cores]
        for core_id in targets:
            core = self.core(core_id)
            core.request_pstate(f_hz)
            if core.spec.pstate_granted_immediately:
                applied = f_hz if f_hz is not None else core.spec.nominal_hz
                self.sim.schedule_after(
                    core.spec.pstate_switch_time_ns,
                    lambda _t, c=core, f=applied:
                        self._apply_immediately(c, f),
                    label=f"legacy-pstate-core{core_id}")

    def _apply_immediately(self, core: Core, f_hz: float) -> None:
        """Carry out a pre-Haswell request. The PCU did not grant it, so
        its steady plan does not know the new clock: the node epoch
        moves, and the PCU re-derives on its next tick."""
        if f_hz != core.freq_hz:
            self.epoch.bump()
        core.apply_frequency(f_hz)

    def set_epb(self, epb: Epb, socket_ids: list[int] | None = None) -> None:
        for pcu in self.pcus:
            if socket_ids is None or pcu.socket.socket_id in socket_ids:
                pcu.epb = epb

    def set_turbo(self, enabled: bool) -> None:
        for pcu in self.pcus:
            pcu.turbo_enabled = enabled

    def set_uncore_limits(self, min_hz: float | None = None,
                          max_hz: float | None = None,
                          socket_ids: list[int] | None = None) -> None:
        """Narrow the uncore frequency window (MSR 0x620 semantics)."""
        for pcu in self.pcus:
            if socket_ids is None or pcu.socket.socket_id in socket_ids:
                pcu.set_uncore_limits(min_hz, max_hz)

    # ---- power views ----------------------------------------------------------------------------

    def dc_rapl_visible_w(self) -> float:
        total = 0.0
        for s in self.sockets:
            breakdown = s.evaluate_power()
            total += breakdown.package_w + breakdown.dram_w
        return total

    def ac_power_w(self) -> float:
        """Instantaneous wall power (what the LMG450 samples)."""
        return self.psu.ac_power_w(self.dc_rapl_visible_w())

    # ---- integration -----------------------------------------------------------------------------

    def integrate(self, t0_ns: int, t1_ns: int) -> None:
        """Advance every accumulator over ``[t0_ns, t1_ns)`` in one pass.

        Each socket refreshes its entries of the rate vector (syncing
        the pending residency first whenever it does) and counts its
        package residency; then one multiply-add over the accumulator
        vector advances every core counter, uncore counter, energy and
        RAPL accumulator, the segment joins the pending residency, and
        the AC meter integrates the sockets' DC sum.
        """
        dt_ns = t1_ns - t0_ns
        if dt_ns <= 0:
            return
        dt_s = dt_ns / NS_PER_S
        any_active = self._active_counter[0] > 0
        dc_w = 0.0
        for s in self.sockets:
            s.integrate(dt_ns, any_active)
            dc_w += s._rates.dc_w
        np.multiply(self._acc_rates, dt_s, out=self._acc_scratch)
        self._acc += self._acc_scratch
        self._res_pending_ns += dt_ns
        ac_w = self.psu.ac_power_w(dc_w)
        self.ac_energy_j += ac_w * dt_ns / NS_PER_S

    def sync_residency(self) -> None:
        """Fold the pending residency into every core's residency row.

        Each socket's current ``res_flat`` addresses the row every core
        has sat in since the last sync. Runs before any socket's rates
        are replaced and on every residency read.
        """
        pending = self._res_pending_ns
        if pending:
            self._res_pending_ns = 0
            for s in self.sockets:
                s._cnt_res_flat[s._rates.res_flat] += pending

    def _rapl_refresh(self, now_ns: int) -> None:
        record = self.sim.trace.wants("rapl-update")
        for s in self.sockets:
            s.rapl.refresh()
            if record:
                self._emit_rapl_update(now_ns, s)

    def _emit_rapl_update(self, now_ns: int, s: Socket) -> None:
        self.sim.trace.emit(
            now_ns, f"rapl{s.socket_id}", "rapl-update",
            socket=s.socket_id,
            package=s.rapl.read_counter(RaplDomain.PACKAGE),
            dram=s.rapl.read_counter(RaplDomain.DRAM))

    # ---- steady spans ------------------------------------------------------------------------

    def add_span_reader(self, task, on_samples,
                        fault_point: str | None = None) -> None:
        """Let steady spans absorb the firings of an instrument's
        periodic timer.

        ``task`` is a :class:`~repro.engine.simulator.RepeatingEvent`
        whose action only reads the node's accumulated AC energy at its
        firing time and takes its own draws; a span that absorbs
        firings hands them to ``on_samples(times_ns, ac_energies_j)``,
        two lists in event order (one firing per call when the draws
        are ledgered). While a fault hook is registered at
        ``fault_point`` the firings stay events, and a span ends at the
        timer's head.
        """
        self._span_readers.append((task, on_samples, fault_point))
        self._span_timers = None

    def remove_span_reader(self, task) -> None:
        """Fire ``task`` (:meth:`add_span_reader`) as events again."""
        self._span_readers = [reader for reader in self._span_readers
                              if reader[0] is not task]
        self._span_timers = None

    def _span_reader_hooks(self) -> tuple[bool, ...]:
        """Per span reader, whether a fault hook holds its firings."""
        has = self.sim.has_fault_hooks
        return tuple(point is not None and has(point)
                     for _, _, point in self._span_readers)

    def _collect_span_timers(self) -> list[_SpanTimer]:
        self._span_short_until = 0
        timers = []
        for index, pcu in enumerate(self.pcus):
            timers.append(_SpanTimer(_TICK, index, pcu.tick_event, 0,
                                     pcu.rearm_tick))
            poll = pcu.eet_timer
            if poll is not None:
                timers.append(_SpanTimer(_POLL, index, poll.event,
                                         poll.period_ns, poll.rearm))
        refresh = self.rapl_timer
        if refresh is not None:
            timers.append(_SpanTimer(_REFRESH, -1, refresh.event,
                                     refresh.period_ns, refresh.rearm))
        self._span_hooked = self._span_reader_hooks()
        for (task, on_samples, _), hooked in zip(self._span_readers,
                                                 self._span_hooked):
            if not hooked:
                timers.append(_SpanTimer(_READ, -1, task.event,
                                         task.period_ns, task.rearm,
                                         on_samples))
        self._span_timers = timers
        self._span_ticks = [i for i, timer in enumerate(timers)
                            if timer.kind is _TICK]
        self._span_periodic = [i for i, timer in enumerate(timers)
                               if timer.kind is not _TICK]
        self._span_reads = [i for i, timer in enumerate(timers)
                            if timer.kind is _READ]
        # Each PCU's landings merge as one more candidate list, and the
        # phase cohorts a span carries as one after them.
        self._span_lands = [len(timers) + p for p in range(len(self.pcus))]
        self._span_cohort = len(timers) + len(self.pcus)
        # A merge key's tie rank takes its low bits: the periodic
        # timers' ranks are set per plan, each PCU's tick has the rank
        # after them, then each PCU's landings, then the cohorts.
        self._span_bits = self._span_cohort.bit_length()
        # The accumulator entries a span reads before its end: the
        # aperf and stall-cycle rows of the counter block (its EET
        # polls), each RAPL bank's entries (its refreshes), then the AC
        # energy after the accumulator vector (its readers). A span
        # keeps the running sums of these alone (_span_integrate).
        n_cores = self._cnt_block.shape[1]
        eet = [FIELD_ROW["aperf"], FIELD_ROW["stall_cycles"]]
        self._span_mid = np.concatenate(
            [np.arange(row * n_cores, (row + 1) * n_cores) for row in eet]
            + [np.arange(e.start, e.stop) for e in self._rapl_entries]
            + [[self._acc.size]])
        self._span_mid_eet = (len(eet), n_cores)
        self._span_mid_rapl = []
        first = len(eet) * n_cores
        for entries in self._rapl_entries:
            size = entries.stop - entries.start
            self._span_mid_rapl.append(slice(first, first + size))
            first += size
        self._span_mid_ac = first
        return timers

    def run_span(self, now_ns: int) -> None:
        """Run the periodic events ahead of the queue as one span.

        Called by a PCU after a steady tick at ``now_ns``. When both
        PCUs are span-ready (:meth:`Pcu.span_ready`), the node runs its
        PCU ticks, EET polls, RAPL refresh and span readers directly, in
        (time, seq) order, in three phases and a commit, each a handful
        of array operations:

        1. *Plan* (:meth:`_span_plan`): each timer's firings as merge
           keys — tick times from the running sum of the tick delays
           over the jitter read-ahead, polls, refreshes and readers as
           arithmetic progressions, the landing of each grant apply a
           span can carry (:meth:`Pcu.span_ticks`), and the chain of
           phase cohorts a queue-head cohort starts
           (:meth:`SpanCohorts.at_head`) — merged by one sort, up to the
           first of the queue head, the ``run_until`` horizon, a tick
           whose dithered grant leaves its window and whose apply the
           span cannot carry, the end of a PCU's draw block,
           ``SPAN_MAX_EVENTS``, a cohort after whose derivation ticks a
           PCU would not re-grant the running clocks
           (:meth:`SpanCohorts.carry`) and the instant of the first tie
           whose order the merge keys may not have right
           (:meth:`_span_ties_unsure`). A span holds an apply's tick
           only with its landing and a firing after it
           (:meth:`_span_cut`), and a cohort only with a firing after
           it.
        2. *Integrate* (:meth:`_span_integrate`): each segment's
           ``rate * dt_s`` increments, with the same products as the
           per-segment adds, from the rate row of the point its
           landings and cohorts left; the entries read mid-span get
           their running sums.
        3. *Replay* (:meth:`_span_replay`) each PCU's EET polls on the
           accumulated states; the span ends after the first poll, in
           event order, that moves a trim. The solves a cohort's
           derivation ticks missed in the limiter's memo are made next,
           in event order (:meth:`SpanCohorts.solve`).

        The commit (:meth:`_span_commit`) sums the increments in order
        into the final state (the sequential sum of the per-segment
        adds), latches each socket's RAPL energy as of the last refresh
        (emitting every absorbed ``rapl-update`` when it is recorded),
        lands each socket's last carried apply (every one, in event
        order, when ``freq-apply`` is recorded), moves the carried
        cohorts' cores to their last phase and adopts each touched
        socket's last rates, commits the polls, takes each PCU's tick
        draws at once (:meth:`DrawBatch.take_n`), hands each reader its
        samples, leaves each PCU's decision and window as its applies
        did and its derivation and plan as its ticks after the cohorts
        did, makes the last tick's MBVR selection, re-arms the timers
        and re-queues the pending cohort under the sequence numbers the
        events would have taken, and advances any other integrator
        segment by segment. Another integrator must not read the
        node's accumulators, the clocks a landing moves or the phases a
        cohort moves: during a span it sees their end state.
        """
        if now_ns < self._span_short_until:
            # The last plan fell short of a horizon not yet reached: any
            # plan before it covers a subset of those firings.
            return
        for pcu in self.pcus:
            if not pcu.span_ready():
                return
        if not any(c is self for c in self.sim.integrators):
            return
        plan = self._span_plan(now_ns)
        if plan is None:
            return
        inc, mid = self._span_integrate(plan)
        n_commit, polls = self._span_replay(plan, mid)
        if n_commit < plan.n and plan.applies:
            n_commit = self._span_cut(
                n_commit, np.array([a.exit for a in plan.applies]),
                np.array([a.land for a in plan.applies]))
            if not n_commit:
                # The moving poll came between the first apply's tick
                # and its landing: the events fire from the queue.
                self.span_ends[_TRIM] += 1
                return
        end = _TRIM if n_commit < plan.n else plan.reason
        if plan.cohorts is not None:
            solved = plan.cohorts.solve(n_commit)
            if solved < n_commit:
                n_commit, end = solved, _COHORT
            if not n_commit:
                self.span_ends[end] += 1
                return
        self._span_commit(now_ns, plan, inc, mid, n_commit, polls, end)

    def _span_plan(self, now_ns: int) -> _SpanPlan | None:
        """Phase 1 of :meth:`run_span`: which timer fires when.

        Returns None for a span too short to pay for itself. Each
        timer's candidate firings up to the horizon (the limit, or the
        first tick that cannot run) are merge keys
        ``(time - now) << bits | rank``, and so is each carried apply's
        landing, ``pstate_switch_time_ns`` after its tick, and each
        phase cohort of the chain a queue-head cohort starts
        (:meth:`SpanCohorts.at_head`); one sort merges them, the tie rank
        ordering equal times (:meth:`_span_ties_unsure`), and the plan
        is the merge up to the limit, the first tick that cannot run, or
        ``SPAN_MAX_EVENTS``, short of any apply whose landing it does
        not hold (:meth:`_span_cut`) and of the first cohort it cannot
        carry (:meth:`SpanCohorts.carry`). It ends before the instant of
        the first tie the rank may have ordered wrongly: every firing
        there fires from the queue.
        """
        sim = self.sim
        timers = self._span_timers
        if timers is None or (self._span_readers and self._span_hooked
                              != self._span_reader_hooks()):
            timers = self._collect_span_timers()
        events = tuple(timer.event for timer in timers)
        for event in events:
            if event.cancelled:
                return None
        limit = (sim.until_ns + 1, -1)
        reason = _HORIZON
        head = sim.queue.head_entry(events)
        cohorts = None
        queued = events
        if (head is not None and head[0] < limit[0]
                and head[2].label == _COHORT_LABEL):
            cohorts = SpanCohorts.at_head(self, head[2])
            if cohorts is not None:
                queued = events + (head[2],)
                head = sim.queue.head_entry(queued)
        if head is not None and head < limit:
            limit, reason = head, _HEAD
        # At most this many firings come before the limit: too few, and
        # the plan is dropped before any array is built.
        most = 0
        for timer, event in zip(timers, events):
            if event.time_ns <= limit[0]:
                most += (limit[0] - event.time_ns) // (
                    timer.period_ns
                    or self.pcus[timer.pcu].tick_delay_min_ns) + 1
        if most < SPAN_MIN_EVENTS:
            return self._span_short(limit[0])
        # Tie ranks: the periodic timers by longer period, then by later
        # queued time, then by seq; then each PCU's tick; then each
        # PCU's landings; then the cohorts.
        bits = self._span_bits
        rank = [0] * (self._span_cohort + 1)
        by_rank = sorted(self._span_periodic, key=lambda i: (
            -timers[i].period_ns, -events[i].time_ns, events[i].seq)) \
            + self._span_ticks + self._span_lands + [self._span_cohort]
        for r, i in enumerate(by_rank):
            rank[i] = r
        horizon = min(limit[0], now_ns + (_SPAN_KEY_MAX >> bits))
        # Per PCU: the keys of its ticks, from the queued one to the
        # first that cannot run, and of its applies' landings.
        ticks = []
        for p, pcu in enumerate(self.pcus):
            jitters, sums, m, window, applies, lane = pcu.span_ticks()
            tick_rank = rank[self._span_ticks[p]]
            keys = (sums[:m + 1] << bits | tick_rank) + (
                pcu.tick_event.time_ns - now_ns << bits)
            lands = _NO_KEYS
            if applies:
                lands = keys[[j for j, _ in applies]] + (
                    (pcu.spec.pstate_switch_time_ns << bits)
                    + rank[self._span_lands[p]] - tick_rank)
            ticks.append((keys, jitters[:m], window, applies, lands, lane))
            stop = now_ns + (int(keys[m]) >> bits)
            if stop < horizon:
                horizon = stop
        end_key = horizon - now_ns + 1 << bits
        parts = []
        for i, timer in enumerate(timers):
            if timer.kind is _TICK:
                keys = ticks[timer.pcu][0]
                parts.append(keys[:keys.searchsorted(end_key)])
            else:
                t0 = events[i].time_ns
                c = min((horizon - t0) // timer.period_ns + 1,
                        SPAN_MAX_EVENTS + 1) if t0 <= horizon else 0
                first = t0 - now_ns << bits | rank[i]
                step = timer.period_ns << bits
                parts.append(np.arange(first, first + c * step, step)
                              if c else _NO_KEYS)
        for _, _, _, _, lands, _ in ticks:
            parts.append(lands[:lands.searchsorted(end_key)])
        parts.append(cohorts.keys(now_ns, horizon, SPAN_MAX_EVENTS + 1, bits,
                                  rank[self._span_cohort])
                     if cohorts is not None else _NO_KEYS)
        counts = [len(keys) for keys in parts]
        if sum(counts) < SPAN_MIN_EVENTS:
            return self._span_short(horizon)
        offsets = list(accumulate(counts, initial=0))
        keys = np.concatenate(parts)
        merged = np.sort(keys)
        exits, lands, carried = self._span_applies(ticks, counts, offsets)
        if len(exits):
            exit_at = merged.searchsorted(keys[exits])
            land_at = np.where(lands < 0, len(keys),
                               merged.searchsorted(keys[lands]))
        if cohorts is not None:
            places = [merged.searchsorted(keys[offsets[i]:offsets[i + 1]])
                      for i in self._span_ticks + [self._span_cohort]]
            rel = merged >> bits

        def hold(n: int, why: str) -> tuple[int, str]:
            # Short of any apply whose landing the span does not hold and
            # of the first cohort it cannot carry.
            if len(exits):
                cut = self._span_cut(n, exit_at, land_at)
                if cut < n:
                    n, why = cut, _WINDOW
            if cohorts is not None:
                cut = cohorts.carry(n, places[-1], places[:-1], rel)
                if cut < n:
                    n, why = cut, _COHORT
            return n, why

        # The head's seq precedes every re-arm's, so at its time only a
        # queued firing can precede it.
        n = int(merged.searchsorted(limit[0] - now_ns << bits))
        if limit[0] <= horizon:
            n += sum(1 for e in queued
                     if e.time_ns == limit[0] and e.seq < limit[1])
        why = reason
        for p, i in enumerate(self._span_ticks):
            tick_keys, jitters, window, _, _, _ = ticks[p]
            if counts[i] == len(tick_keys):
                stop = int(merged.searchsorted(
                    keys[offsets[i] + len(jitters)]))
                if stop < n:
                    n, why = stop, _WINDOW if window else _DRAWS
        if n >= SPAN_MAX_EVENTS:
            n, why = SPAN_MAX_EVENTS, _MAX
        n, why = hold(n, why)
        # Event times (ns after now) and the steps between them, for the
        # planned events and every firing at the time of the next one: a
        # tie there the merge may have ordered wrongly could move a
        # firing into or out of the plan.
        ahead = merged[:n + 1]
        if n < len(merged):
            ahead = merged[:merged.searchsorted(
                (int(merged[n]) >> bits) + 1 << bits)]
        ext = np.empty(len(ahead) + 1, dtype=np.int64)
        ext[0] = 0
        np.right_shift(ahead, bits, out=ext[1:])
        step = ext[1:] - ext[:-1]
        moved = step != 0
        ranks = ahead & (1 << bits) - 1
        if np.count_nonzero(moved[1:]) < len(ahead) - 1:
            # Each rank's first candidate key, its queued firing (-1:
            # none).
            firsts = np.array([keys[offsets[i]] if counts[i] else -1
                               for i in by_rank])
            tie = self._span_ties_unsure(moved[1:], ranks, by_rank,
                                         ahead == firsts[ranks])
            if tie >= 0:
                # Every firing at the tie's instant fires from the queue.
                cut = int(merged.searchsorted(int(ext[tie + 1]) << bits))
                if cut < n:
                    n, why = hold(cut, _TIE)[0], _TIE
        if n < SPAN_MIN_EVENTS:
            return self._span_short(
                now_ns + (int(merged[min(n, len(merged) - 1)]) >> bits))
        applies = []
        if len(exits):
            for (p, j, g), e, land in zip(carried, exit_at.tolist(),
                                          land_at.tolist()):
                if e < n:
                    rates = self.sockets[p].landed_rates(ticks[p][5], g)
                    applies.append(_SpanApply(p, j, g, e, land, rates))
            applies.sort(key=lambda a: a.land)
        rows = [(a.land, [(a.pcu, a.rates)]) for a in applies]
        if cohorts is not None:
            if len(cohorts.at):
                rows = cohorts.rows()
            else:
                cohorts = None
        moved = moved[:n]
        return _SpanPlan(n, why, keys, merged, offsets, rank, by_rank,
                         ranks[:n], ext[1:n + 1], moved.cumsum(),
                         step[:n][moved], ticks, applies, cohorts, rows,
                         limit[2] if why is _HEAD else None)

    def _span_applies(self, ticks: list, counts: list[int],
                      offsets: list[int]) -> tuple:
        """The applies whose ticks the candidate firings hold:
        ``(exits, lands, carried)``, the flat indices into the candidate
        keys of each apply's tick and of its landing, and per apply its
        PCU, tick index and grant. A landing past the horizon has the
        index -1: the span must end before its tick."""
        exits, lands, carried = [], [], []
        for p, (i, j) in enumerate(zip(self._span_ticks, self._span_lands)):
            for q, (k, g) in enumerate(ticks[p][3]):
                if k >= counts[i]:
                    break
                exits.append(offsets[i] + k)
                lands.append(offsets[j] + q if q < counts[j] else -1)
                carried.append((p, k, g))
        return (np.array(exits, dtype=np.intp),
                np.array(lands, dtype=np.intp), carried)

    @staticmethod
    def _span_cut(n: int, exits: np.ndarray, lands: np.ndarray) -> int:
        """The longest span of at most ``n`` firings that holds, for the
        tick of each apply it holds, the landing and a firing after the
        landing (whose segment refreshes the landed rates): with
        ``exits`` and ``lands`` each apply's tick and landing places."""
        while True:
            cut = exits[(exits < n) & (lands >= n - 1)]
            if not len(cut):
                return n
            n = int(cut.min())

    def _span_short(self, until_ns: int) -> None:
        """A plan too short to run: every plan until the firing that cut
        it short, at ``until_ns``, would be too."""
        self.span_ends[_SHORT] += 1
        self._span_short_until = until_ns

    def _span_ties_unsure(self, moved: np.ndarray, ranks: np.ndarray,
                          by_rank: list[int], queued: np.ndarray) -> int:
        """The first of two equal-time firings the merge may have ordered
        wrongly (-1: none). ``moved[k]`` is whether firing ``k + 1``
        comes later than firing ``k``, and ``queued[k]`` whether firing
        ``k`` is its timer's queued event.

        A queued firing keeps its seq. Every later firing is a re-arm,
        whose seq is the next after everything queued, taken when its
        parent (the timer's previous firing) fires: among equal times, a
        queued firing sorts first, and the re-arm of the earlier parent
        before the later. The tie rank encodes this for two periodic
        timers of one period, all of whose ancestors tie too: the timer
        whose chain reaches its queued event first (the later queued
        time) sorts first, or the one queued first. It also orders
        periodic timers of two periods unless the second is queued: the
        first then has the longer period, and its parent fired earlier.
        Any tie with a tick, a landing or a cohort is unsure."""
        timers = self._span_timers
        period = np.array([timers[i].period_ns if i < len(timers) else 0
                           for i in by_rank])[ranks]
        first, second = period[:-1], period[1:]
        unsure = np.flatnonzero(~moved & (
            (first == 0) | (second == 0)
            | ((second != first) & queued[1:])))
        return int(unsure[0]) if len(unsure) else -1

    def _span_integrate(self, plan: _SpanPlan) -> tuple:
        """Phase 2 of :meth:`run_span`: the segments' increments.

        Returns ``(inc, mid)``. Row 0 of ``inc`` is the current state
        (the accumulator vector, then the AC energy) and row ``k`` the
        increment of segment ``k``: the product :meth:`integrate` forms,
        from the rate vector and AC power of the point the landings and
        cohorts before the segment left. Adding rows in order is the sequential
        sum the per-segment adds compute, so the state after ``k``
        segments is bit-identical to ``np.add.reduce(inc[:k + 1],
        axis=0)`` (the commit's sum) and to row ``k`` of
        ``np.add.accumulate``, which ``mid`` holds for the entries read
        before the span ends (``_span_mid``).
        """
        seg_ns = plan.seg_ns
        vec = self._acc
        n = vec.size
        inc = np.empty((len(seg_ns) + 1, n + 1))
        inc[0, :n] = vec
        inc[0, n] = self.ac_energy_j
        # int64 -> float64 is exact here, as in the per-segment path.
        dt_s = (seg_ns / NS_PER_S)[:, None]
        rates = self._acc_rates
        dc = [s._rates.dc_w for s in self.sockets]
        # Each landing or cohort starts a run of segments at a new rate
        # row.
        bounds = [0] + [int(plan.seg_of[k]) for k, _ in plan.rows] \
            + [len(seg_ns)]
        for r, (a, b) in enumerate(pairwise(bounds)):
            if r:
                if r == 1:
                    rates = rates.copy()
                for sid, new in plan.rows[r - 1][1]:
                    cols, tail = self._socket_entries[sid]
                    rates[:self._rate_block.size].reshape(
                        self._rate_block.shape)[:, cols] = new.rate_matrix
                    rates[tail] = new.scalars
                    dc[sid] = new.dc_w
            dc_w = 0.0
            for w in dc:
                dc_w += w
            np.multiply(dt_s[a:b], rates, out=inc[1 + a:1 + b, :n])
            inc[1 + a:1 + b, n] = (self.psu.ac_power_w(dc_w) * seg_ns[a:b]
                                   / NS_PER_S)
        mid = inc[:, self._span_mid]
        np.add.accumulate(mid, axis=0, out=mid)
        return inc, mid

    def _span_replay(self, plan: _SpanPlan, mid: np.ndarray) -> tuple:
        """Phase 3 of :meth:`run_span`: replay each PCU's EET polls on
        the accumulated states, as arrays. Returns how many planned
        events commit — up to and including the first poll, in event
        order, that moves a trim — and per PCU with polls, their places
        in the span and counter totals."""
        shape = self._span_mid_eet
        eet = shape[0] * shape[1]
        n_commit = plan.n
        polls = []
        for i, timer in enumerate(self._span_timers):
            if timer.kind is not _POLL:
                continue
            at = np.flatnonzero(plan.ranks == plan.rank[i])
            if not len(at):
                continue
            pcu = self.pcus[timer.pcu]
            totals = pcu.span_eet_totals(
                mid[plan.seg_of[at], :eet].reshape((len(at),) + shape))
            first = pcu.span_eet_replay(totals)
            if first < len(at) and at[first] < n_commit:
                n_commit = int(at[first]) + 1
            polls.append((pcu, at, totals))
        return n_commit, polls

    def _span_commit(self, now_ns: int, plan: _SpanPlan, inc: np.ndarray,
                     mid: np.ndarray, n_commit: int, polls: list,
                     end: str) -> None:
        """The commit of :meth:`run_span`: the first ``n_commit``
        planned events happen; ``end`` is why the span stopped."""
        sim = self.sim
        pcus = self.pcus
        timers = self._span_timers
        last = n_commit - 1
        t_end = now_ns + int(plan.times[last])
        n_seg = int(plan.seg_of[last])
        vec = self._acc
        final = np.add.reduce(inc[:n_seg + 1], axis=0)
        vec[...] = final[:vec.size]
        self.ac_energy_j = final[vec.size].item()

        ranks = plan.ranks[:n_commit]
        fired = np.bincount(ranks, minlength=len(plan.rank)).tolist()
        fired = [fired[r] for r in plan.rank]
        # The place of each timer's last firing, which re-armed it.
        flats = [offset + c - 1 for offset, c in zip(plan.offsets, fired)]
        places = plan.merged.searchsorted(plan.keys[flats]).tolist()
        # The refreshes' latches and the landings, in event order. The
        # segment after each landing refreshes the socket's rates (every
        # landing has one, _span_cut), so it is no epoch-check hit. Each
        # landing moves the same cores and only the clocks differ, so
        # only a socket's last landing moves them and refreshes its
        # rates; with freq-apply recorded, every landing lands.
        applies = [a for a in plan.applies if a.exit < n_commit]
        hits = [n_seg] * len(self.sockets)
        last_land = {}
        for a in applies:
            hits[a.pcu] -= 1
            last_land[a.pcu] = a
        record_apply = sim.trace.wants("freq-apply")
        record = sim.trace.wants("rapl-update")
        steps = [(a.land, a) for a in applies
                 if record_apply or last_land[a.pcu] is a]
        # The carried cohorts: each touched socket's epoch moves as the
        # events move it, and the last cohort's refresh adopts its rates.
        cohorts = plan.cohorts
        n_cohorts = 0
        if cohorts is not None:
            n_cohorts = int(cohorts.at.searchsorted(n_commit))
        if n_cohorts:
            cohorts.advance(n_cohorts, hits)
            steps.append((int(cohorts.at[n_cohorts - 1]), cohorts))
        for i in self._span_periodic:
            if timers[i].kind is _REFRESH and fired[i]:
                at = (np.flatnonzero(ranks == plan.rank[i]).tolist()
                      if record else places[i:i + 1])
                steps += [(k, None) for k in at]
        steps.sort(key=lambda step: step[0])
        any_active = self._active_counter[0] > 0
        settled_ns = now_ns
        for k, apply in steps:
            at_ns = now_ns + int(plan.times[k])
            if apply is None:
                row = mid[plan.seg_of[k]]
                for s, entries in zip(self.sockets, self._span_mid_rapl):
                    s.rapl.latch(row[entries])
                    if record:
                        self._emit_rapl_update(at_ns, s)
            elif apply is cohorts:
                self._res_pending_ns += at_ns - settled_ns
                settled_ns = at_ns
                cohorts.adopt(n_cohorts, any_active)
            else:
                p = apply.pcu
                pcus[p].span_land(at_ns, apply.grant)
                if last_land[p] is apply:
                    self._res_pending_ns += at_ns - settled_ns
                    settled_ns = at_ns
                    self.sockets[p].adopt(
                        Socket.landed_key(plan.ticks[p][5], apply.grant),
                        apply.rates, any_active)
        elapsed = t_end - now_ns
        for s, n_hits in zip(self.sockets, hits):
            s.absorb_span(elapsed, n_hits)
        self._res_pending_ns += t_end - settled_ns
        for pcu, at, totals in polls:
            c = int(at.searchsorted(n_commit))
            if c:
                pcu.span_eet_commit(totals[:c])

        # Each PCU's tick draws and each reader's samples at once. A
        # ledger records sites in event order, so ledgered draws go one
        # firing at a time.
        bits = self._span_bits
        tick_times = [(tick[0][:fired[i] + 1] >> bits) + now_ns
                      for tick, i in zip(plan.ticks, self._span_ticks)]
        if sim.ledger is None:
            for p, i in enumerate(self._span_ticks):
                if fired[i]:
                    pcus[p].span_commit_ticks(tick_times[p][:fired[i]],
                                              plan.ticks[p][1][:fired[i]])
            for i in self._span_reads:
                if fired[i]:
                    self._span_read(now_ns, plan, mid, timers[i],
                                    np.flatnonzero(ranks == plan.rank[i]))
        else:
            taken = [0] * len(pcus)
            for k, r in enumerate(ranks.tolist()):
                i = plan.by_rank[r]
                kind = timers[i].kind if i < len(timers) else None
                if kind is _TICK:
                    p = timers[i].pcu
                    j = taken[p]
                    pcus[p].span_commit_ticks(tick_times[p][j:j + 1],
                                              plan.ticks[p][1][j:j + 1])
                    taken[p] = j + 1
                elif kind is _READ:
                    self._span_read(now_ns, plan, mid, timers[i],
                                    slice(k, k + 1))

        # Each PCU after carried cohorts: the cache its last derivation
        # tick left, and the plan and load the tick after one left.
        loads = {}
        if n_cohorts:
            loads = cohorts.rederived(n_cohorts, n_commit)

        # Each PCU with carried applies: the last one's decision, and
        # the window of the last tick after a landing.
        for p, i in enumerate(self._span_ticks):
            mine = [a for a in applies if a.pcu == p]
            if mine:
                after = [a for a in mine if a.tick + 1 < fired[i]]
                window = (after[-1].grant,
                          after[-1].rates.breakdown.package_w) \
                    if after else None
                pcus[p].span_applied(mine[-1].grant, window,
                                     mine[-1].tick + 1 < fired[i])

        # Each timer re-armed as its last firing re-armed it; the last
        # tick makes the MBVR selection. An apply's tick queues its
        # landing before it re-arms (two sequence numbers), and the
        # landing re-arms nothing.
        base = sim.queue.reserve_seqs(n_commit)
        exits = sorted(a.exit for a in applies)
        lands = sorted(a.land for a in applies)
        last_tick = (-1, -1)
        for i, timer in enumerate(timers):
            c = fired[i]
            if not c:
                continue
            if timer.kind is _TICK:
                t_next = int(tick_times[timer.pcu][c])
                last_tick = max(last_tick, (places[i], timer.pcu))
            else:
                t_next = timer.event.time_ns + c * timer.period_ns
            k = places[i]
            timer.rearm(t_next, base + k + bisect_right(exits, k)
                        - bisect_left(lands, k))
        if n_cohorts:
            cohorts.requeue(n_cohorts, now_ns,
                            base + int(cohorts.at[n_cohorts - 1]))
        if last_tick[1] >= 0:
            # A derivation tick selects on the breakdown before it.
            load = loads.get(last_tick)
            if load is not None:
                self.mbvr.select_power_state(load)
            else:
                pcus[last_tick[1]].select_steady_power_state()

        sim.now_ns = t_end
        others = [c for c in sim.integrators if c is not self]
        if others:
            t0 = now_ns
            for dt in plan.seg_ns[:n_seg].tolist():
                for component in others:
                    component.integrate(t0, t0 + dt)
                t0 += dt
        self.spans += 1
        self.span_events += n_commit
        self.span_applies += len(applies)
        self.span_cohorts += n_cohorts
        self.span_ends[end] += 1
        if end is _HEAD:
            self.span_heads[plan.head.label] += 1

    def _span_read(self, now_ns: int, plan: _SpanPlan, mid: np.ndarray,
                   timer: _SpanTimer, at) -> None:
        """Hand a span reader its firings ``at`` (planned event indices):
        their times and the AC energy accumulated up to each."""
        timer.read((plan.times[at] + now_ns).tolist(),
                   mid[plan.seg_of[at], self._span_mid_ac].tolist())

    # ---- human-readable state dump ---------------------------------------------

    def summary(self) -> str:
        """One-screen state report: per-socket frequencies, power,
        states, and the steady spans: how many ran, the events they
        absorbed, the applies and cohorts they carried and their three
        most common ends (:data:`SPAN_ENDS`)."""
        lines = [f"{self.spec.name} @ t={self.sim.now_ns / 1e9:.3f} s"]
        for socket in self.sockets:
            active = socket.active_cores()
            breakdown = socket.last_breakdown
            power = (f"{breakdown.package_w:.1f} W pkg + "
                     f"{breakdown.dram_w:.1f} W DRAM"
                     if breakdown is not None else "unmeasured")
            uncore = ("halted" if socket.uncore.halted
                      else f"{socket.uncore.freq_hz / 1e9:.2f} GHz")
            lines.append(
                f"  socket {socket.socket_id}: {len(active)}/"
                f"{len(socket.cores)} cores active, uncore {uncore}, "
                f"package {socket.package_cstate.name}, {power}")
            for core in active[:6]:
                phase = core.current_phase
                lines.append(
                    f"    core {core.core_id:2d}: "
                    f"{core.freq_hz / 1e9:.2f} GHz, "
                    f"{phase.name}, license {core.avx_license.value}")
            if len(active) > 6:
                lines.append(f"    ... {len(active) - 6} more active cores")
        lines.append(f"  wall power: {self.ac_power_w():.1f} W")
        lines.append(
            f"  spans: {self.spans} run, {self.span_events} events "
            f"absorbed, {self.span_applies} applies and "
            f"{self.span_cohorts} cohorts carried; ends " + ", ".join(
                f"{end} {count}"
                for end, count in self.span_ends.most_common(3)))
        return "\n".join(lines)


def build_node(
    sim: Simulator,
    spec: NodeSpec = HASWELL_TEST_NODE,
    epb: Epb = Epb.BALANCED,
    turbo_enabled: bool = True,
    eet_enabled: bool = True,
) -> Node:
    """Assemble a node, wire the PCUs, and start the periodic machinery."""
    measured_rapl = spec.cpu.microarch.codename == "haswell-ep"
    sockets = []
    for sid in range(spec.n_sockets):
        sockets.append(Socket.build(
            spec=spec.cpu,
            socket_id=sid,
            first_core_id=sid * spec.cpu.n_cores,
            voltage_offset_v=spec.socket_voltage_offsets_v[sid],
            measured_rapl=measured_rapl,
        ))
    node = Node(sim=sim, spec=spec, sockets=sockets, pcus=[],
                mbvr=Mbvr(), psu=PsuModel(spec))
    for socket in sockets:
        pcu = Pcu(sim=sim, socket=socket, node=node, epb=epb,
                  turbo_enabled=turbo_enabled, eet_enabled=eet_enabled)
        node.pcus.append(pcu)
        pcu.start()
    sim.add_integrator(node)
    if spec.cpu.rapl_update_period_ns > 0:
        node.rapl_timer = sim.schedule_every(
            spec.cpu.rapl_update_period_ns, node._rapl_refresh,
            label="rapl-refresh")
    # Initial SVID programming of the three MBVR lanes (Section II-B).
    node.mbvr.apply(SvidCommand("VCCin", 1.8))
    node.mbvr.apply(SvidCommand("VCCD_01", 1.2))
    node.mbvr.apply(SvidCommand("VCCD_23", 1.2))
    # Post-build hooks: under chaos mode (run_paper --chaos) the fault
    # layer has registered an armer that gives every node a seeded
    # injector; with no hooks registered this is a no-op.
    buildhooks.run(sim, node)
    return node


def build_haswell_node(seed: int | None = None,
                       **kwargs) -> tuple[Simulator, Node]:
    """Convenience: a fresh simulator plus the paper's test node."""
    sim = Simulator(seed=seed)
    node = build_node(sim, HASWELL_TEST_NODE, **kwargs)
    return sim, node

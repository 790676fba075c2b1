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
events — both PCUs' ticks, their EET polls and the RAPL refresh —
would fire, and each of those would change nothing but draws, the MBVR
state, the EET window and the visible RAPL energy, the node runs them
directly in (time, seq) order and integrates all their segments with
one sequential accumulate, bit-identical to one event and one segment
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import heapq

import numpy as np

from repro.engine.epoch import EpochCell
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, SimulationError
from repro.pcu.epb import Epb
from repro.pcu.pcu import Pcu
from repro.power.mbvr import Mbvr, SvidCommand
from repro.power.psu import PsuModel
from repro.power.rapl import RaplDomain
from repro.specs.node import NodeSpec, HASWELL_TEST_NODE
from repro.system import buildhooks
from repro.system.core import Core
from repro.system.counters import CORE_COUNTER_FIELDS
from repro.system.socket import Socket
from repro.topology.routing import LinkDerate
from repro.units import NS_PER_S
from repro.workloads.base import Workload

#: The periodic events a steady span runs.
_TICK, _POLL, _REFRESH = "tick", "poll", "refresh"

#: Shortest span worth its fixed cost (array set-up, one accumulate);
#: shorter runs fire as events.
SPAN_MIN_EVENTS = 4
#: Most events one span absorbs: bounds its buffers to
#: ``SPAN_MAX_EVENTS`` rows of the node block plus the scalars.
SPAN_MAX_EVENTS = 1024


class _SpanTimer:
    """One periodic event of a steady span: its kind, the index of its
    PCU (ticks and polls), its re-armed :class:`Event`, its fixed
    period (polls and refreshes) and its ``rearm(time_ns, seq)``."""

    __slots__ = ("kind", "pcu", "event", "period_ns", "rearm")

    def __init__(self, kind, pcu, event, period_ns, rearm) -> None:
        self.kind = kind
        self.pcu = pcu
        self.event = event
        self.period_ns = period_ns
        self.rearm = rearm


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
        # Each RAPL bank's entries, for a steady span's latches.
        self._rapl_entries = []
        for socket in self.sockets:
            tail = slice(first, first + socket._scalars.size)
            socket.attach(self._cnt_block, self._rate_block, first_col,
                          self._acc[tail], self._acc_rates[tail],
                          self.sync_residency)
            self._rapl_entries.append(
                slice(tail.stop - len(socket.rapl.domains), tail.stop))
            first_col += len(socket.cores)
            first = tail.stop
        # Steady spans: the periodic timers (collected on the first
        # span, once every PCU and the RAPL refresh have started), and
        # how many spans ran and how many events they absorbed.
        self.rapl_timer = None
        self._span_timers: list[_SpanTimer] | None = None
        self.spans = 0
        self.span_events = 0

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

    def _collect_span_timers(self) -> list[_SpanTimer]:
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
        self._span_timers = timers
        return timers

    def run_span(self, now_ns: int) -> None:
        """Run the periodic events ahead of the queue as one span.

        Called by a PCU after a steady tick at ``now_ns``. When both
        PCUs are span-ready (:meth:`Pcu.span_ready`), the node runs its
        PCU ticks, EET polls and RAPL refresh directly, in (time, seq)
        order, in three phases and a commit:

        1. *Plan* (:meth:`_span_plan`): merge the timers up to the
           first of the queue head (the span's own re-arms take later
           sequence numbers, so the head wins ties), the ``run_until``
           horizon, a tick whose dithered grant leaves its window, and
           the end of a PCU's draw block (:meth:`DrawBatch.ahead` never
           refills).
        2. *Integrate* (:meth:`_span_integrate`): one
           ``np.add.accumulate`` over the initial state and each
           segment's ``rate * dt_s`` advances the accumulator vector
           and the AC energy: the sequential sum the per-segment adds
           compute, with the same products.
        3. *Replay* the EET polls on the accumulated states; the span
           ends after the first poll that moves a trim.

        The commit (:meth:`_span_commit`) writes the final state,
        latches each socket's RAPL energy as of the last refresh
        (emitting every absorbed ``rapl-update`` when it is recorded),
        makes the last tick's MBVR selection, takes each tick's draws
        through the ordinary sites in event order, re-arms the timers
        under the sequence numbers the events would have taken, and
        advances any other integrator segment by segment. Another
        integrator must not read the node's accumulators: during a
        span it sees their end state.
        """
        for pcu in self.pcus:
            if not pcu.span_ready():
                return
        if not any(c is self for c in self.sim.integrators):
            return
        plan = self._span_plan(now_ns)
        if plan is None:
            return
        seg_ns, fired, polls = plan[:3]
        acc = self._span_integrate(seg_ns)

        # Phase 3: replay the EET polls; stop after a trim moves.
        n_commit = len(fired)
        if polls:
            timers = self._span_timers
            cnt = self._cnt_block
            states = acc[[fired[j][3] for j in polls], :cnt.size].reshape(
                (len(polls),) + cnt.shape)
            totals = [pcu.span_eet_totals(states) for pcu in self.pcus]
            for q, j in enumerate(polls):
                p = timers[fired[j][1]].pcu
                if self.pcus[p].span_eet_poll(totals[p][q]):
                    n_commit = j + 1
                    break
        self._span_commit(now_ns, plan, acc, n_commit)

    def _span_plan(self, now_ns: int) -> tuple | None:
        """Phase 1 of :meth:`run_span`: which timer fires when.

        Returns None for a span too short to pay for itself, else
        ``(seg_ns, fired, polls, ticks, refreshes)``: the lengths of the
        non-empty segments; per absorbed event ``(time, timer index,
        the timer's next firing, segments up to the event)``; and the
        positions in ``fired`` of the polls, ticks and refreshes.
        """
        sim = self.sim
        queue = sim.queue
        timers = self._span_timers or self._collect_span_timers()
        events = tuple(timer.event for timer in timers)
        for event in events:
            if event.cancelled:
                return None
        limit = (sim.until_ns + 1, -1)
        head = queue.head(events)
        if head is not None and head < limit:
            limit = head
        pcus = self.pcus
        # Per PCU: its jitter and dither read-aheads, the window test
        # and the delay formula; per timer: its kind, owner and period.
        draws = [pcu.span_draws() for pcu in pcus]
        grant_ok = [pcu.span_grant_ok for pcu in pcus]
        delay = [pcu.tick_delay for pcu in pcus]
        kinds = [timer.kind for timer in timers]
        owner = [timer.pcu for timer in timers]
        period = [timer.period_ns for timer in timers]
        n_ticks = [0] * len(pcus)
        merge = [(event.time_ns, event.seq, i)
                 for i, event in enumerate(events)]
        heapq.heapify(merge)
        replace = heapq.heapreplace
        seq = queue.next_seq
        fired: list[tuple[int, int, int, int]] = []
        seg_ns: list[int] = []
        polls: list[int] = []
        ticks: list[int] = []
        refreshes: list[int] = []
        prev = now_ns
        n = 0
        while n < SPAN_MAX_EVENTS:
            entry = merge[0]
            if not entry < limit:
                break
            t, _, i = entry
            kind = kinds[i]
            if kind is _TICK:
                p = owner[i]
                k = n_ticks[p]
                jitter, dither = draws[p]
                if k >= len(jitter) or (dither is not None and (
                        k >= len(dither) or not grant_ok[p](dither[k]))):
                    break
                t_next = t + delay[p](jitter[k])
                n_ticks[p] = k + 1
                ticks.append(n)
            else:
                t_next = t + period[i]
                (polls if kind is _POLL else refreshes).append(n)
            replace(merge, (t_next, seq + n, i))
            if t != prev:
                seg_ns.append(t - prev)
                prev = t
            fired.append((t, i, t_next, len(seg_ns)))
            n += 1
        if n < SPAN_MIN_EVENTS:
            return None
        return seg_ns, fired, polls, ticks, refreshes

    def _span_integrate(self, seg_ns: list[int]) -> np.ndarray:
        """Phase 2 of :meth:`run_span`: every state the segments pass.

        Row ``k`` of the result is the state after ``k`` segments.
        Columns: the accumulator vector, then the AC energy. Every
        increment is the product :meth:`integrate` forms and
        ``np.add.accumulate`` adds them in order, so each row is
        bit-identical to that many per-segment adds.
        """
        vec = self._acc
        n = vec.size
        acc = np.empty((len(seg_ns) + 1, n + 1))
        acc[0, :n] = vec
        acc[0, n] = self.ac_energy_j
        if seg_ns:
            dc_w = 0.0
            for s in self.sockets:
                dc_w += s._rates.dc_w
            seg = np.array(seg_ns, dtype=np.float64)
            inc = acc[1:]
            np.multiply((seg / NS_PER_S)[:, None], self._acc_rates,
                        out=inc[:, :n])
            inc[:, n] = self.psu.ac_power_w(dc_w) * seg / NS_PER_S
            np.add.accumulate(acc, axis=0, out=acc)
        return acc

    def _span_commit(self, now_ns: int, plan: tuple, acc: np.ndarray,
                     n_commit: int) -> None:
        """The commit of :meth:`run_span`: the first ``n_commit``
        planned events happen."""
        seg_ns, fired, _polls, ticks, refreshes = plan
        sim = self.sim
        pcus = self.pcus
        timers = self._span_timers
        last = n_commit - 1
        t_end, _, _, n_seg = fired[last]
        vec = self._acc
        final = acc[n_seg]
        vec[...] = final[:vec.size]
        self.ac_energy_j = final[vec.size].item()
        elapsed = t_end - now_ns
        for s in self.sockets:
            s.absorb_span(elapsed, n_seg)
        self._res_pending_ns += elapsed

        refreshes = [j for j in refreshes if j < n_commit]
        if refreshes:
            record = sim.trace.wants("rapl-update")
            for j in (refreshes if record else refreshes[-1:]):
                t, _, _, k = fired[j]
                row = acc[k]
                for s, entries in zip(self.sockets, self._rapl_entries):
                    s.rapl.latch(row[entries])
                    if record:
                        self._emit_rapl_update(t, s)

        # Each tick's draws, in event order (the ledger is shared).
        tick = [pcu.span_tick for pcu in pcus]
        pcu_of = None
        for j in ticks:
            if j >= n_commit:
                break
            t, i, t_next, _ = fired[j]
            pcu_of = timers[i].pcu
            if tick[pcu_of](t) != t_next:
                raise SimulationError(
                    f"steady span at t={t} ns: a tick's jitter draw "
                    "differs from its read-ahead")
        if pcu_of is not None:
            pcus[pcu_of].select_steady_power_state()

        # Each timer re-armed as its last firing re-armed it.
        base = sim.queue.reserve_seqs(n_commit)
        rearmed: set[int] = set()
        for j in range(last, -1, -1):
            _, i, t_next, _ = fired[j]
            if i not in rearmed:
                rearmed.add(i)
                timers[i].rearm(t_next, base + j)
                if len(rearmed) == len(timers):
                    break

        sim.now_ns = t_end
        others = [c for c in sim.integrators if c is not self]
        if others:
            t0 = now_ns
            for dt in seg_ns[:n_seg]:
                for component in others:
                    component.integrate(t0, t0 + dt)
                t0 += dt
        self.spans += 1
        self.span_events += n_commit

    # ---- human-readable state dump ---------------------------------------------

    def summary(self) -> str:
        """One-screen state report: per-socket frequencies, power, states."""
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

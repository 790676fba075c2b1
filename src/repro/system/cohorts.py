"""The phase cohorts a steady span carries (:meth:`Node.run_span`).

A lockstep workload advances all its cores with one ``phase-cohort``
event per phase boundary (:meth:`Node._advance_cohort`). The cohort
bumps the epochs of the sockets it touches, so each PCU's next tick
re-derives its grants and the tick after that classifies a new no-op
plan. When those derivations re-grant the clocks already running, the
cohort changes nothing but the phase and the segment rates, and a span
carries it with both ticks: :class:`SpanCohorts` finds the chain of
such cohorts a queue-head cohort starts, checks each one with the code
the event path runs, and commits what the events would have left.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.cstates.states import CState
from repro.system.core import AvxLicense

#: Most states the cohort checks are kept for: a sinus near the budget
#: alternates between its turbo and its undershot clocks. Keeping more
#: bought no time on fig2 and left more memory behind.
_STATES_MAX = 2


class SpanCohorts:
    """The phase cohorts one steady span may carry.

    ``event`` is the queued cohort, ``cores`` its cores, ``avx`` whether
    they run AVX-licensed, ``touched`` the ids of their sockets and
    ``lanes`` each one's :meth:`Socket.cohort_lane`. The chain
    (:meth:`keys`) lists per cohort its time (ns after the span's
    start), the phase index and phase its cores move to and whether that
    phase keeps them in lockstep on an active phase. ``checks`` caches
    per phase :meth:`_check` for the node's current state, and
    ``unsolved`` holds, per phase, a check with solve-memo misses and
    the PCUs whose points :meth:`solve` makes. :meth:`carry` sets
    ``at``, the merge places of the cohorts the span carries, and per
    PCU its ticks' places with, per carried cohort, the index of its
    first tick after it (its derivation tick; the one after classifies).
    """

    __slots__ = ("node", "event", "cores", "avx", "touched", "lanes",
                 "steps", "checks", "unsolved", "at", "ticks", "epochs",
                 "ctrl_keys")

    def __init__(self, node, event, cores, avx, touched, lanes) -> None:
        self.node = node
        self.event = event
        self.cores = cores
        self.avx = avx
        self.touched = touched
        self.lanes = lanes
        self.steps = []
        self.unsolved = {}
        self.at = None
        self.ticks = None
        state = self._state()
        cache = node._span_checks
        checks = cache.get(state)
        if checks is None:
            if len(cache) >= _STATES_MAX:
                cache.clear()
            cache[state] = checks = {}
        self.checks = checks

    @classmethod
    def at_head(cls, node, event) -> "SpanCohorts | None":
        """The cohorts a span may carry from the queued cohort ``event``
        on, or None.

        Only a lockstep chain qualifies: ``event`` is the one pending
        cohort, its cores sit at one workload position, in C0 on an
        active phase, under a normal AVX license on a phase without AVX
        or a granted one on an AVX phase (so no cohort of the chain
        moves a license), each touched socket's active cores are the
        cohort's and share one clock, and every PCU's plan is a no-op
        one (a span that carries cohorts takes no dither draw and
        carries no apply).
        """
        pending = node._phase_cohorts
        entry = pending.get(event.time_ns)
        if len(pending) != 1 or entry is None or entry[0] is not event:
            return None
        for pcu in node.pcus:
            if not pcu.noop_plan:
                return None
        cores = entry[1]
        first = cores[0]
        workload, index, phase = first.workload, first.phase_index, \
            first.current_phase
        avx_license = first.avx_license
        avx = avx_license is AvxLicense.LICENSED
        if (not (avx or avx_license is AvxLicense.NORMAL)
                or not phase.active or phase.uses_avx != avx):
            return None
        for core in cores:
            if not (core.workload is workload and core.phase_index == index
                    and core.cstate is CState.C0
                    and core.avx_license is avx_license):
                return None
        moved = Counter(core.socket_id for core in cores)
        touched = sorted(moved)
        lanes = [node.sockets[sid].cohort_lane(moved[sid])
                 for sid in touched]
        if any(lane is None for lane in lanes):
            return None
        return cls(node, event, cores, avx, touched, lanes)

    def _state(self) -> tuple:
        """Every input of a cohort check (:meth:`_check`) but the phase
        the cohort moves to: which cores move, each PCU's control knobs
        and solve-memo generation, each socket's operating point
        (:meth:`Socket._gather_key`, the moving cores' phases left out)
        and package state, and each core's request, AVX license and
        clock. Checks made on an equal state hold."""
        node = self.node
        touched = dict(zip(self.touched, self.lanes))
        points = []
        for sid, socket in enumerate(node.sockets):
            lane = touched.get(sid)
            if lane is None:
                points.append(socket._gather_key())
            else:
                points.append(tuple([(part[0],) + part[2:]
                                     if type(part) is tuple else part
                                     for part in lane[0]]))
            points.append(socket.package_cstate)
        return (tuple([core.core_id for core in self.cores]),
                tuple([pcu._control_key()[1:] + (pcu.limiter.memo_clears,)
                       for pcu in node.pcus]),
                tuple(points),
                tuple([(core.requested_hz, core.avx_license, core.freq_hz)
                       for core in node._cores_by_id.values()]))

    # ---- plan ---------------------------------------------------------------------

    def keys(self, now_ns: int, horizon: int, most: int, bits: int,
             rank: int) -> np.ndarray:
        """The merge keys of the cohort chain up to ``horizon``, at most
        ``most`` cohorts: each cohort schedules the next one its next
        phase's duration later. The chain stops after the first cohort
        whose next phase would leave its cores off lockstep (idle,
        unbounded or with another AVX license); that cohort still bounds
        the span."""
        core = self.cores[0]
        t = self.event.time_ns
        index = core.phase_index
        steps = self.steps
        while t <= horizon and len(steps) < most:
            index, phase = core.successor(index)
            ok = (phase.active and phase.duration_ns is not None
                  and phase.uses_avx == self.avx)
            steps.append((t - now_ns, index, phase, ok))
            if not ok:
                break
            t += phase.duration_ns
        return np.array([step[0] for step in steps],
                        dtype=np.int64) << bits | rank

    def carry(self, n: int, at: np.ndarray, ticks: list,
              rel: np.ndarray) -> int:
        """The longest span of at most ``n`` firings that holds only
        cohorts it can carry; records them.

        ``at`` holds the chain cohorts' merge places, ``ticks`` each
        PCU's ticks' places and ``rel`` the merged firings' times. A
        carried cohort keeps its cores in lockstep; both PCUs re-grant
        the running clocks on their first tick after it (:meth:`_check`);
        and each PCU ticks twice before the next cohort (the derivation
        and the tick that classifies its no-op plan). The span holds a
        cohort only with a later firing, whose segment refreshes the
        touched sockets' rates. The plan ends before any cohort that
        ties with another firing (:meth:`Node._span_ties_unsure`).
        """
        steps = self.steps
        before = [t.searchsorted(at) for t in ticks]
        carried = 0
        for j, c in enumerate(at.tolist()):
            if c >= n:
                break
            if (not steps[j][3]
                    or (j and any(b[j] - b[j - 1] < 2 for b in before))
                    or self._check(steps[j][2]) is None):
                n = c
                break
            carried = j + 1
        while carried and rel[n - 1] <= steps[carried - 1][0]:
            carried -= 1
            n = int(at[carried])
        self.at = at[:carried]
        self.ticks = [(t, b[:carried]) for t, b in zip(ticks, before)]
        return n

    def _check(self, phase) -> tuple | None:
        """What the events do after a cohort that moves its cores to
        ``phase``, cached per phase while the rest of the state holds
        (:meth:`_state`): per PCU the derivation its next tick makes
        with its decision (:meth:`Pcu.span_rederive`,
        :meth:`Pcu.span_regrant`), and per touched socket the memo key
        and rates of the first segment after it
        (:meth:`Socket.cohort_rates`). None when a PCU would not
        re-grant the running clocks (kept as False: the points it
        tested were memo hits, which the state pins). A PCU's
        solve-memo miss leaves its decision None: :meth:`solve` makes
        it."""
        check = self.checks.get(phase)
        if check is None and phase in self.unsolved:
            check = self.unsolved[phase][0]
        if check is not None:
            return check or None
        moved = {core.core_id: phase for core in self.cores}
        derived, unsolved = [], []
        for p, pcu in enumerate(self.node.pcus):
            rederived = pcu.span_rederive(moved)
            if rederived[4] is None:
                unsolved.append(p)
                derived.append(rederived)
                continue
            decision = pcu.span_regrant(rederived)
            if decision is None:
                self.checks[phase] = False
                return None
            derived.append(rederived[:4] + (decision,))
        check = (derived, [
            self.node.sockets[sid].cohort_rates(lane, phase)
            for sid, lane in zip(self.touched, self.lanes)])
        if unsolved:
            self.unsolved[phase] = (check, unsolved)
        else:
            self.checks[phase] = check
        return check

    def check(self, j: int) -> tuple:
        """The check of carried cohort ``j``: ``(derived, rates)``."""
        phase = self.steps[j][2]
        check = self.checks.get(phase)
        return check if check is not None else self.unsolved[phase][0]

    def rows(self) -> list:
        """Per carried cohort its merge place and each touched socket's
        new rates (a new rate row of the span's integrate)."""
        return [(c, [(sid, r[1]) for sid, r in
                     zip(self.touched, self.check(j)[1])])
                for j, c in enumerate(self.at.tolist())]

    # ---- between the replay and the commit ----------------------------------------

    def solve(self, n: int) -> int:
        """Solve, in event order, the points of the derivation ticks
        among the first ``n`` planned firings whose solve missed the
        limiter's memo (:meth:`Pcu.span_regrant`): the solves the events
        make. Returns the longest span that holds no cohort after which
        a tick would not re-grant the running clocks, and none after a
        solve that cleared the memo: the later cohorts' checks looked up
        points it no longer holds, which the events solve again."""
        unsolved = self.unsolved
        if not unsolved:
            return n
        todo = []
        for j, c in enumerate(self.at.tolist()):
            if c >= n:
                break
            entry = unsolved.get(self.steps[j][2])
            if entry is None:
                continue
            for p in entry[1]:
                tick_at, before = self.ticks[p]
                b = before[j]
                if b < len(tick_at) and tick_at[b] < n:
                    todo.append((int(tick_at[b]), p, j))
        for place, p, j in sorted(todo):
            if place >= n:
                break
            phase = self.steps[j][2]
            entry = unsolved.get(phase)
            if entry is None or p not in entry[1]:
                continue      # solved at the phase's earlier cohort
            (derived, _), pending = entry
            pcu = self.node.pcus[p]
            clears = pcu.limiter.memo_clears
            decision = pcu.span_regrant(derived[p])
            if decision is None:
                return int(self.at[j])
            derived[p] = derived[p][:4] + (decision,)
            pending.remove(p)
            if not pending:
                self.checks[phase] = unsolved.pop(phase)[0]
            if pcu.limiter.memo_clears != clears and j + 1 < len(self.at):
                n = min(n, int(self.at[j + 1]))
        return n

    # ---- commit -------------------------------------------------------------------

    def advance(self, n_cohorts: int, hits: list[int]) -> None:
        """Carry out the first ``n_cohorts`` cohorts' phase moves: bump
        the touched sockets' epochs (and through them the node's) once
        per cohort, as the cohort events do, and move the cohort's cores
        to the last one's phase (:meth:`Core.skip_phases`). Each
        cohort's next segment refreshes the touched sockets' rates, so
        it is no epoch-check hit (``hits``). Keeps the node epoch after
        each cohort and the PCUs' control keys, which the derivation
        ticks saw before the span's polls moved a trim."""
        node = self.node
        self.ctrl_keys = [pcu._control_key() for pcu in node.pcus]
        self.epochs = []
        for _ in range(n_cohorts):
            for sid in self.touched:
                node.sockets[sid].epoch.bump()
            self.epochs.append(node.epoch.value)
        for sid in self.touched:
            hits[sid] -= n_cohorts
        _, index, phase, _ = self.steps[n_cohorts - 1]
        for core in self.cores:
            core.skip_phases(index, phase)

    def adopt(self, n_cohorts: int, any_active: bool) -> None:
        """Each touched socket's rate refreshes after the carried
        cohorts: the memo inserts of all, the rates of the last."""
        for t, sid in enumerate(self.touched):
            socket = self.node.sockets[sid]
            for j in range(n_cohorts - 1):
                socket.remember(*self.check(j)[1][t])
            socket.adopt(*self.check(n_cohorts - 1)[1][t], any_active)

    def rederived(self, n_cohorts: int, n_commit: int) -> dict:
        """Leave each PCU as its ticks after the carried cohorts left it
        (:meth:`Pcu.span_rederived`): the first tick after a cohort
        derives under the node epoch the cohort left, the second
        classifies a no-op plan on the socket's new load. Returns, for a
        PCU whose last committed tick is a derivation, ``{(its place,
        PCU index): the load it selects the MBVR on}``."""
        loads = {}
        for p, pcu in enumerate(self.node.pcus):
            tick_at, before = self.ticks[p]
            derived = settled = None
            for j, b in enumerate(before[:n_cohorts].tolist()):
                if b < len(tick_at) and tick_at[b] < n_commit:
                    derived = j
                if b + 1 < len(tick_at) and tick_at[b + 1] < n_commit:
                    settled = j
            if derived is None:
                continue
            if settled != derived:
                loads[(int(tick_at[before[derived]]), p)] = \
                    self._load(p, derived)
            pcu.span_rederived(
                (self.epochs[derived],) + self.ctrl_keys[p][1:],
                self.check(derived)[0][p],
                None if settled is None else self._load(p, settled),
                settled == derived)
        return loads

    def _load(self, p: int, j: int) -> float:
        """Socket ``p``'s package load after carried cohort ``j``."""
        if p in self.touched:
            rates = self.check(j)[1][self.touched.index(p)][1]
            return rates.breakdown.package_w
        return self.node.sockets[p].last_breakdown.package_w

    def requeue(self, n_cohorts: int, now_ns: int, seq: int) -> None:
        """Queue the cohort after the last carried one (of the span
        started at ``now_ns``) under ``seq``, the number the last one's
        push would have taken; the cohort's event and core list carry
        over."""
        node = self.node
        last = self.steps[n_cohorts - 1]
        time_ns = now_ns + last[0] + last[2].duration_ns
        del node._phase_cohorts[self.event.time_ns]
        node._phase_cohorts[time_ns] = (self.event, self.cores)
        member = node._phase_member
        for core in self.cores:
            member[core.core_id] = time_ns
        node.sim.queue.rearm(self.event, time_ns, node._advance_cohort, seq)

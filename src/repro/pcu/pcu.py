"""The per-socket Power Control Unit.

Ticks every ~500 us (:attr:`CpuSpec.pcu_quantum_ns`, with a small timing
jitter — the paper infers "regular intervals of about 500 us" driven by
an external source). A tick grants every core's frequency (request,
turbo bins, EPB, EET trim, AVX caps, TDP budget) and the uncore
frequency (UFS), then applies changes after the voltage-ramp switching
time. All cores of a socket change together; sockets tick on
independent phases — exactly the behaviour FTaLaT measures in Fig. 3.
The grants are derived afresh only when an input moved; a tick whose
inputs are unchanged replays the cached derivation (see
:meth:`Pcu._steady_tick`). A grant this PCU applies is not such an
input (except under tied uncore coupling): its landing refreshes the
socket's rates but not the node epoch the derivation is keyed on, so a
steady span can carry it (:meth:`Pcu.span_ticks`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.rng import DrawBatch, spawn_rng
from repro.errors import ConfigurationError, SimulationError
from repro.engine.simulator import Simulator
from repro.pcu.avx import AvxUnit
from repro.pcu.eet import EetController
from repro.pcu.epb import Epb
from repro.pcu.turbo import FrequencyDecision, SolvedPoint, TdpLimiter
from repro.pcu.ufs import ufs_target_hz
from repro.specs.cpu import CpuSpec
from repro.system.counters import FIELD_ROW
from repro.units import us

if TYPE_CHECKING:
    from repro.system.node import Node
    from repro.system.socket import Socket

# Tick-to-tick timing jitter of the grant opportunities.
TICK_JITTER_NS = us(10)

# What a tick under an unchanged control key has to redo (Pcu._steady_tick).
_REPLAY, _NOOP, _GRANT = "replay", "noop", "grant"

# The aperf and stall-cycle counter rows as one strided slice, so the EET
# window sums both in one reduce (Socket.counter_totals).
_APERF, _STALL = FIELD_ROW["aperf"], FIELD_ROW["stall_cycles"]
_EET_ROWS = slice(_APERF, _STALL + 1, _STALL - _APERF)


class Pcu:
    """Control loop of one socket."""

    def __init__(self, sim: Simulator, socket: "Socket", node: "Node",
                 epb: Epb = Epb.BALANCED, turbo_enabled: bool = True,
                 eet_enabled: bool = True,
                 budget_w: float | None = None) -> None:
        self.sim = sim
        self.socket = socket
        self.node = node
        self.spec: CpuSpec = socket.spec
        self.epb = epb
        self.turbo_enabled = turbo_enabled
        self.eet = EetController(enabled=eet_enabled)
        self.limiter = TdpLimiter(self.spec, socket.power_model, budget_w)
        self.avx_unit = AvxUnit(sim=sim,
                                relax_delay_ns=self.spec.avx_relax_delay_ns)
        self.rng = spawn_rng(sim.rng)
        self._tick_label = f"pcu-tick-s{socket.socket_id}"
        # Batched draw buffers over this PCU's stream. Tick jitter and
        # TDP dither are the two per-tick draw sites; prefilling them
        # block-wise replaces ~one generator call per tick with one per
        # 256 ticks. Values are identical to sequential draws while the
        # stream has a single live site (the canonical non-TDP-bound
        # scenarios); interleaved dither shifts which value lands where
        # but never the draw *order*, which is what the sanitizer ledger
        # and the fastpath parity guarantee are about.
        self._jitter_batch = DrawBatch(self.rng, "integers")
        self._dither_batch = DrawBatch(self.rng, "normal")
        # Tick period. Pre-Haswell parts carry requests out immediately
        # (Node.set_pstate) but still run a coarse tick for TDP/UFS.
        quantum = self.spec.pcu_quantum_ns
        self._quantum_ns = quantum if quantum > 0 else us(500)
        self.last_decision: FrequencyDecision | None = None
        # PROCHOT#-style thermal throttle: while set, every grant is
        # clamped to this frequency (fault injection / thermal episodes).
        self.prochot_cap_hz: float | None = None
        # Software uncore-ratio limits (MSR_UNCORE_RATIO_LIMIT 0x620 via
        # the host interface). Default to the silicon range, so behaviour
        # is unchanged until software narrows the window.
        self.uncore_limit_min_hz: float = self.spec.uncore_min_hz
        self.uncore_limit_max_hz: float = self.spec.uncore_max_hz
        # Additional tick-timing jitter (fault injection: a disturbed
        # external tick source widens the grant-opportunity spread).
        self.extra_tick_jitter_ns = 0
        # Voltage-ramped frequency switches, batched per fire time: one
        # decision applies every changed core at now + switch_time, so
        # one heap event carries the whole socket's applies (per-core
        # order = insertion order = the order per-core events had).
        self._apply_batches: dict[int, tuple[object, dict]] = {}
        self._pending_apply: dict[int, int] = {}   # core id -> fire time
        # A landed grant is a decision input only under tied coupling,
        # where the uncore target follows the core clocks; otherwise it
        # bumps the socket epoch alone (Core.apply_frequency).
        tied = self.spec.microarch.uncore_coupling == "tied"
        for core in socket.cores:
            core._grant_is_input = tied
        self._eet_last_stall = 0.0
        self._eet_last_cycles = 0.0
        # Steady-state fast path: when the node epoch and every control
        # knob are unchanged since the last derivation, the per-core
        # target derivation is skipped and the limiter re-grants on the
        # cached inputs (consuming the same rng draws, so the event
        # stream is bit-identical either way). Node.set_fastpath
        # toggles it.
        self.fastpath_enabled = True
        self._epoch = getattr(node, "epoch", None) or socket.epoch
        self._ctrl_key: tuple | None = None
        self._ctrl_targets: dict[int, float] = {}
        self._ctrl_decide_targets: dict[int, float] = {}
        self._ctrl_activity = 0.0
        self._ctrl_ufs: float | None = None
        # Steady-tick plan for the cached derivation; None = classify on
        # the next steady tick. A grant-only plan keeps the solved point,
        # the uniform active target and the slowest and fastest active
        # core frequency; both plans keep the MBVR load.
        self._steady_plan: str | None = None
        self._steady_point: SolvedPoint | None = None
        self._steady_target_hz = 0.0
        self._steady_lo_hz = 0.0
        self._steady_hi_hz = 0.0
        self._steady_load_w = 0.0

    # ---- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        phase = int(self.rng.integers(0, self._quantum_ns))
        # One tick event, re-armed after every tick (EventQueue.rearm).
        self.tick_event = self.sim.schedule_after(
            max(phase, 1), self._tick, label=self._tick_label)
        self.eet_timer = None
        if self.spec.eet_poll_period_ns > 0:
            self.eet_timer = self.sim.schedule_every(
                self.spec.eet_poll_period_ns, self._eet_poll,
                label=f"eet-poll-s{self.socket.socket_id}")

    # ---- software control -----------------------------------------------------------

    def set_uncore_limits(self, min_hz: float | None = None,
                          max_hz: float | None = None) -> None:
        """Narrow (or restore) the uncore frequency window.

        The knob MSR_UNCORE_RATIO_LIMIT exposes: the UFS law still picks
        the target, but grants are clamped into ``[min_hz, max_hz]``.
        ``None`` leaves the respective bound unchanged.
        """
        new_min = self.uncore_limit_min_hz if min_hz is None else min_hz
        new_max = self.uncore_limit_max_hz if max_hz is None else max_hz
        if not (self.spec.uncore_min_hz <= new_min <= new_max
                <= self.spec.uncore_max_hz):
            raise ConfigurationError(
                f"uncore limits [{new_min / 1e9:.2f}, {new_max / 1e9:.2f}] "
                f"GHz outside the silicon range "
                f"[{self.spec.uncore_min_hz / 1e9:.2f}, "
                f"{self.spec.uncore_max_hz / 1e9:.2f}] GHz")
        self.uncore_limit_min_hz = new_min
        self.uncore_limit_max_hz = new_max

    def _clamp_uncore(self, f_hz: float) -> float:
        return min(max(f_hz, self.uncore_limit_min_hz),
                   self.uncore_limit_max_hz)

    # ---- periodic work --------------------------------------------------------------

    def _eet_poll(self, _now_ns: int) -> None:
        self._eet_sample(self.socket.counter_totals(_EET_ROWS))

    def _eet_sample(self, totals: list[float]) -> None:
        """One EET poll on the socket's (aperf, stall) counter totals.

        The stall fraction is stall cycles over unhalted cycles since
        the previous poll. Hardware counts events over the interval; a
        phase that ended just before the poll still dominates the
        sample — the staleness that makes EET mis-clock fast
        phase-switchers (Section II-E).
        """
        cycles, stall = totals
        d_stall = stall - self._eet_last_stall
        d_cycles = cycles - self._eet_last_cycles
        self._eet_last_stall = stall
        self._eet_last_cycles = cycles
        fraction = 0.0 if d_cycles <= 0 else min(d_stall / d_cycles, 1.0)
        self.eet.poll(fraction, self.epb)

    def _tick(self, now_ns: int) -> None:
        self._control(now_ns)
        self.sim.queue.rearm(self.tick_event, self._next_tick_at(now_ns),
                             self._tick)
        plan = self._steady_plan
        if plan is _NOOP or plan is _GRANT:
            # A steady tick that scheduled nothing: the node may run the
            # periodic events ahead as one span.
            self.node.run_span(now_ns)

    @property
    def extra_tick_jitter_ns(self) -> int:
        return self._extra_tick_jitter_ns

    @extra_tick_jitter_ns.setter
    def extra_tick_jitter_ns(self, value: int) -> None:
        self._extra_tick_jitter_ns = value
        spread = TICK_JITTER_NS + value
        self._jitter_args = (-spread, spread + 1)   # integers(lo, hi)

    def tick_delay(self, jitter_ns: int) -> int:
        """Time from a tick to the next under one jitter draw."""
        delay = self._quantum_ns + jitter_ns
        return delay if delay > 1 else 1

    def _next_tick_at(self, now_ns: int) -> int:
        """The next tick's time after an event tick at ``now_ns``."""
        return now_ns + self.tick_delay(self._tick_jitters(now_ns))

    def _tick_jitters(self, times_ns):
        """The tick-jitter draws of the ticks at ``times_ns``.

        The one jitter draw site: a tick fired as an event (``times_ns``
        an ``int``) takes one draw, refilling as needed; a steady span's
        ticks (an int64 array) take theirs at once with
        :meth:`DrawBatch.take_n`, which never refills. Every tick takes
        its draw here once, after its control decision, and a socket's
        ticks arrive in tick order.
        """
        take, take_n = self._jitter_batch.take, self._jitter_batch.take_n
        args = self._jitter_args
        single = type(times_ns) is int
        # One line, so both forms record the same ledger site.
        return take(*args) if single else take_n(len(times_ns), *args)

    # ---- the control decision ---------------------------------------------------------

    def _uncore_target(self, active: list, phases: list) -> float | None:
        """The UFS target for the ``active`` cores, on ``phases``."""
        socket = self.socket
        spec = self.spec
        sleeping = socket.package_cstate.uncore_halted
        coupling = spec.microarch.uncore_coupling
        if coupling == "tied":
            if sleeping:
                return None
            f = max((c.freq_hz for c in active), default=spec.uncore_min_hz)
            return float(min(max(f, spec.uncore_min_hz), spec.uncore_max_hz))
        if coupling == "fixed":
            return None if sleeping else spec.uncore_min_hz
        fastest = self.node.system_fastest_setting()
        if fastest == "no-active-core":
            fastest = spec.min_hz
        max_stall = max((phase.stall_fraction for phase in phases),
                        default=0.0)
        return ufs_target_hz(
            spec,
            epb=self.epb,
            package_sleeping=sleeping,
            socket_has_active_core=bool(active),
            max_stall_fraction=max_stall,
            system_fastest_setting_hz=fastest,
        )

    def _control_key(self) -> tuple:
        """Everything the grant derivation depends on besides the core
        and uncore state the node epoch covers. Granted core clocks are
        a derivation input only under tied coupling, where landing them
        bumps the node epoch too."""
        return (self._epoch.value, self.epb, self.turbo_enabled,
                self.eet.trim_hz, self.prochot_cap_hz, self.limiter.budget_w,
                self.uncore_limit_min_hz, self.uncore_limit_max_hz)

    def _replay_cached(self) -> None:
        """Re-issue the cached derivation's grants.

        The limiter still re-decides (re-dithering TDP-bound grants
        exactly as the slow path would — same rng draws in the same
        order) and the grants are re-applied.
        """
        decision = self.limiter.decide(
            targets_hz=self._ctrl_decide_targets,
            activity_sum=self._ctrl_activity,
            ufs_target_hz=self._ctrl_ufs,
            rng=self._dither_batch,
        )
        self._apply_decision(decision, self._ctrl_targets)

    def _steady_tick(self) -> None:
        """A tick whose control key equals the cached derivation's.

        No decision input moved since the derivation, so a fresh one
        would reproduce the cached targets and solved point. Core
        frequencies may have moved — a grant landing bumps the socket
        epoch only — but every landing clears the plan, so the plan was
        classified against the current frequencies. The replay can
        differ from the last decision only in the dither of a TDP-bound
        point. Two classes of tick need less than a full replay:

        * **no-op** — a point that is not TDP-bound re-grants exactly
          the last decision. With no apply pending and every core
          already within the apply threshold of its grant, the replay
          schedules nothing, and the uncore already runs at its grant
          (setting it to a new value bumps the node epoch). Only the
          MBVR selection remains: the regulator is shared by the node,
          and both sockets overwrite it.
        * **grant only** — a TDP-bound point with uniform active
          targets gives every active core the same grant ``g``, and
          ``|g - f|`` is below the threshold for every active core iff
          it is at the slowest and the fastest one (``fl(g - f)`` is
          monotone in ``f``). Within that window the apply pass is a
          no-op apart from the draw, so the tick computes ``g`` alone;
          outside it, the grants apply.

        Everything else replays in full. The plan is classified on the
        first steady tick, so derivation ticks pay nothing for it.
        """
        plan = self._steady_plan or self._plan_steady()
        if plan is _NOOP:
            self.select_steady_power_state()
        elif plan is _GRANT:
            point = self._steady_point
            f_core = self.limiter.dither(point, self._dither_batch)
            if self._grant_in_window(f_core):
                self.select_steady_power_state()
            else:
                self._steady_plan = None     # applies are now pending
                self._apply_decision(
                    self.limiter.grant_at(point, f_core,
                                          self._ctrl_decide_targets),
                    self._ctrl_targets)
        else:
            self._replay_cached()

    def select_steady_power_state(self) -> None:
        """The MBVR selection every steady no-op or in-window tick makes,
        from the load the plan cached."""
        self.node.mbvr.select_power_state(self._steady_load_w)

    def _grant_in_window(self, f_core: float) -> bool:
        """Whether a grant-only plan's dithered grant ``f_core`` leaves
        every active core within the apply threshold (no apply)."""
        target = self._steady_target_hz
        granted = f_core if f_core < target else target
        threshold = self._APPLY_THRESHOLD_HZ
        return (abs(granted - self._steady_lo_hz) < threshold
                and abs(granted - self._steady_hi_hz) < threshold)

    def _grants_in_window(self, granted: np.ndarray, lo_hz: float,
                          hi_hz: float) -> np.ndarray:
        """:meth:`_grant_in_window` for an array of grants already capped
        at the plan's target, elementwise, in the window of the slowest
        and fastest active clock ``lo_hz`` and ``hi_hz``.

        Both differences are the same IEEE subtractions. Rounding is
        monotone, so ``fl(g - hi) <= fl(g - lo)`` (``lo <= hi``), and
        the two ``abs(.) < threshold`` tests reduce to the two outer
        bounds.
        """
        threshold = self._APPLY_THRESHOLD_HZ
        return (granted - lo_hz < threshold) & (granted - hi_hz > -threshold)

    def _plan_steady(self) -> str:
        """Classify the cached derivation for :meth:`_steady_tick`.

        ``last_decision`` is the decision of the last tick that ran the
        apply pass; at least the derivation did, and no tick since
        moved a non-TDP-bound grant or the solved point. The MBVR load
        holds until the plan is dropped: the socket's rates move only
        with its epoch, which moves only by a node bump (a new
        derivation) or a landed grant (which drops the plan).
        """
        socket = self.socket
        if self._pending_apply or not socket.breakdown_current():
            # Not kept: re-classify once the applies land, or once the
            # segment after a same-instant landing has been integrated.
            return _REPLAY
        decide_targets = self._ctrl_decide_targets
        targets = self._ctrl_targets
        threshold = self._APPLY_THRESHOLD_HZ
        cores = socket.cores
        if not self.last_decision.tdp_bound:
            plan = _REPLAY if self._core_applies(self.last_decision,
                                                 targets) else _NOOP
        elif len(set(decide_targets.values())) != 1 or any(
                abs(targets[c.core_id] - c.freq_hz) >= threshold
                for c in cores if c.core_id not in decide_targets):
            plan = _REPLAY
        else:
            active = [c.freq_hz for c in cores if c.core_id in decide_targets]
            self._steady_lo_hz = min(active)
            self._steady_hi_hz = max(active)
            self._steady_target_hz = next(iter(decide_targets.values()))
            # The pure solve the derivation's decide ran (a memo hit).
            self._steady_point = self.limiter.solve(
                decide_targets, self._ctrl_activity, self._ctrl_ufs)
            plan = _GRANT
        self._steady_load_w = socket.last_breakdown.package_w
        self._steady_plan = plan
        return plan

    # ---- steady spans (Node.run_span) ------------------------------------------------

    def span_ready(self) -> bool:
        """Whether this PCU's ticks can run inside a steady span.

        Its last tick was steady on a no-op or grant-only plan and
        nothing it reads has moved since: no apply pending, the same
        control key, the package state and segment rates current. Each
        further tick of the span then only selects the MBVR state and
        takes its draws, until a dithered grant leaves the window.
        """
        plan = self._steady_plan
        if (not (plan is _NOOP or plan is _GRANT) or self._pending_apply
                or not self.fastpath_enabled):
            return False
        socket = self.socket
        if not (socket.fastpath_enabled and socket.breakdown_current()
                and socket.package_state_current(
                    self.node.any_core_active())):
            return False
        if plan is _GRANT:
            point = self._steady_point
            if point.core_hz is None or not point.tdp_bound:
                return False
        return self._control_key() == self._ctrl_key

    @property
    def noop_plan(self) -> bool:
        """Whether this PCU's steady plan is a no-op one."""
        return self._steady_plan is _NOOP

    def span_ticks(self) -> tuple:
        """What this PCU's next ticks can absorb without a refill.

        Returns ``(jitters, sums, m, window, applies, lane)``: the tick
        jitters left in the draw block (:meth:`DrawBatch.block`), their
        delay sums (``sums[j]`` is the total delay of the first ``j``,
        so tick ``j`` of a span comes ``sums[j]`` after the queued
        tick), the number ``m`` of ticks that can run inside a span and
        whether tick ``m`` stops it by leaving the grant window
        (otherwise by the end of a draw block). Under a grant-only plan
        each tick also takes a dither draw, and its dithered grant is
        tested against the window of :meth:`_steady_tick` on the dither
        read-ahead at once. A tick whose grant ``g`` leaves the window
        applies it; while a span can carry the apply
        (:meth:`_carries_apply`) the tick runs, joins ``applies`` as
        ``(j, g)``, and its landing moves every active core to ``g``
        before the next tick, whose re-classification makes the window
        ``(g, g)``. The first apply a span cannot carry is tick ``m``.
        ``lane`` is the socket's landed lane
        (:meth:`Socket.landed_lane`) when ``applies`` is not empty.
        """
        jitters, cursor = self._jitter_batch.block(*self._jitter_args)
        jitters = jitters[cursor:]
        sums = np.zeros(len(jitters) + 1, dtype=np.int64)
        np.cumsum(self.tick_delays(jitters), out=sums[1:])
        m = len(jitters)
        applies = []
        lane = None
        if self._steady_plan is not _GRANT or not m:
            return jitters, sums, m, False, applies, lane
        dithers, start = self._dither_batch.block(*self.limiter.DITHER_ARGS)
        m = min(m, len(dithers) - start)
        granted = self.limiter.dithered_n(
            self._steady_point, dithers[start:start + m],
            self._steady_target_hz)
        lo, hi = self._steady_lo_hz, self._steady_hi_hz
        j = 0
        while j < m:
            ok = self._grants_in_window(granted[j:], lo, hi)
            first = int(ok.argmin())
            if ok[first]:
                break
            j += first
            if not (lane or (lane := self._carries_apply())):
                return jitters, sums, j, True, applies, lane
            lo = hi = granted[j].item()
            applies.append((j, lo))
            j += 1
        return jitters, sums, m, False, applies, lane

    def _carries_apply(self) -> tuple | None:
        """The socket's landed lane (:meth:`Socket.landed_lane`) when a
        steady span can carry this grant-only PCU's applies, else None.

        Every active core runs one clock, so an apply moves all of them
        to the grant, onto one lane the socket's uniform rates serve;
        the landing comes before the next tick and, outside tied
        coupling, is no decision input; the uncore already runs at its
        grant. A carried apply leaves all of this true.
        """
        spec = self.spec
        socket = self.socket
        uncore_hz = self._steady_point.uncore_hz
        if (self._steady_lo_hz == self._steady_hi_hz
                and spec.microarch.uncore_coupling != "tied"
                and spec.pstate_switch_time_ns < self.tick_delay_min_ns
                and (uncore_hz is None or socket.uncore.halted
                     or self._clamp_uncore(uncore_hz)
                     == socket.uncore.freq_hz)):
            return socket.landed_lane()
        return None

    def tick_delays(self, jitters: np.ndarray) -> np.ndarray:
        """:meth:`tick_delay` of each jitter draw (exact in int64)."""
        return np.maximum(jitters + self._quantum_ns, 1)

    @property
    def tick_delay_min_ns(self) -> int:
        """The shortest delay one jitter draw can give."""
        return self.tick_delay(self._jitter_args[0])

    def span_commit_ticks(self, times_ns: np.ndarray,
                          jitters: np.ndarray) -> None:
        """Take the draws of the span ticks at ``times_ns``, whose plan
        read the tick jitters ``jitters``: per tick its dither draw
        (grant-only plan) and its jitter draw. The node passes one tick
        at a time when the draws are ledgered, so the ledger sees each
        tick's draws in event order."""
        if self._steady_plan is _GRANT:
            self.limiter.take_dithers(self._dither_batch, len(times_ns))
        if (self._tick_jitters(times_ns) != jitters).any():
            raise SimulationError(
                f"steady span at t={int(times_ns[0])} ns: the tick "
                "jitter draws differ from the plan's read-ahead")

    def span_land(self, now_ns: int, grant_hz: float) -> None:
        """Land a span-carried apply of ``grant_hz`` at ``now_ns``: the
        apply batch its tick would have queued, every active core."""
        targets = self._ctrl_decide_targets
        self.land(now_ns, [(core, grant_hz) for core in self.socket.cores
                           if core.core_id in targets])

    def span_applied(self, grant_hz: float, window: tuple | None,
                     settled: bool) -> None:
        """Leave what a steady span's carried applies leave: the
        decision of the last, which granted ``grant_hz``; the window
        ``(g, load_w)`` of the last tick that re-classified the plan
        after a landing, if any; and no plan unless that tick came after
        the last landing (``settled``)."""
        self.last_decision = self.limiter.grant_at(
            self._steady_point, grant_hz, self._ctrl_decide_targets)
        if window is not None:
            self._steady_lo_hz = self._steady_hi_hz = window[0]
            self._steady_load_w = window[1]
        if not settled:
            self._steady_plan = None

    def span_eet_totals(self, states: np.ndarray) -> np.ndarray:
        """The EET counter totals ``(cycles, stall)`` of each stacked
        state of the node block's aperf and stall-cycle rows, shape
        ``(k, 2, n_cores_total)``, as a ``(k, 2)`` array."""
        return self.socket.counter_totals(slice(None), states)

    def span_eet_replay(self, totals: np.ndarray) -> int:
        """Replay span-absorbed EET polls on their ``(cycles, stall)``
        counter totals, in order, without committing them: the index of
        the first poll that moves the trim (a control key input), or
        ``len(totals)``. Each poll's window and stall fraction are
        :meth:`_eet_sample`'s, computed elementwise with the same IEEE
        operations."""
        d = totals - np.concatenate((
            [(self._eet_last_cycles, self._eet_last_stall)], totals[:-1]))
        d_cycles = d[:, 0]
        if d_cycles.min() > 0:
            fraction = d[:, 1] / d_cycles
        else:
            fraction = np.zeros(len(totals))
            np.divide(d[:, 1], d_cycles, out=fraction, where=d_cycles > 0)
        return self.eet.first_move(np.minimum(fraction, 1.0), self.epb)

    def span_eet_commit(self, totals: np.ndarray) -> None:
        """Commit the first ``len(totals)`` replayed polls. None but the
        last can move the trim, so the window before the last poll is
        restored and the last one runs as an ordinary poll."""
        if len(totals) > 1:
            self._eet_last_cycles, self._eet_last_stall = totals[-2].tolist()
        self._eet_sample(totals[-1].tolist())

    def span_rederive(self, moved: dict) -> tuple:
        """What this PCU's first tick after a phase cohort a steady span
        carries derives: :meth:`_derivation` with the cores of ``moved``
        on their next phase, and the solved point appended, or None for
        a solve-memo miss. A miss is solved by :meth:`span_regrant`, at
        the tick's place in the span's commit, so the limiter makes its
        solves in event order. Targets equal to the cached derivation's
        are its dicts: a span keeps its cohort checks (one per phase)
        with one copy."""
        targets, decide_targets, activity_sum, ufs_target = \
            self._derivation(moved)
        if targets == self._ctrl_targets:
            targets = self._ctrl_targets
        if decide_targets == self._ctrl_decide_targets:
            decide_targets = self._ctrl_decide_targets
        return (targets, decide_targets, activity_sum, ufs_target,
                self.limiter.solve(decide_targets, activity_sum, ufs_target,
                                   cached_only=True))

    def span_regrant(self, rederived: tuple):
        """The decision of a :meth:`span_rederive` tick when the span
        can absorb it, else None: the solved point (solved now on a
        memo miss) is not TDP-bound (no dither draw), every grant is
        within the apply threshold of its core's clock (no apply) and
        the clamped uncore grant is the running uncore clock (no epoch
        bump)."""
        targets, decide_targets, activity_sum, ufs_target, point = rederived
        if point is None:
            point = self.limiter.solve(decide_targets, activity_sum,
                                       ufs_target)
        if point.tdp_bound:
            return None
        decision = self.limiter.grant_at(point, point.core_hz, decide_targets)
        if not self._regrants_running(decision, targets):
            return None
        return self.last_decision if decision == self.last_decision \
            else decision

    def span_rederived(self, key: tuple, rederived: tuple,
                       load_w: float | None, settled: bool) -> None:
        """Leave what a steady span's absorbed derivation ticks left:
        the last one's derivation cached under its control key ``key``
        and its decision, ``rederived`` (:meth:`span_rederive` with the
        decision of :meth:`span_regrant` for the point); the MBVR load
        ``load_w`` the last tick after a derivation classified its
        no-op plan on (None: no such tick); and that plan, unless the
        last derivation came after that tick (``settled`` false)."""
        self._cache_derivation(key, rederived[:4])
        self.last_decision = rederived[4]
        if load_w is not None:
            self._steady_load_w = load_w
        self._steady_plan = _NOOP if settled else None

    def rearm_tick(self, time_ns: int, seq: int) -> None:
        """Queue the tick event at ``time_ns`` under a reserved ``seq``."""
        self.sim.queue.rearm(self.tick_event, time_ns, self._tick, seq)

    def _control(self, now_ns: int) -> None:
        socket = self.socket
        socket.sync_package_state(self.node.any_core_active())

        key = self._control_key()
        if self.fastpath_enabled and key == self._ctrl_key:
            # Steady state: no decision input moved since the derivation.
            self._steady_tick()
        else:
            self._derive(key)

    def _derive(self, key: tuple) -> None:
        """A tick's full derivation of every grant (cached under
        ``key``, the control key observed before this tick)."""
        derivation = self._derivation()
        targets, decide_targets, activity_sum, ufs_target = derivation
        decision = self.limiter.decide(
            targets_hz=decide_targets,
            activity_sum=activity_sum,
            ufs_target_hz=ufs_target,
            rng=self._dither_batch,
        )
        # Cache the derivation under the key observed *before* this tick
        # mutated anything. A grant landing later leaves the node epoch
        # alone (see _finish_apply_batch), so it keeps this cache; an
        # uncore grant that changes the uncore clock bumps the epoch,
        # forcing one more full derivation — conservative and correct.
        self._cache_derivation(key, derivation)
        self._steady_plan = None
        self._apply_decision(decision, targets)

    def _derivation(self, moved: dict | None = None) -> tuple:
        """The pure part of a derivation, before the decide:
        ``(targets, decide_targets, activity_sum, ufs_target)``. With
        ``moved`` (core id -> phase) the cores it names are read on
        those phases instead of their own (a steady span's look-ahead
        past a phase cohort, :meth:`span_rederive`)."""
        socket = self.socket
        active = socket.active_cores()
        n_active = max(len(active), 1)

        # All cores get a grant — parked cores keep a granted p-state so
        # they resume at the requested frequency when woken (PCPS).
        # core_target_hz is pure and every input except (request,
        # avx-cap) is tick-constant, so lockstep fleets resolve one
        # target and share it across cores.
        targets: dict[int, float] = {}
        target_memo: dict[tuple, float] = {}
        for core in socket.cores:
            phase = (moved.get(core.core_id, core._phase) if moved
                     else core._phase)
            avx_capped = (core.avx_license.avx_capped
                          or (phase is not None and phase.active
                              and phase.uses_avx))
            memo_key = (core.requested_hz, avx_capped)
            target = target_memo.get(memo_key)
            if target is None:
                target = target_memo[memo_key] = self.limiter.core_target_hz(
                    requested_hz=core.requested_hz,
                    n_active=n_active,
                    avx_capped=avx_capped,
                    epb=self.epb,
                    turbo_enabled=self.turbo_enabled,
                    eet_trim_hz=self.eet.trim_hz,
                )
            targets[core.core_id] = target

        if self.prochot_cap_hz is not None:
            # Thermal throttle episode: PROCHOT# clamps every core grant
            # regardless of requests, turbo, or budget headroom.
            cap = max(self.prochot_cap_hz, self.spec.min_hz)
            targets = {cid: min(t, cap) for cid, t in targets.items()}

        active_ids = {c.core_id for c in active}
        decide_targets = {cid: t for cid, t in targets.items()
                          if cid in active_ids} or targets
        phases = [moved.get(c.core_id, c._phase) if moved else c._phase
                  for c in active]
        activity_sum = sum(phase.power_activity for phase in phases)
        ufs_target = self._uncore_target(active, phases)
        if ufs_target is not None:
            # Software ratio limits (0x620) clamp the UFS target before
            # the budget split, so TDP headroom freed by a lowered max
            # flows back to the cores — like the hardware knob.
            ufs_target = self._clamp_uncore(ufs_target)
        return targets, decide_targets, activity_sum, ufs_target

    def _cache_derivation(self, key: tuple, derivation: tuple) -> None:
        (self._ctrl_targets, self._ctrl_decide_targets, self._ctrl_activity,
         self._ctrl_ufs) = derivation
        self._ctrl_key = key

    # Grant changes smaller than the TDP-control dither are absorbed by the
    # hardware duty-cycling and not worth a voltage ramp (also keeps the
    # event rate down: steady workloads schedule no apply events at all).
    _APPLY_THRESHOLD_HZ = 15e6

    def _core_applies(self, decision: FrequencyDecision,
                      targets: dict[int, float]) -> list:
        """The ``(core, grant)`` pairs of ``decision`` that need a
        frequency switch (:meth:`_apply_core_freq`): a grant at least
        the apply threshold away from the core's clock, or any grant to
        a core whose earlier one is still in flight. An idle core, which
        the decision grants nothing, is granted its target in
        ``targets``: its request is honored directly (no power at
        stake)."""
        grants = decision.core_targets_hz
        threshold = self._APPLY_THRESHOLD_HZ
        applies = []
        for core in self.socket.cores:
            granted = grants.get(core.core_id)
            if granted is None:
                granted = targets[core.core_id]
            if not (abs(granted - core.freq_hz) < threshold
                    and core.pending_freq_hz is None):
                applies.append((core, granted))
        return applies

    def _regrants_running(self, decision: FrequencyDecision,
                          targets: dict[int, float]) -> bool:
        """Whether :meth:`_apply_decision` would move no clock: it
        needs no core switch (:meth:`_core_applies`) and the clamped
        uncore grant is the running uncore clock."""
        if self._core_applies(decision, targets):
            return False
        uncore = self.socket.uncore
        return (decision.uncore_hz is None or uncore.halted
                or self._clamp_uncore(decision.uncore_hz) == uncore.freq_hz)

    def _apply_decision(self, decision: FrequencyDecision,
                        targets: dict[int, float]) -> None:
        socket = self.socket
        self.last_decision = decision
        for core, granted in self._core_applies(decision, targets):
            self._apply_core_freq(core, granted)

        if decision.uncore_hz is not None and not socket.uncore.halted:
            # Clamp again on apply: a TDP-bound shrink may have pushed
            # the grant below the software minimum (both control paths
            # share this, keeping fast/slow bit-identical).
            uncore_hz = self._clamp_uncore(decision.uncore_hz)
            if abs(uncore_hz - socket.uncore.freq_hz) > 1e6:
                self.sim.trace.emit(
                    self.sim.now_ns, f"pcu{socket.socket_id}",
                    "uncore-apply", from_hz=socket.uncore.freq_hz,
                    to_hz=uncore_hz, tdp_bound=decision.tdp_bound)
            socket.uncore.set_frequency(uncore_hz)
        self._select_power_state()

    def _select_power_state(self) -> None:
        socket = self.socket
        breakdown = socket.last_breakdown
        estimated_w = breakdown.package_w if breakdown is not None \
            else socket.evaluate_power().package_w
        self.node.mbvr.select_power_state(estimated_w)

    def _apply_core_freq(self, core, granted_hz: float) -> None:
        """Schedule the voltage-ramped frequency switch (Fig. 4)."""
        prev_t = self._pending_apply.pop(core.core_id, None)
        if prev_t is not None:
            self._drop_from_apply_batch(prev_t, core.core_id)
        core.pending_freq_hz = granted_hz
        t = self.sim.now_ns + self.spec.pstate_switch_time_ns
        entry = self._apply_batches.get(t)
        if entry is None:
            event = self.sim.schedule_at(
                t, self._finish_apply_batch,
                label=f"freq-apply-s{self.socket.socket_id}")
            entry = (event, {})
            self._apply_batches[t] = entry
        entry[1][core.core_id] = (core, granted_hz)
        self._pending_apply[core.core_id] = t

    def _drop_from_apply_batch(self, t: int, core_id: int) -> None:
        entry = self._apply_batches.get(t)
        if entry is None:
            return
        event, batch = entry
        batch.pop(core_id, None)
        if not batch:
            # An empty batch must not fire: a spurious event would split
            # an integration segment and perturb the accumulation order.
            event.cancel()
            del self._apply_batches[t]

    def _finish_apply_batch(self, now_ns: int) -> None:
        entry = self._apply_batches.pop(now_ns, None)
        if entry is None:
            return
        # A landed grant refreshes the socket's rates (socket epoch) but,
        # outside tied coupling, no decision input (node epoch): the
        # cached derivation stays valid. The steady plan is dropped, so
        # the next tick classifies it against the new clocks (a kept
        # replay plan would otherwise replay in full until the next
        # derivation).
        self._steady_plan = None
        self.land(now_ns, entry[1].values())

    def land(self, now_ns: int, grants) -> None:
        """Move each core of ``grants``, ``(core, f_hz)`` pairs, to its
        granted clock at ``now_ns`` (an apply batch landing)."""
        trace = self.sim.trace
        record = trace.wants("freq-apply")
        source = f"pcu{self.socket.socket_id}" if record else ""
        pending = self._pending_apply
        for core, f_hz in grants:
            previous = core.freq_hz
            core.apply_frequency(f_hz)
            pending.pop(core.core_id, None)
            if record:
                trace.emit(now_ns, source, "freq-apply",
                           core_id=core.core_id, from_hz=previous,
                           to_hz=f_hz)

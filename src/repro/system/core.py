"""One processor core: frequency domain, c-state, workload binding.

A core's *granted* frequency only changes when the PCU applies it (at a
grant opportunity plus the voltage-ramp switching time on Haswell — see
Fig. 4); the ``requested`` p-state is what software asked for via the
cpufreq-like interface. ``None`` requests the hardware-managed maximum
(turbo), mirroring the ondemand/turbo setting of the paper's tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cstates.states import CState
from repro.errors import ConfigurationError, SimulationError
from repro.power.fivr import Fivr
from repro.specs.cpu import CpuSpec
from repro.system.counters import CoreCounters
from repro.workloads.base import Workload, WorkloadPhase


class AvxLicense(enum.Enum):
    """AVX voltage-license state machine (Section II-F)."""

    NORMAL = "normal"          # non-AVX operating mode
    REQUESTING = "requesting"  # waiting for the PCU voltage bump; throttled
    LICENSED = "licensed"      # full AVX throughput at AVX-capped frequency
    RELAXING = "relaxing"      # AVX done; 1 ms until return to normal mode

    @property
    def avx_capped(self) -> bool:
        return self in (AvxLicense.REQUESTING, AvxLicense.LICENSED,
                        AvxLicense.RELAXING)


# Execution-throughput factor while the core waits for the voltage bump
# ("slows the execution of AVX instructions" until the PCU acknowledges).
AVX_REQUEST_THROTTLE = 0.75

# Fields whose mutation can change the socket's segment rates or the
# PCU's grant decision; writing a *different* value to one of them bumps
# the socket epoch and its node parent (see repro.engine.epoch). The one
# exception is a grant the PCU applies (apply_frequency): ``freq_hz`` is
# a rate input but, outside tied uncore coupling, no decision input, so
# it bumps the socket cell only.
_EPOCH_FIELDS = frozenset({
    "freq_hz", "requested_hz", "cstate", "avx_license", "workload", "_phase",
})
_UNSET = object()

# Fallback chain for disabled idle states (cpuidle demotion order).
_SHALLOWER = {CState.C6: CState.C3, CState.C3: CState.C1}

# Hot-path locals: advance_phase touches these on every phase flip, and
# the module-global load is measurably cheaper than the two-level
# class-attribute lookup at that call rate.
_C0 = CState.C0
_C6 = CState.C6


@dataclass
class Core:
    """Mutable state of one core."""

    spec: CpuSpec
    core_id: int               # global (node-wide) id
    socket_id: int
    fivr: Fivr
    freq_hz: float = 0.0       # granted; set in __post_init__
    requested_hz: float | None = None    # None = turbo/hardware-managed
    cstate: CState = CState.C6
    counters: CoreCounters = field(default_factory=CoreCounters)
    workload: Workload | None = None
    phase_index: int = 0
    avx_license: AvxLicense = AvxLicense.NORMAL
    avx_relax_deadline_ns: int | None = None
    pending_freq_hz: float | None = None
    # cpuidle-style disable knobs (hostif sysfs ``state*/disable``): a
    # disabled state demotes idle entries to the next shallower enabled
    # state. C1 is always available, like a Linux cpuidle fallback.
    disabled_cstates: set[CState] = field(default_factory=set)
    # the idle state last asked for, before any disable demotion
    requested_idle_cstate: CState | None = None
    # cached current phase — hot path; refreshed on bind/advance
    _phase: "WorkloadPhase | None" = None
    # cached hardware-thread count — workload only changes via
    # bind_workload, so min(threads_per_core, smt) is resolved there
    _nthr: int = 0
    # phase-sequence cache (see bind_workload)
    _wl_phases: "tuple[WorkloadPhase, ...] | None" = None
    _wl_cyclic: bool = False
    # per-index successor table: phase_index -> (next_index, next_phase)
    _wl_next: "list[tuple[int, WorkloadPhase]] | None" = None

    # Set by the owning Socket after adoption; None while free-standing.
    _epoch_cell = None
    # Whether a landed grant is a decision input, i.e. whether
    # apply_frequency bumps the node epoch as well as the socket's. The
    # owning PCU clears it unless the uncore is tied to the core clocks.
    _grant_is_input = True
    # Shared one-element list holding the node-wide count of cores in C0;
    # installed by Node.__post_init__. Every c-state transition keeps it
    # exact, so Node.any_core_active is an O(1) read instead of a scan.
    _active_counter = None
    # Conformance-trace probe: called as hook(old_cstate, new_cstate) on
    # every c-state change. None (the default) keeps the hot path free of
    # any tracing cost; repro.conformance installs one per core when the
    # active recorder wants "cstate-switch" events.
    _cstate_hook = None

    def __setattr__(self, name: str, value) -> None:
        if name in _EPOCH_FIELDS:
            cell = self._epoch_cell
            if cell is not None:
                old = getattr(self, name, _UNSET)
                # Identity first: enums and interned phase objects settle
                # here without a value comparison. `_phase`/`workload`
                # swaps bump on any identity change — a conservative
                # over-bump for equal-valued distinct objects, bought to
                # skip the 13-field dataclass compare on every advance.
                if old is not value and (name in ("_phase", "workload")
                                         or old != value):
                    if name == "cstate":
                        if self._cstate_hook is not None:
                            self._cstate_hook(self.cstate, value)
                        cnt = self._active_counter
                        if cnt is not None:
                            # old != value here, so exactly one of the
                            # two endpoints can be C0.
                            if value is CState.C0:
                                cnt[0] += 1
                            elif old is CState.C0:
                                cnt[0] -= 1
                    object.__setattr__(self, name, value)
                    cell.bump()
                    return
                return object.__setattr__(self, name, value)
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        if self.freq_hz == 0.0:
            self.freq_hz = self.spec.nominal_hz
        self.fivr.set_frequency(self.freq_hz)
        if self.cstate is CState.C6:
            self.fivr.gate_off()       # cores boot parked, power-gated

    # ---- workload ------------------------------------------------------------

    def bind_workload(self, workload: Workload | None) -> None:
        self.workload = workload
        self.phase_index = 0
        self._phase = None if workload is None else workload.phase(0)
        self._nthr = 0 if workload is None \
            else min(workload.threads_per_core, self.spec.smt)
        # Phase-sequence cache for advance_phase: the tuple and the
        # cyclic flag are immutable per workload, so the hot path skips
        # the next_index/phase method pair. _wl_next resolves the whole
        # successor computation (wrap/clamp included) to one list index.
        self._wl_phases = None if workload is None else workload.phases
        self._wl_cyclic = False if workload is None else workload.cyclic
        if workload is None:
            self._wl_next = None
        else:
            phases = workload.phases
            last = len(phases) - 1
            self._wl_next = [
                ((i + 1, phases[i + 1]) if i < last
                 else ((0, phases[0]) if workload.cyclic
                       else (last, phases[last])))
                for i in range(len(phases))]
        self._sync_cstate()

    def advance_phase(self, bump: bool = True) -> WorkloadPhase | None:
        """Move to the next phase; returns it (None if no workload).

        Hot path: writes fields with ``object.__setattr__`` and bumps
        the epoch cell once itself, instead of paying the
        ``__setattr__`` dispatch per field. Observable state after the
        call is identical to routing each write through the intercept
        (the cell is a dirty counter — one bump invalidates the same
        caches two would).

        ``bump=False`` defers the epoch bump to the caller: a cohort
        loop advancing many cores of one socket in one event callback
        bumps the socket cell once after the loop instead of once per
        core. Nothing reads the cells until the callback returns, so
        the deferred bump invalidates exactly the same segments.
        """
        nxt = self._wl_next
        if nxt is None:
            return None
        osa = object.__setattr__
        # Workload.next_index/phase, resolved by the successor table.
        idx, new = nxt[self.phase_index]
        osa(self, "phase_index", idx)
        bumped = False
        if new is not self._phase:
            # repro-lint: disable=epoch-bypass — bumped below or by the cohort loop
            osa(self, "_phase", new)
            bumped = True
        fivr = self.fivr
        if new.active:
            if self.cstate is not _C0:
                if self._cstate_hook is not None:
                    self._cstate_hook(self.cstate, _C0)
                cnt = self._active_counter
                if cnt is not None:
                    cnt[0] += 1
                # repro-lint: disable=epoch-bypass — bumped below or by the cohort loop
                osa(self, "cstate", _C0)
                bumped = True
            if bumped and bump:
                cell = self._epoch_cell
                if cell is not None:
                    cell.bump()
            if not fivr.enabled:
                fivr.gate_on()
            return new
        # Idle transition. The fast lane covers the common case (no
        # disabled states, a plain idle target): write the resting state
        # directly and fold its epoch bump into the phase bump. Anything
        # unusual falls back to the general enter_cstate path.
        state = new._idle_state
        if state is not _C0 and not self.disabled_cstates:
            osa(self, "requested_idle_cstate", state)
            if self.cstate is not state:
                if self._cstate_hook is not None:
                    self._cstate_hook(self.cstate, state)
                if self.cstate is _C0:
                    cnt = self._active_counter
                    if cnt is not None:
                        cnt[0] -= 1
                # repro-lint: disable=epoch-bypass — bumped below or by the cohort loop
                osa(self, "cstate", state)
                bumped = True
            if bumped and bump:
                cell = self._epoch_cell
                if cell is not None:
                    cell.bump()
            if state is _C6:
                if fivr.enabled:
                    fivr.gate_off()
            elif not fivr.enabled:
                fivr.gate_on()
            return new
        if bumped:
            cell = self._epoch_cell
            if cell is not None:
                cell.bump()
        self.enter_cstate(state)
        return new

    def successor(self, index: int) -> tuple[int, WorkloadPhase]:
        """The phase index and phase :meth:`advance_phase` moves to from
        phase ``index`` of the bound workload."""
        return self._wl_next[index]

    def skip_phases(self, index: int, phase: WorkloadPhase) -> None:
        """Move to phase ``index`` (``phase``) of the bound workload at
        once: the state a run of :meth:`advance_phase` ``(False)`` calls
        through active phases leaves (a steady span's carried phase
        cohorts, which bump the epoch themselves)."""
        osa = object.__setattr__
        osa(self, "phase_index", index)
        # repro-lint: disable=epoch-bypass — the span bumps the socket per carried cohort
        osa(self, "_phase", phase)

    @property
    def current_phase(self) -> WorkloadPhase | None:
        return self._phase

    @property
    def n_threads(self) -> int:
        return self._nthr

    def _sync_cstate(self) -> None:
        phase = self.current_phase
        if phase is None or not phase.active:
            target = phase.idle_cstate if phase is not None else "C6"
            self.enter_cstate(CState.from_name(target))
        else:
            self.cstate = CState.C0
            self.fivr.gate_on()

    # ---- c-states ----------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.cstate is CState.C0

    def enter_cstate(self, state: CState) -> None:
        if state is CState.C0:
            raise ConfigurationError("use wake() to return to C0")
        phase = self.current_phase
        if phase is not None and phase.active:
            raise SimulationError(
                f"core {self.core_id} has active work; cannot idle")
        self.requested_idle_cstate = state
        effective = self._effective_idle_state(state)
        self.cstate = effective
        if effective is CState.C6:
            self.fivr.gate_off()
        else:
            # A demotion away from C6 must keep the domain powered.
            self.fivr.gate_on()

    def _effective_idle_state(self, state: CState) -> CState:
        """Demote through disabled states: C6 -> C3 -> C1."""
        effective = state
        while effective in self.disabled_cstates and effective is not CState.C1:
            effective = _SHALLOWER[effective]
        return effective

    def set_cstate_disabled(self, state: CState, disabled: bool) -> None:
        """The cpuidle ``disable`` knob for one state of this core."""
        if state in (CState.C0, CState.C1):
            raise ConfigurationError(
                f"{state.name} cannot be disabled ({state.name} is the "
                "idle fallback)")
        if disabled:
            self.disabled_cstates.add(state)
        else:
            self.disabled_cstates.discard(state)
        if not self.is_active:
            # Re-resolve the resting state immediately, like the cpuidle
            # governor would at the next idle entry.
            self.enter_cstate(self.requested_idle_cstate or self.cstate)

    def wake(self) -> None:
        self.cstate = CState.C0
        self.requested_idle_cstate = None
        self.fivr.gate_on()

    # ---- frequency ------------------------------------------------------------------

    def request_pstate(self, f_hz: float | None) -> None:
        """The cpufreq-like request interface (None = turbo)."""
        if f_hz is not None:
            f_hz = self.spec.validate_pstate(f_hz)
        self.requested_hz = f_hz

    def apply_frequency(self, f_hz: float) -> None:
        """PCU applies a granted frequency (after the switching time).

        Hot path: writes bypass the ``__setattr__`` dispatch; ``freq_hz``
        bumps the epoch cell directly when the value changes. Unless
        ``_grant_is_input`` is set, only the socket cell moves: the
        landing changes the socket's rates but no node-wide decision
        input (see :mod:`repro.engine.epoch`).
        """
        if f_hz <= 0:
            raise SimulationError("granted frequency must be positive")
        osa = object.__setattr__
        if f_hz != self.freq_hz:
            # repro-lint: disable=epoch-bypass — the cell is bumped right after the write
            osa(self, "freq_hz", f_hz)
            cell = self._epoch_cell
            if cell is not None:
                if self._grant_is_input:
                    cell.bump()
                else:
                    cell.bump_local()
        osa(self, "pending_freq_hz", None)
        self.fivr.set_frequency(f_hz)

    # ---- integration helper -------------------------------------------------------------

    def execution_throttle(self) -> float:
        """IPC multiplier from the AVX license state."""
        if self.avx_license is AvxLicense.REQUESTING:
            return AVX_REQUEST_THROTTLE
        return 1.0

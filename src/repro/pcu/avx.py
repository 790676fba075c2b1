"""The AVX frequency-license state machine (Section II-F).

Workflow modeled after the paper's description:

1. a core starts executing 256-bit AVX: it signals the PCU for more
   voltage and *slows AVX execution* meanwhile (state ``REQUESTING``,
   throughput throttled);
2. the PCU acknowledges after a short electrical delay — the core runs
   at full throughput but is now capped by the AVX turbo bins
   (``LICENSED``);
3. 1 ms after the last AVX instruction the PCU returns the core to
   non-AVX operating mode (``RELAXING`` -> ``NORMAL``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.simulator import Simulator
from repro.system.core import AvxLicense, Core
from repro.units import us


# Electrical voltage-bump acknowledgement delay.
GRANT_DELAY_NS = us(20)

_osa = object.__setattr__

# Module-level aliases: on_phase_change runs on every workload phase
# flip, where the class-attribute enum lookups are measurable.
_NORMAL = AvxLicense.NORMAL
_REQUESTING = AvxLicense.REQUESTING
_LICENSED = AvxLicense.LICENSED
_RELAXING = AvxLicense.RELAXING


def _set_license(core: Core, value: AvxLicense) -> None:
    """Write ``avx_license`` without the ``Core.__setattr__`` dispatch.

    Every call site transitions between two *different* license states,
    so the one epoch bump the intercept would have issued is issued here
    unconditionally — same observable effect, no field-name lookup.
    """
    # repro-lint: disable=epoch-bypass — the unconditional bump follows
    _osa(core, "avx_license", value)
    cell = core._epoch_cell
    if cell is not None:
        cell.bump()


@dataclass
class AvxUnit:
    """Per-socket manager of the per-core AVX license machines.

    Grant acknowledgements and relax expiries landing on the same
    nanosecond share one heap event per (deadline, kind) cohort; cores
    inside a cohort are processed in insertion order, which matches the
    scheduling order their individual events would have had.
    """

    sim: Simulator
    relax_delay_ns: int
    # (deadline, kind) -> (Event, {core id -> Core}); insertion-ordered
    _cohorts: dict[tuple[int, str], tuple[object, dict]] = \
        field(default_factory=dict)
    _pending: dict[int, tuple[int, str]] = field(default_factory=dict)

    def on_phase_change(self, core: Core, bump: bool = True) -> None:
        """Drive the license machine when a core's workload phase flips.

        ``bump=False`` writes the license without an epoch bump — for
        callers (the phase-cohort loop) that bump the socket cell once
        after processing every core of the callback.
        """
        phase = core._phase
        lic = core.avx_license
        if phase is not None and phase._avx_active:
            if lic is _LICENSED or lic is _REQUESTING:
                # Steady AVX: licensed with nothing pending to cancel,
                # or still waiting on a grant that must stay queued.
                return
            self._cancel(core)
            if lic is _NORMAL:
                if bump:
                    _set_license(core, _REQUESTING)
                else:
                    # repro-lint: disable=epoch-bypass — the cohort loop bumps the socket (bump=False)
                    _osa(core, "avx_license", _REQUESTING)
                self._enqueue(core, GRANT_DELAY_NS, "grant")
            elif lic is _RELAXING:
                # AVX resumed before the relax window expired.
                if bump:
                    _set_license(core, _LICENSED)
                else:
                    # repro-lint: disable=epoch-bypass — the cohort loop bumps the socket (bump=False)
                    _osa(core, "avx_license", _LICENSED)
        else:
            if lic is _LICENSED or lic is _REQUESTING:
                self._cancel(core)
                if bump:
                    _set_license(core, _RELAXING)
                else:
                    # repro-lint: disable=epoch-bypass — the cohort loop bumps the socket (bump=False)
                    _osa(core, "avx_license", _RELAXING)
                self._enqueue(core, self.relax_delay_ns, "relax")

    def _enqueue(self, core: Core, delay_ns: int, kind: str) -> None:
        t = self.sim.now_ns + delay_ns
        key = (t, kind)
        entry = self._cohorts.get(key)
        if entry is None:
            fire = self._fire_grants if kind == "grant" else self._fire_relaxes
            event = self.sim.schedule_at(t, fire, label=f"avx-{kind}")
            entry = (event, {})
            self._cohorts[key] = entry
        entry[1][core.core_id] = core
        self._pending[core.core_id] = key

    def _fire_grants(self, now_ns: int) -> None:
        entry = self._cohorts.pop((now_ns, "grant"), None)
        if entry is None:
            return
        pending = self._pending
        # All cores of this unit share one socket cell: write the
        # licenses plainly, bump once for the whole cohort.
        cell = None
        for core in entry[1].values():
            if core.avx_license is _REQUESTING:
                # repro-lint: disable=epoch-bypass — the cohort's one bump follows the loop
                _osa(core, "avx_license", _LICENSED)
                cell = core._epoch_cell
            pending.pop(core.core_id, None)
        if cell is not None:
            cell.bump()

    def _fire_relaxes(self, now_ns: int) -> None:
        entry = self._cohorts.pop((now_ns, "relax"), None)
        if entry is None:
            return
        pending = self._pending
        cell = None
        for core in entry[1].values():
            if core.avx_license is _RELAXING:
                # repro-lint: disable=epoch-bypass — the cohort's one bump follows the loop
                _osa(core, "avx_license", _NORMAL)
                cell = core._epoch_cell
            pending.pop(core.core_id, None)
        if cell is not None:
            cell.bump()

    def _cancel(self, core: Core) -> None:
        key = self._pending.pop(core.core_id, None)
        if key is None:
            return
        entry = self._cohorts.get(key)
        if entry is None:
            return
        event, cohort = entry
        cohort.pop(core.core_id, None)
        if not cohort:
            # An empty cohort must not fire: a spurious heap event would
            # split an integration segment and perturb float accumulation.
            event.cancel()
            del self._cohorts[key]

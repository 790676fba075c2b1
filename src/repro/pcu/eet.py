"""Energy-efficient turbo (Section II-E).

EET monitors stall cycles — but only polls sporadically (the patent
lists a 1 ms period) — and, together with the EPB, trims turbo/upper
frequencies whose performance return is predicted to be poor. The
sporadic polling is why workloads that flip their characteristics at an
unfavorable rate can end up mis-clocked (reproduced by the EET ablation
benchmark with :mod:`repro.workloads.composite`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pcu.epb import Epb
from repro.units import ghz

# Frequency trimmed per unit of stall fraction, by EPB behaviour.
TRIM_SCALE_HZ: dict[Epb, float] = {
    Epb.PERFORMANCE: 0.0,
    Epb.BALANCED: ghz(0.05),
    Epb.POWERSAVE: ghz(0.2),
}

# Trim deadband: the stall window is a difference of accumulated float
# counters, so a perfectly steady workload still produces last-ULP noise
# (~1e-8 Hz) in the recomputed trim. Changes below this are held at the
# previous value — far below both the PCU's 15 MHz apply threshold and
# the limiter's integer-Hz cache rounding, so grants are unaffected, but
# the steady-state control key stays stable across polls.
TRIM_EPSILON_HZ = 1.0


@dataclass
class EetController:
    """Per-socket EET state; ``poll`` runs on the 1 ms tick."""

    enabled: bool = True
    _trim_hz: float = 0.0

    @property
    def trim_hz(self) -> float:
        """Current frequency trim (applies until the next poll)."""
        return self._trim_hz if self.enabled else 0.0

    def poll(self, stall_fraction: float, epb: Epb) -> float:
        """Sample stall data and recompute the trim.

        Between polls the trim is stale — the sampled stall fraction of a
        phase-switching workload may belong to the *previous* phase.
        """
        if not self.enabled:
            self._trim_hz = 0.0
        else:
            trim = stall_fraction * TRIM_SCALE_HZ[epb]
            if abs(trim - self._trim_hz) >= TRIM_EPSILON_HZ:
                self._trim_hz = trim
        return self._trim_hz

    def first_move(self, fractions: np.ndarray, epb: Epb) -> int:
        """The index of the first of successive polls on ``fractions``
        that would move the trim, or ``len(fractions)`` if none would:
        :meth:`poll`'s test, elementwise. Until a poll moves it, the
        trim every poll compares against is the current one."""
        if not (self.enabled and len(fractions)):
            return len(fractions)
        moved = (np.abs(fractions * TRIM_SCALE_HZ[epb] - self._trim_hz)
                 >= TRIM_EPSILON_HZ)
        first = int(moved.argmax())
        return first if moved[first] else len(fractions)

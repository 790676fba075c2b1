"""Calibrated socket power model.

``P_pkg = static + sum_i a_i * g(f_i) + u * g(f_u)`` with
``g(f) = f_ghz * V(f)^2`` — the classic CMOS dynamic-power law over the
affine V/f curve. Coefficients come from :class:`repro.specs.cpu.PowerCoefficients`
and were calibrated against the paper's measured operating points (see
specs/cpu.py docstring and DESIGN.md).

The same model serves two masters:

* the *ground truth* — what the simulated silicon actually dissipates,
  what the LMG450 sees through the PSU, and what Haswell's measured RAPL
  reports;
* the PCU's TDP solver — real Haswell enforces RAPL limits against its
  own measurement, so PCU and ground truth sharing the model is faithful,
  not a shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.specs.cpu import CpuSpec
from repro.units import to_ghz
from repro.util.roots import brentq


@dataclass(frozen=True)
class SocketPowerBreakdown:
    """Per-component instantaneous power of one socket (watts)."""

    static_w: float
    core_dyn_w: float
    uncore_w: float
    dram_w: float

    @property
    def package_w(self) -> float:
        """RAPL package domain: everything on the die."""
        return self.static_w + self.core_dyn_w + self.uncore_w

    @property
    def total_w(self) -> float:
        """Package + DRAM (the two Haswell-EP RAPL domains)."""
        return self.package_w + self.dram_w


class PowerModel:
    """Power evaluation and TDP-budget solvers for one socket."""

    def __init__(self, spec: CpuSpec, voltage_offset_v: float = 0.0) -> None:
        self.spec = spec
        self.voltage_offset_v = voltage_offset_v
        self._vf_core = spec.vf_core.with_offset(voltage_offset_v)
        self._vf_uncore = spec.vf_uncore.with_offset(voltage_offset_v)

    # ---- primitive terms ----------------------------------------------------

    def _g_core(self, f_hz: float) -> float:
        v = self._vf_core.voltage(f_hz)
        return to_ghz(f_hz) * v * v

    def _g_uncore(self, f_hz: float) -> float:
        v = self._vf_uncore.voltage(f_hz)
        return to_ghz(f_hz) * v * v

    def core_power_w(self, f_hz: float, activity: float) -> float:
        """Dynamic power of one active core.

        Activity is on the FIRESTARTER=1.0 scale; LINPACK's dense FMA
        phases exceed it slightly (see workloads.base.MAX_ACTIVITY).
        """
        if not (0.0 <= activity <= 1.2):
            raise ConfigurationError(f"activity {activity} outside [0, 1.2]")
        return self.spec.power.core_dyn_w_per_ghz_v2 * activity * self._g_core(f_hz)

    def uncore_power_w(self, f_u_hz: float, halted: bool = False) -> float:
        """Uncore (ring, L3, IMC logic) power; zero when clock is halted."""
        if halted:
            return 0.0
        return self.spec.power.uncore_dyn_w_per_ghz_v2 * self._g_uncore(f_u_hz)

    def dram_power_w(self, dram_gbs: float) -> float:
        """DRAM domain power for ``dram_gbs`` GB/s of traffic."""
        return self.spec.power.dram_idle_w + self.spec.power.dram_w_per_gbs * dram_gbs

    # ---- aggregate ------------------------------------------------------------

    def socket_power(
        self,
        core_points: list[tuple[float, float]],   # (f_hz, activity) of C0 cores
        f_uncore_hz: float,
        uncore_halted: bool,
        dram_gbs: float,
    ) -> SocketPowerBreakdown:
        core_dyn = sum(self.core_power_w(f, a) for f, a in core_points)
        return SocketPowerBreakdown(
            static_w=self.spec.power.static_w,
            core_dyn_w=core_dyn,
            uncore_w=self.uncore_power_w(f_uncore_hz, uncore_halted),
            dram_w=self.dram_power_w(dram_gbs),
        )

    # ---- TDP solvers (used by the PCU) ---------------------------------------

    def package_power_at(self, f_core_hz: float, f_uncore_hz: float,
                         activity_sum: float) -> float:
        """Package power with all active cores at a common (f, activity)."""
        return (self.spec.power.static_w
                + self.spec.power.core_dyn_w_per_ghz_v2
                * activity_sum * self._g_core(f_core_hz)
                + self.uncore_power_w(f_uncore_hz))

    def solve_uncore_for_budget(self, f_core_hz: float, activity_sum: float,
                                budget_w: float) -> float:
        """Max uncore frequency such that package power fits in ``budget_w``.

        Returns the spec's uncore minimum if even that exceeds the budget,
        and the maximum if the budget is never reached.
        """
        lo, hi = self.spec.uncore_min_hz, self.spec.uncore_max_hz

        def excess(f_u: float) -> float:
            return self.package_power_at(f_core_hz, f_u, activity_sum) - budget_w

        if excess(lo) >= 0.0:
            return lo
        if excess(hi) <= 0.0:
            return hi
        return brentq(excess, lo, hi, xtol=1e5)

    def solve_core_for_budget(self, activity_sum: float, budget_w: float,
                              uncore_parity: float = 1.01) -> float:
        """Max common core frequency with the uncore held at parity.

        Models the balanced-EPB PCU behaviour observed in Table IV: when
        both domains are constrained, the PCU scales them down together
        along ``f_u = parity * f_c``.
        """
        lo, hi = self.spec.min_hz, self.spec.turbo.max_hz

        def excess(f_c: float) -> float:
            f_u = min(max(f_c * uncore_parity, self.spec.uncore_min_hz),
                      self.spec.uncore_max_hz)
            return self.package_power_at(f_c, f_u, activity_sum) - budget_w

        if excess(lo) >= 0.0:
            return lo
        if excess(hi) <= 0.0:
            return hi
        return brentq(excess, lo, hi, xtol=1e5)

"""Model-specific-register interface.

A thin MSR façade over the simulated hardware, for realism and for tests
that exercise the software-visible paths the paper uses: EPB
(IA32_ENERGY_PERF_BIAS), the RAPL energy-status registers, APERF/MPERF,
and the undocumented UNCORE_RATIO_LIMIT the paper could not use
("neither the actual number of this MSR nor the encoded information is
available" — reading it raises accordingly).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MsrError
from repro.pcu.epb import decode_epb, encode_epb
from repro.power.rapl import RaplDomain, unit_exponent
from repro.system.node import Node


class MSR(enum.IntEnum):
    IA32_TIME_STAMP_COUNTER = 0x10
    IA32_MPERF = 0xE7
    IA32_APERF = 0xE8
    IA32_ENERGY_PERF_BIAS = 0x1B0
    MSR_RAPL_POWER_UNIT = 0x606
    MSR_PKG_POWER_LIMIT = 0x610
    MSR_PKG_ENERGY_STATUS = 0x611
    MSR_DRAM_ENERGY_STATUS = 0x619
    MSR_UNCORE_RATIO_LIMIT = 0x620


# MSR_RAPL_POWER_UNIT power-unit field: 1/2^3 W = 0.125 W per count.
POWER_UNIT_W = 0.125
# PKG_POWER_LIMIT layout (simplified to the PL1 fields): bits 14:0 power
# limit in power units, bit 15 enable.
PL1_MASK = 0x7FFF
PL1_ENABLE = 1 << 15

# Energy-status registers are 32-bit counters that wrap; the raw read must
# never expose more bits even if a fault hook or injector skewed the
# underlying count past the wrap boundary.
_ENERGY_STATUS_MASK = 0xFFFF_FFFF


@dataclass
class MsrSpace:
    """Per-node MSR dispatch. Core-scoped MSRs take ``cpu`` (core id)."""

    node: Node

    def read(self, cpu: int, address: int) -> int:
        # A fault hook may raise TransientMsrError, modeling the
        # transient /dev/cpu/*/msr read failures real harnesses see.
        self.node.sim.fire_fault_hooks("msr-read", cpu=cpu, address=address)
        core = self.node.core(cpu)
        socket = self.node.socket_of(cpu)
        if address == MSR.IA32_TIME_STAMP_COUNTER:
            return int(core.counters.tsc)
        if address == MSR.IA32_MPERF:
            return int(core.counters.mperf)
        if address == MSR.IA32_APERF:
            return int(core.counters.aperf)
        if address == MSR.IA32_ENERGY_PERF_BIAS:
            return encode_epb(self.node.pcus[core.socket_id].epb)
        if address == MSR.MSR_RAPL_POWER_UNIT:
            # SDM layout: energy-status unit in bits 12:8 as 1/2^n J.
            exponent = unit_exponent(socket.spec.rapl_energy_unit_j)
            return exponent << 8
        if address == MSR.MSR_PKG_POWER_LIMIT:
            pcu = self.node.pcus[core.socket_id]
            counts = int(pcu.limiter.budget_w / POWER_UNIT_W) & PL1_MASK
            return counts | PL1_ENABLE
        if address == MSR.MSR_PKG_ENERGY_STATUS:
            return (socket.rapl.read_counter(RaplDomain.PACKAGE)
                    & _ENERGY_STATUS_MASK)
        if address == MSR.MSR_DRAM_ENERGY_STATUS:
            return (socket.rapl.read_counter(RaplDomain.DRAM)
                    & _ENERGY_STATUS_MASK)
        if address == MSR.MSR_UNCORE_RATIO_LIMIT:
            raise MsrError(
                "UNCORE_RATIO_LIMIT: neither the MSR number nor its encoding "
                "is documented (Section II-D); the uncore frequency is set "
                "by hardware")
        raise MsrError(f"unimplemented MSR {address:#x}")

    def write(self, cpu: int, address: int, value: int) -> None:
        core = self.node.core(cpu)
        if address == MSR.IA32_ENERGY_PERF_BIAS:
            self.node.pcus[core.socket_id].epb = decode_epb(value & 0xF)
            return
        if address == MSR.MSR_PKG_POWER_LIMIT:
            # Running-average power limiting: the PL1 budget the PCU
            # enforces (the hardware-enforced power bound of [24]).
            limit_w = (value & PL1_MASK) * POWER_UNIT_W
            if limit_w <= 0:
                raise MsrError("PKG_POWER_LIMIT: zero/negative PL1")
            pcu = self.node.pcus[core.socket_id]
            if value & PL1_ENABLE:
                pcu.limiter.budget_w = limit_w
            else:
                pcu.limiter.budget_w = pcu.spec.tdp_w
            return
        if address == MSR.MSR_UNCORE_RATIO_LIMIT:
            raise MsrError(
                "UNCORE_RATIO_LIMIT: encoding unavailable (Section II-D)")
        raise MsrError(f"MSR {address:#x} is read-only or unimplemented")

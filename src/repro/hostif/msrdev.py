"""A ``/dev/cpu/*/msr``-style device over the simulated node.

Reads decode live subsystem state into register images; writes decode
the register image and drive the same control paths the internal Python
API uses (``Node.set_pstate``, the PCU's EPB/turbo/uncore-limit knobs,
the TDP limiter budget). That write-through equivalence is what the
hostif parity experiment proves bit-identical.

Reads fire the ``msr-read`` fault hook, so chaos-mode transient MSR
faults hit every register read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MsrError
from repro.hostif import msr_regs as regs
from repro.hostif.msr_regs import HostMsr
from repro.pcu.epb import decode_epb, encode_epb
from repro.power.rapl import RaplDomain, unit_exponent
from repro.system.node import Node


@dataclass
class VirtualMsrDev:
    """Register-level read/write access, addressed by cpu (core id)."""

    node: Node

    def read(self, cpu: int, address: int) -> int:
        self.node.sim.fire_fault_hooks("msr-read", cpu=cpu, address=address)
        core = self.node.core(cpu)
        socket = self.node.socket_of(cpu)
        pcu = self.node.pcus[core.socket_id]
        if address == HostMsr.IA32_TIME_STAMP_COUNTER:
            return int(core.counters.tsc)
        if address == HostMsr.IA32_MPERF:
            return int(core.counters.mperf)
        if address == HostMsr.IA32_APERF:
            return int(core.counters.aperf)
        if address == HostMsr.IA32_PERF_STATUS:
            return regs.encode_perf_status(core.freq_hz)
        if address == HostMsr.IA32_PERF_CTL:
            # The last software request; turbo requests read as nominal
            # (the ratio the OS writes to ask for hardware-managed max).
            f_hz = core.requested_hz if core.requested_hz is not None \
                else core.spec.nominal_hz
            return regs.encode_perf_ctl(f_hz)
        if address == HostMsr.IA32_MISC_ENABLE:
            return regs.encode_misc_enable(pcu.turbo_enabled)
        if address == HostMsr.IA32_ENERGY_PERF_BIAS:
            return encode_epb(pcu.epb)
        if address == HostMsr.MSR_RAPL_POWER_UNIT:
            exponent = unit_exponent(socket.spec.rapl_energy_unit_j)
            return regs.encode_rapl_power_unit(exponent)
        if address == HostMsr.MSR_PKG_POWER_LIMIT:
            return regs.encode_power_limit(pcu.limiter.budget_w)
        if address == HostMsr.MSR_PKG_ENERGY_STATUS:
            return (socket.rapl.read_counter(RaplDomain.PACKAGE)
                    & regs.ENERGY_STATUS_MASK)
        if address == HostMsr.MSR_DRAM_ENERGY_STATUS:
            return (socket.rapl.read_counter(RaplDomain.DRAM)
                    & regs.ENERGY_STATUS_MASK)
        if address == HostMsr.MSR_PP0_ENERGY_STATUS:
            if not socket.spec.has_pp0_rapl:
                raise MsrError(
                    "PP0_ENERGY_STATUS: the PP0 domain is not supported on "
                    "Haswell-EP (Section IV)")
            return (socket.rapl.read_counter(RaplDomain.PP0)
                    & regs.ENERGY_STATUS_MASK)
        if address == HostMsr.MSR_UNCORE_RATIO_LIMIT:
            return regs.encode_uncore_ratio_limit(
                pcu.uncore_limit_min_hz, pcu.uncore_limit_max_hz)
        raise MsrError(f"unimplemented MSR {address:#x}")

    def write(self, cpu: int, address: int, value: int) -> None:
        self._write_through(cpu, address, value)
        sim = self.node.sim
        if sim.trace.wants("hostif-write"):
            sim.trace.emit(sim.now_ns, "hostif", "hostif-write",
                           target=f"msr:cpu{cpu}:{address:#x}",
                           value=f"{value:#x}")

    def _write_through(self, cpu: int, address: int, value: int) -> None:
        core = self.node.core(cpu)
        pcu = self.node.pcus[core.socket_id]
        if address == HostMsr.IA32_PERF_CTL:
            self.node.set_pstate([cpu], regs.decode_perf_ctl(value))
            return
        if address == HostMsr.IA32_MISC_ENABLE:
            # Turbo is package-scoped on this part: the write reaches the
            # cpu's socket PCU (pepc writes it on every cpu of a package).
            pcu.turbo_enabled = regs.decode_misc_enable_turbo(value)
            return
        if address == HostMsr.IA32_ENERGY_PERF_BIAS:
            pcu.epb = decode_epb(value & 0xF)
            return
        if address == HostMsr.MSR_PKG_POWER_LIMIT:
            limit_w, enabled = regs.decode_power_limit(value)
            if enabled and limit_w <= 0:
                raise MsrError("PKG_POWER_LIMIT: zero/negative PL1")
            pcu.limiter.budget_w = limit_w if enabled else pcu.spec.tdp_w
            return
        if address == HostMsr.MSR_UNCORE_RATIO_LIMIT:
            min_hz, max_hz = regs.decode_uncore_ratio_limit(value)
            pcu.set_uncore_limits(min_hz, max_hz)
            return
        raise MsrError(f"MSR {address:#x} is read-only or unimplemented")

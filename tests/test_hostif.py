"""Host-interface round-trips: MSR device, sysfs tree, write-through."""

from __future__ import annotations

import pytest

from repro.cpufreq.policy import Governor
from repro.cstates.states import CState
from repro.errors import ConfigurationError, MsrError
from repro.hostif import HostMsr, VirtualHost
from repro.hostif import msr_regs as regs
from repro.pcu.epb import Epb, encode_epb
from repro.power.rapl import RaplDomain, unit_exponent
from repro.system.node import build_haswell_node
from repro.units import ghz, ms
from repro.workloads.firestarter import firestarter
from repro.workloads.micro import busy_wait

SYS = "/sys/devices/system/cpu"


@pytest.fixture
def host():
    sim, node = build_haswell_node(seed=11)
    return VirtualHost(sim, node)


# ---- MSR register file ---------------------------------------------------


class TestMsrDevice:
    def test_perf_ctl_write_through_to_pcu_grant(self, host):
        """Writing IA32_PERF_CTL must reach the PCU like set_pstate."""
        node = host.node
        node.run_workload([0], busy_wait())
        host.msr.write(0, HostMsr.IA32_PERF_CTL, regs.encode_perf_ctl(ghz(1.5)))
        assert node.core(0).requested_hz == ghz(1.5)
        host.sim.run_for(ms(2))       # at least one grant opportunity
        assert node.core(0).freq_hz == ghz(1.5)
        status = host.msr.read(0, HostMsr.IA32_PERF_STATUS)
        assert (status >> 8) & 0xFF == 15

    def test_perf_ctl_reads_nominal_for_turbo_request(self, host):
        value = host.msr.read(0, HostMsr.IA32_PERF_CTL)
        assert (value >> 8) & 0xFF == 25     # 2.5 GHz nominal

    def test_perf_ctl_zero_ratio_rejected(self, host):
        with pytest.raises(MsrError):
            host.msr.write(0, HostMsr.IA32_PERF_CTL, 0)

    def test_misc_enable_turbo_roundtrip(self, host):
        assert regs.decode_misc_enable_turbo(
            host.msr.read(0, HostMsr.IA32_MISC_ENABLE))
        host.msr.write(0, HostMsr.IA32_MISC_ENABLE,
                       regs.encode_misc_enable(turbo_enabled=False))
        assert not host.node.pcus[0].turbo_enabled
        # package-scoped: the write on cpu 0 leaves socket 1 untouched
        assert host.node.pcus[1].turbo_enabled
        assert not regs.decode_misc_enable_turbo(
            host.msr.read(0, HostMsr.IA32_MISC_ENABLE))

    def test_epb_msr_vs_sysfs_parity(self, host):
        """The MSR and the sysfs file are two views of one register."""
        host.msr.write(0, HostMsr.IA32_ENERGY_PERF_BIAS, 0)
        assert host.sysfs.read(f"{SYS}/cpu0/power/energy_perf_bias") == "0"
        host.sysfs.write(f"{SYS}/cpu0/power/energy_perf_bias", "15")
        assert host.msr.read(0, HostMsr.IA32_ENERGY_PERF_BIAS) == 15
        # same package, other cpu: same value (EPB is package-scoped here)
        assert host.msr.read(3, HostMsr.IA32_ENERGY_PERF_BIAS) == 15

    def test_epb_read_write(self, host):
        host.msr.write(0, HostMsr.IA32_ENERGY_PERF_BIAS, 15)
        assert host.node.pcus[0].epb is Epb.POWERSAVE
        assert host.msr.read(0, HostMsr.IA32_ENERGY_PERF_BIAS) == 15
        # package-scoped: the write on cpu 0 leaves socket 1 untouched
        assert host.node.pcus[1].epb is Epb.BALANCED

    def test_energy_status_reads(self, host):
        host.node.run_workload([0], busy_wait())
        host.sim.run_for(ms(10))
        assert host.msr.read(0, HostMsr.MSR_PKG_ENERGY_STATUS) > 0
        assert host.msr.read(0, HostMsr.MSR_DRAM_ENERGY_STATUS) > 0

    def test_aperf_mperf_tsc(self, host):
        host.node.run_workload([0], busy_wait())
        host.sim.run_for(ms(10))
        assert host.msr.read(0, HostMsr.IA32_APERF) > 0
        assert host.msr.read(0, HostMsr.IA32_MPERF) > 0
        assert host.msr.read(0, HostMsr.IA32_TIME_STAMP_COUNTER) > 0

    def test_rapl_power_unit_full_layout(self, host):
        value = host.msr.read(0, HostMsr.MSR_RAPL_POWER_UNIT)
        assert value & 0xF == 3                      # 0.125 W
        assert (value >> 8) & 0x1F == 14             # 61 uJ = 1/2^14 J
        assert (value >> 16) & 0xF == 10             # ~977 us
        assert regs.decode_rapl_energy_unit_j(value) == pytest.approx(
            61e-6, rel=0.01)

    def test_power_limit_roundtrip_and_disable(self, host):
        host.msr.write(0, HostMsr.MSR_PKG_POWER_LIMIT,
                       regs.encode_power_limit(100.0))
        assert host.node.pcus[0].limiter.budget_w == 100.0
        limit_w, enabled = regs.decode_power_limit(
            host.msr.read(0, HostMsr.MSR_PKG_POWER_LIMIT))
        assert (limit_w, enabled) == (100.0, True)
        # clearing the enable bit restores the TDP budget
        host.msr.write(0, HostMsr.MSR_PKG_POWER_LIMIT,
                       regs.encode_power_limit(100.0, enabled=False))
        assert host.node.pcus[0].limiter.budget_w == 120.0

    def test_uncore_ratio_limit_write_clamps_uncore(self, host):
        node = host.node
        host.msr.write(0, HostMsr.MSR_UNCORE_RATIO_LIMIT,
                       regs.encode_uncore_ratio_limit(ghz(1.3), ghz(1.5)))
        assert node.pcus[0].uncore_limit_max_hz == ghz(1.5)
        node.run_workload([c.core_id for c in node.sockets[0].cores],
                          busy_wait())
        host.sim.run_for(ms(3))
        assert ghz(1.3) <= node.sockets[0].uncore.freq_hz <= ghz(1.5)
        # the other socket keeps the full silicon range
        assert node.pcus[1].uncore_limit_max_hz == ghz(3.0)

    def test_uncore_ratio_limit_outside_silicon_range(self, host):
        with pytest.raises(ConfigurationError):
            host.msr.write(0, HostMsr.MSR_UNCORE_RATIO_LIMIT,
                           regs.encode_uncore_ratio_limit(ghz(0.5), ghz(1.5)))

    def test_uncore_ratio_limit_codec(self):
        value = regs.encode_uncore_ratio_limit(ghz(1.3), ghz(2.0))
        assert value == (13 << 8) | 20
        assert regs.decode_uncore_ratio_limit(value) == (ghz(1.3), ghz(2.0))

    def test_pp0_unsupported_on_haswell(self, host):
        with pytest.raises(MsrError, match="PP0"):
            host.msr.read(0, HostMsr.MSR_PP0_ENERGY_STATUS)

    def test_unknown_msr_raises(self, host):
        with pytest.raises(MsrError):
            host.msr.read(0, 0xDEAD)
        with pytest.raises(MsrError):
            host.msr.write(0, HostMsr.IA32_APERF, 1)   # read-only


class TestEnergyCounterWrapParity:
    """Raw energy reads are masked to 32 bits, so the device and the
    RAPL bank agree even when the injector has skewed the counter phase
    past the wrap."""

    def test_reads_agree_after_forced_wrap(self, host):
        node = host.node
        node.run_workload([0], busy_wait())
        host.sim.run_for(ms(5))
        socket = node.sockets[0]
        for domain, address in ((RaplDomain.PACKAGE,
                                 HostMsr.MSR_PKG_ENERGY_STATUS),
                                (RaplDomain.DRAM,
                                 HostMsr.MSR_DRAM_ENERGY_STATUS)):
            socket.rapl.force_wrap(domain, margin_counts=10)
            bank = socket.rapl.read_counter(domain)
            assert bank < 1 << 32
            assert host.msr.read(0, address) == bank

    def test_device_masks_to_32_bits(self, host):
        """Even a skew beyond the wrap boundary never leaks extra bits."""
        socket = host.node.sockets[0]
        socket.rapl._counter_skew[RaplDomain.PACKAGE] = (1 << 33) + 7
        raw = host.msr.read(0, HostMsr.MSR_PKG_ENERGY_STATUS)
        assert 0 <= raw < 1 << 32
        assert raw == socket.rapl.read_counter(RaplDomain.PACKAGE)


def _state_image(node, cpu: int, address: HostMsr) -> int:
    """The register image the node's own state encodes for ``cpu``."""
    core = node.core(cpu)
    socket = node.socket_of(cpu)
    pcu = node.pcus[core.socket_id]
    if address == HostMsr.IA32_TIME_STAMP_COUNTER:
        return int(core.counters.tsc)
    if address == HostMsr.IA32_MPERF:
        return int(core.counters.mperf)
    if address == HostMsr.IA32_APERF:
        return int(core.counters.aperf)
    if address == HostMsr.IA32_ENERGY_PERF_BIAS:
        return encode_epb(pcu.epb)
    if address == HostMsr.MSR_RAPL_POWER_UNIT:
        return regs.encode_rapl_power_unit(
            unit_exponent(socket.spec.rapl_energy_unit_j))
    if address == HostMsr.MSR_PKG_POWER_LIMIT:
        return regs.encode_power_limit(pcu.limiter.budget_w)
    domain = {HostMsr.MSR_PKG_ENERGY_STATUS: RaplDomain.PACKAGE,
              HostMsr.MSR_DRAM_ENERGY_STATUS: RaplDomain.DRAM}[address]
    return socket.rapl.read_counter(domain)


#: Registers that mirror a subsystem's state on every socket.
STATE_MSRS = [HostMsr.IA32_TIME_STAMP_COUNTER, HostMsr.IA32_MPERF,
              HostMsr.IA32_APERF, HostMsr.IA32_ENERGY_PERF_BIAS,
              HostMsr.MSR_RAPL_POWER_UNIT, HostMsr.MSR_PKG_POWER_LIMIT,
              HostMsr.MSR_PKG_ENERGY_STATUS, HostMsr.MSR_DRAM_ENERGY_STATUS]


@pytest.mark.parametrize("address", STATE_MSRS, ids=lambda a: a.name)
def test_msr_views_agree(host, address):
    """The device and the subsystems behind it are two views of one
    register file: every register reads what its socket's counters,
    PCU or RAPL bank hold, and a PL1 write with the enable bit clear
    disables the limit."""
    node = host.node
    node.run_workload([c.core_id for c in node.sockets[0].cores],
                      firestarter())
    host.sim.run_for(ms(5))
    for cpu in (0, 12):
        assert host.msr.read(cpu, address) == _state_image(node, cpu, address)
    if address == HostMsr.MSR_PKG_POWER_LIMIT:
        node.pcus[0].limiter.budget_w = 90.0
        host.msr.write(0, address, 0)    # enable clear, zero limit
        assert host.msr.read(0, address) \
            == regs.encode_power_limit(node.pcus[0].spec.tdp_w)


# ---- sysfs tree ----------------------------------------------------------


class TestSysfs:
    def test_governor_roundtrip(self, host):
        path = f"{SYS}/cpu0/cpufreq/scaling_governor"
        assert host.sysfs.read(path) == "ondemand"
        host.sysfs.write(path, "performance")
        assert host.cpufreq.policy(0).governor is Governor.PERFORMANCE
        with pytest.raises(ConfigurationError):
            host.sysfs.write(path, "warpspeed")

    def test_setspeed_requires_userspace(self, host):
        with pytest.raises(ConfigurationError):
            host.sysfs.write(f"{SYS}/cpu0/cpufreq/scaling_setspeed",
                             "1800000")
        assert host.sysfs.read(
            f"{SYS}/cpu0/cpufreq/scaling_setspeed") == "<unsupported>"

    def test_setspeed_write_through(self, host):
        host.sysfs.write(f"{SYS}/cpu0/cpufreq/scaling_governor", "userspace")
        host.sysfs.write(f"{SYS}/cpu0/cpufreq/scaling_setspeed", "1800000")
        assert host.node.core(0).requested_hz == ghz(1.8)
        assert host.sysfs.read(
            f"{SYS}/cpu0/cpufreq/scaling_setspeed") == "1800000"

    def test_scaling_limits_roundtrip(self, host):
        host.sysfs.write(f"{SYS}/cpu0/cpufreq/scaling_max_freq", "2000000")
        host.sysfs.write(f"{SYS}/cpu0/cpufreq/scaling_min_freq", "1400000")
        assert host.sysfs.read(
            f"{SYS}/cpu0/cpufreq/scaling_min_freq") == "1400000"
        assert host.sysfs.read(
            f"{SYS}/cpu0/cpufreq/scaling_max_freq") == "2000000"
        with pytest.raises(ConfigurationError):
            host.sysfs.write(f"{SYS}/cpu0/cpufreq/scaling_min_freq",
                             "2200000")    # above max

    def test_cpuidle_disable_demotes_and_shifts_residency(self, host):
        """The disable knob must change where idle time accumulates."""
        sim, node = host.sim, host.node
        core = node.core(0)
        sim.run_for(ms(5))
        assert core.cstate is CState.C6
        c6_before = core.counters.cstate_residency_ns[CState.C6]
        assert c6_before > 0
        host.sysfs.write(f"{SYS}/cpu0/cpuidle/state2/disable", "1")
        assert core.cstate is CState.C3          # demoted immediately
        sim.run_for(ms(5))
        assert core.counters.cstate_residency_ns[CState.C6] == c6_before
        assert core.counters.cstate_residency_ns[CState.C3] >= ms(5)
        # re-enable: the core sinks back to the requested C6
        host.sysfs.write(f"{SYS}/cpu0/cpuidle/state2/disable", "0")
        assert core.cstate is CState.C6

    def test_cpuidle_double_disable_falls_to_c1(self, host):
        host.sysfs.write(f"{SYS}/cpu0/cpuidle/state2/disable", "1")
        host.sysfs.write(f"{SYS}/cpu0/cpuidle/state1/disable", "1")
        assert host.node.core(0).cstate is CState.C1

    def test_cpuidle_c1_cannot_be_disabled(self, host):
        with pytest.raises(ConfigurationError):
            host.sysfs.write(f"{SYS}/cpu0/cpuidle/state0/disable", "1")

    def test_cpuidle_metadata(self, host):
        assert host.sysfs.read(f"{SYS}/cpu0/cpuidle/state0/name") == "C1"
        assert host.sysfs.read(f"{SYS}/cpu0/cpuidle/state1/name") == "C3"
        assert host.sysfs.read(f"{SYS}/cpu0/cpuidle/state2/name") == "C6"
        assert host.sysfs.read(f"{SYS}/cpu0/cpuidle/state2/latency") == "133"

    def test_topology_files(self, host):
        assert host.sysfs.read(
            f"{SYS}/cpu13/topology/physical_package_id") == "1"
        assert host.sysfs.read(f"{SYS}/cpu13/topology/core_id") == "1"
        assert host.sysfs.read(f"{SYS}/online") == "0-23"

    def test_uncore_files_write_through(self, host):
        base = f"{SYS}/intel_uncore_frequency/package_1_die_00"
        host.sysfs.write(f"{base}/max_freq_khz", "2000000")
        assert host.node.pcus[1].uncore_limit_max_hz == ghz(2.0)
        assert host.sysfs.read(f"{base}/max_freq_khz") == "2000000"
        assert host.sysfs.read(f"{base}/initial_max_freq_khz") == "3000000"

    def test_errors(self, host):
        with pytest.raises(ConfigurationError, match="no such sysfs file"):
            host.sysfs.read(f"{SYS}/cpu0/cpufreq/nonsense")
        with pytest.raises(ConfigurationError, match="no such cpu"):
            host.sysfs.read(f"{SYS}/cpu99/cpufreq/scaling_governor")
        with pytest.raises(ConfigurationError, match="read-only"):
            host.sysfs.write(f"{SYS}/cpu0/cpufreq/scaling_cur_freq", "1")
        with pytest.raises(ConfigurationError, match="no such cpuidle"):
            host.sysfs.read(f"{SYS}/cpu0/cpuidle/state7/name")


# ---- host bundle ---------------------------------------------------------


class TestVirtualHost:
    def test_construction_schedules_nothing(self):
        sim, node = build_haswell_node(seed=3)
        before = sim.now_ns
        VirtualHost(sim, node)
        sim.run_for(ms(1))
        assert sim.now_ns == before + ms(1)

    def test_cpu_ids(self, host):
        assert host.cpu_ids == list(range(24))

    def test_start_stop(self, host):
        host.start()
        with pytest.raises(ConfigurationError):
            host.cpufreq.start()
        host.stop()


# ---- declarative register layout -----------------------------------------


class TestRegisterLayout:
    """REGISTER_LAYOUT is the single source of truth; repro-lint checks
    it statically, these assertions check the same invariants live."""

    def test_every_served_register_is_declared(self):
        assert set(regs.REGISTER_LAYOUT) == set(HostMsr)

    def test_fields_fit_and_do_not_overlap(self):
        for msr, fields in regs.REGISTER_LAYOUT.items():
            covered = 0
            for field in fields:
                assert field.width >= 1 and field.lo >= 0, (msr, field.name)
                assert field.hi <= 63, (msr, field.name)
                assert not (covered & field.mask), (msr, field.name)
                covered |= field.mask

    def test_energy_status_registers_declare_wrap_field(self):
        for msr, fields in regs.REGISTER_LAYOUT.items():
            if "ENERGY_STATUS" not in msr.name:
                continue
            assert any(f.lo == 0 and f.width == 32 for f in fields), msr

    def test_codec_constants_match_declared_fields(self):
        def field(msr, name):
            return next(f for f in regs.REGISTER_LAYOUT[msr]
                        if f.name == name)

        pl1 = field(HostMsr.MSR_PKG_POWER_LIMIT, "pl1_limit")
        assert regs.PL1_MASK == pl1.value_mask
        assert regs.PL1_ENABLE == \
            field(HostMsr.MSR_PKG_POWER_LIMIT, "pl1_enable").mask
        assert regs.MISC_ENABLE_EIST == \
            field(HostMsr.IA32_MISC_ENABLE, "eist_enable").mask
        assert regs.MISC_ENABLE_TURBO_DISABLE == \
            field(HostMsr.IA32_MISC_ENABLE, "turbo_disable").mask
        assert regs.ENERGY_STATUS_MASK == \
            field(HostMsr.MSR_PKG_ENERGY_STATUS, "energy").value_mask

    def test_codecs_stay_inside_declared_extents(self):
        ctl = regs.REGISTER_LAYOUT[HostMsr.IA32_PERF_CTL][0]
        assert regs.encode_perf_ctl(ghz(2.5)) & ~ctl.mask == 0
        uncore = regs.REGISTER_LAYOUT[HostMsr.MSR_UNCORE_RATIO_LIMIT]
        limit = regs.encode_uncore_ratio_limit(ghz(1.2), ghz(3.0))
        assert limit & ~(uncore[0].mask | uncore[1].mask) == 0
        epb = regs.REGISTER_LAYOUT[HostMsr.IA32_ENERGY_PERF_BIAS][0]
        assert epb.mask == 0xF

"""Core/Socket/Node state machines and the MSR space they expose."""

import pytest

from repro.cstates.states import CState, PackageCState
from repro.errors import ConfigurationError, MsrError, SimulationError
from repro.hostif import HostMsr, VirtualHost
from repro.power.rapl import RaplDomain
from repro.units import ghz, ms
from repro.workloads.micro import busy_wait, idle, while1_spin

from tests.conftest import all_core_ids


class TestCore:
    def test_starts_parked_at_nominal(self, haswell):
        core = haswell.core(0)
        assert core.cstate is CState.C6
        assert core.freq_hz == pytest.approx(ghz(2.5))
        assert not core.is_active

    def test_bind_active_workload_wakes(self, haswell):
        core = haswell.core(0)
        core.bind_workload(busy_wait())
        assert core.is_active
        assert core.n_threads == 1

    def test_bind_idle_workload_parks(self, haswell):
        core = haswell.core(0)
        core.bind_workload(idle())
        assert core.cstate is CState.C6

    def test_cannot_idle_with_active_work(self, haswell):
        core = haswell.core(0)
        core.bind_workload(busy_wait())
        with pytest.raises(SimulationError):
            core.enter_cstate(CState.C6)

    def test_enter_c0_via_wake_only(self, haswell):
        core = haswell.core(0)
        with pytest.raises(ConfigurationError):
            core.enter_cstate(CState.C0)
        core.wake()
        assert core.is_active

    def test_request_validates_pstate(self, haswell):
        core = haswell.core(0)
        core.request_pstate(ghz(1.8))
        assert core.requested_hz == pytest.approx(ghz(1.8))
        with pytest.raises(ConfigurationError):
            core.request_pstate(ghz(0.8))

    def test_c6_gates_fivr(self, haswell):
        core = haswell.core(0)
        assert core.fivr.output_voltage == 0.0   # parked at boot
        core.wake()
        assert core.fivr.output_voltage > 0.0


class TestSocket:
    def test_build_layout(self, haswell):
        s0, s1 = haswell.sockets
        assert [c.core_id for c in s0.cores] == list(range(12))
        assert [c.core_id for c in s1.cores] == list(range(12, 24))
        assert s0.power_model.voltage_offset_v > s1.power_model.voltage_offset_v

    def test_active_core_views(self, sim, haswell):
        haswell.run_workload([0, 1], busy_wait())
        s0 = haswell.sockets[0]
        assert [c.core_id for c in s0.active_cores()] == [0, 1]
        assert not haswell.sockets[1].active_cores()

    def test_package_state_sync(self, haswell):
        s0 = haswell.sockets[0]
        state = s0.sync_package_state(any_active_in_system=False)
        assert state is PackageCState.PC6
        assert s0.uncore.halted
        state = s0.sync_package_state(any_active_in_system=True)
        assert state is PackageCState.PC0
        assert not s0.uncore.halted


class TestNodeIntegration:
    def test_counters_advance_under_load(self, sim, haswell):
        haswell.run_workload([0], busy_wait())
        sim.run_for(ms(50))
        c = haswell.core(0).counters
        assert c.aperf > 0
        assert c.instructions_thread0 > 0
        assert c.tsc == pytest.approx(ghz(2.5) * 0.05, rel=0.01)
        # parked core accumulates TSC but not APERF
        c9 = haswell.core(9).counters
        assert c9.tsc > 0 and c9.aperf == 0

    def test_cstate_residency_tracked(self, sim, haswell):
        sim.run_for(ms(10))
        c = haswell.core(5).counters
        assert c.cstate_residency_ns[CState.C6] == pytest.approx(ms(10))

    def test_rapl_accumulates(self, sim, haswell):
        haswell.run_workload(all_core_ids(haswell), busy_wait())
        sim.run_for(ms(20))
        for s in haswell.sockets:
            assert s.rapl.true_energy_j(RaplDomain.PACKAGE) > 0
            assert s.rapl.true_energy_j(RaplDomain.DRAM) > 0

    def test_ac_energy_positive_even_idle(self, sim, haswell):
        sim.run_for(ms(10))
        assert haswell.ac_energy_j > 0

    def test_phase_advance_machinery(self, sim, haswell):
        from repro.workloads.micro import sinus
        haswell.run_workload([0], sinus(period_ns=ms(16), steps=8))
        assert haswell.core(0).phase_index == 0
        sim.run_for(ms(5))
        assert haswell.core(0).phase_index == 2

    def test_stop_workload_parks_core(self, sim, haswell):
        haswell.run_workload([0], busy_wait())
        sim.run_for(ms(1))
        haswell.stop_workload([0])
        assert haswell.core(0).cstate is CState.C6

    def test_unknown_core_rejected(self, haswell):
        with pytest.raises(ConfigurationError):
            haswell.core(99)

    def test_system_fastest_setting(self, haswell):
        assert haswell.system_fastest_setting() == "no-active-core"
        haswell.run_workload([0], while1_spin())
        haswell.set_pstate([0], ghz(2.0))
        assert haswell.system_fastest_setting() == pytest.approx(ghz(2.0))
        # The fastest explicit request wins across sockets; one turbo
        # request anywhere makes the setting turbo.
        haswell.run_workload([1, 12], busy_wait())
        haswell.core(1).request_pstate(ghz(1.5))
        haswell.core(12).request_pstate(ghz(2.2))
        assert haswell.system_fastest_setting() == pytest.approx(ghz(2.2))
        haswell.core(1).request_pstate(None)
        assert haswell.system_fastest_setting() is None


class TestMsrSpace:
    """The node's model-specific registers, read through the host MSR
    device (the only MSR path)."""

    @pytest.fixture
    def msr(self, sim, haswell):
        return VirtualHost(sim, haswell).msr

    def test_rapl_power_unit_encoding(self, msr):
        raw = msr.read(0, HostMsr.MSR_RAPL_POWER_UNIT)
        assert (raw >> 8) & 0x1F == 14      # 1/2^14 J

    def test_unknown_msr_rejected(self, msr):
        with pytest.raises(MsrError):
            msr.read(0, 0xDEAD)
        with pytest.raises(MsrError):
            msr.write(0, HostMsr.IA32_APERF, 0)

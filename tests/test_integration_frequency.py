"""End-to-end frequency machinery: PCU grants, UFS, TDP, AVX, EET."""

import numpy as np
import pytest

from repro.engine.simulator import Simulator
from repro.pcu.epb import Epb
from repro.pcu.pcu import Pcu
from repro.specs.node import HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE
from repro.system.core import AvxLicense
from repro.system.node import build_node
from repro.units import ghz, ms, seconds, us
from repro.workloads.firestarter import firestarter
from repro.workloads.micro import busy_wait, dgemm, while1_spin

from tests.conftest import all_core_ids


@pytest.fixture
def tick_times(monkeypatch) -> tuple[Simulator, dict[int, list[int]]]:
    """A Haswell node whose PCU ticks are logged per socket.

    The spy wraps the one jitter draw site every tick takes
    (``Pcu._tick_jitters``): one tick time when the tick fires as an
    event, a socket's tick times in tick order when a steady span
    absorbs them. It is installed before the node is built, so even
    the first tick each PCU schedules is recorded.
    """
    times: dict[int, list[int]] = {0: [], 1: []}
    tick_jitters = Pcu._tick_jitters

    def spy(pcu, times_ns):
        times[pcu.socket.socket_id].extend(
            [times_ns] if type(times_ns) is int else times_ns.tolist())
        return tick_jitters(pcu, times_ns)

    monkeypatch.setattr(Pcu, "_tick_jitters", spy)
    sim = Simulator(seed=1234)
    build_node(sim, HASWELL_TEST_NODE)
    return sim, times


class TestPstateGrants:
    def test_request_applied_within_a_quantum(self, sim, haswell):
        haswell.run_workload([0], busy_wait())
        haswell.set_pstate([0], ghz(1.5))
        sim.run_for(ms(2))
        assert haswell.core(0).freq_hz == pytest.approx(ghz(1.5), abs=20e6)

    def test_same_socket_cores_change_together(self, sim, haswell):
        haswell.run_workload([0, 1], busy_wait())
        haswell.set_pstate([0, 1], ghz(1.5))
        sim.run_for(ms(2))
        changes = []
        orig_apply_0 = haswell.core(0).apply_frequency
        orig_apply_1 = haswell.core(1).apply_frequency
        haswell.core(0).apply_frequency = \
            lambda f: (changes.append(("c0", sim.now_ns)), orig_apply_0(f))
        haswell.core(1).apply_frequency = \
            lambda f: (changes.append(("c1", sim.now_ns)), orig_apply_1(f))
        haswell.set_pstate([0, 1], ghz(2.0))
        sim.run_for(ms(2))
        times = {name: t for name, t in changes}
        assert times["c0"] == times["c1"]

    def test_cross_socket_phases_independent(self, tick_times):
        # sockets tick on independent grant grids (Section VI-A: cores on
        # different processors transition independently)
        sim, ticks = tick_times
        sim.run_for(ms(20))
        t0 = np.asarray(ticks[0])
        t1 = np.asarray(ticks[1])
        n = min(len(t0), len(t1))
        offsets = np.abs(t0[:n] - t1[:n])
        assert offsets.min() > us(20)

    def test_pcu_ticks_quantized_at_500us(self, tick_times):
        sim, ticks = tick_times
        sim.run_for(ms(20))
        gaps = np.diff(np.asarray(ticks[0]))
        assert np.abs(gaps - us(500)).max() <= us(10)

    def test_sandybridge_applies_immediately(self):
        sim = Simulator(seed=9)
        node = build_node(sim, SANDY_BRIDGE_TEST_NODE)
        node.run_workload([0], busy_wait())
        node.set_pstate([0], ghz(1.5))
        # only the switching time, no grant-opportunity wait
        sim.run_for(us(30))
        assert node.core(0).freq_hz == pytest.approx(ghz(1.5))


class TestUfsEndToEnd:
    def test_table3_active_and_passive(self, sim, haswell):
        haswell.run_workload([0], while1_spin())
        haswell.set_pstate([0], ghz(2.3))
        sim.run_for(ms(5))
        assert haswell.sockets[0].uncore.freq_hz == pytest.approx(ghz(2.0))
        assert haswell.sockets[1].uncore.freq_hz == pytest.approx(ghz(1.9))

    def test_epb_performance_pins_uncore(self, sim, haswell):
        haswell.set_epb(Epb.PERFORMANCE)
        haswell.run_workload([0], while1_spin())
        haswell.set_pstate([0], ghz(2.5))
        sim.run_for(ms(5))
        assert haswell.sockets[0].uncore.freq_hz == pytest.approx(ghz(3.0))

    def test_uncore_halts_when_system_idle(self, sim, haswell):
        sim.run_for(ms(5))
        assert haswell.sockets[0].uncore.halted
        assert haswell.sockets[1].uncore.halted
        u0 = haswell.sockets[0].uncore.counters.uclk
        sim.run_for(ms(5))
        assert haswell.sockets[0].uncore.counters.uclk == u0

    def test_active_core_blocks_remote_package_sleep(self, sim, haswell):
        # Section V-A: one active core anywhere keeps both uncores running
        haswell.run_workload([0], while1_spin())
        sim.run_for(ms(5))
        assert not haswell.sockets[1].uncore.halted
        assert haswell.sockets[1].uncore.freq_hz >= ghz(1.2)


class TestTdpEndToEnd:
    def test_firestarter_tdp_capped(self, sim, haswell):
        haswell.run_workload(all_core_ids(haswell), firestarter())
        sim.run_for(seconds(2))
        for socket in haswell.sockets:
            assert socket.last_breakdown.package_w <= 120.5
        # turbo request lands near the Table IV equilibrium
        assert haswell.core(12).freq_hz == pytest.approx(ghz(2.31), rel=0.02)

    def test_socket0_sustains_lower_frequency(self, sim, haswell):
        # Section III: processor 0 appears to use lower sustained turbo
        haswell.run_workload(all_core_ids(haswell), firestarter())
        sim.run_for(seconds(2))
        assert haswell.core(0).freq_hz < haswell.core(12).freq_hz

    def test_low_setting_prevents_throttling(self, sim, haswell):
        haswell.run_workload(all_core_ids(haswell), firestarter())
        haswell.set_pstate(None, ghz(2.1))
        sim.run_for(seconds(2))
        # measured frequency equals the set frequency, uncore at 3.0 (V-B)
        assert haswell.core(12).freq_hz == pytest.approx(ghz(2.1), abs=15e6)
        assert haswell.sockets[1].uncore.freq_hz == pytest.approx(ghz(3.0))
        assert haswell.sockets[1].last_breakdown.package_w < 120.0


class TestAvxLicense:
    def test_license_cycle(self, sim, haswell):
        haswell.run_workload([0], dgemm())
        # requesting, throttled, until the PCU voltage ack
        assert haswell.core(0).avx_license is AvxLicense.REQUESTING
        assert haswell.core(0).execution_throttle() < 1.0
        sim.run_for(us(30))
        assert haswell.core(0).avx_license is AvxLicense.LICENSED
        assert haswell.core(0).execution_throttle() == 1.0
        # 1 ms after AVX ends the core returns to normal mode
        haswell.stop_workload([0])
        assert haswell.core(0).avx_license is AvxLicense.RELAXING
        sim.run_for(ms(2))
        assert haswell.core(0).avx_license is AvxLicense.NORMAL

    def test_avx_resume_during_relax_keeps_license(self, sim, haswell):
        haswell.run_workload([0], dgemm())
        sim.run_for(us(30))
        haswell.stop_workload([0])
        haswell.run_workload([0], dgemm())   # resumes within the 1 ms window
        assert haswell.core(0).avx_license is AvxLicense.LICENSED

    def test_avx_turbo_capped_below_non_avx(self, sim, haswell):
        # single active AVX core: cap 3.1 vs non-AVX 3.3 (Section II-F)
        haswell.run_workload([0], dgemm())
        sim.run_for(ms(2))
        avx_freq = haswell.core(0).freq_hz
        haswell.run_workload([0], busy_wait())
        sim.run_for(ms(3))
        scalar_freq = haswell.core(0).freq_hz
        assert avx_freq == pytest.approx(ghz(3.1), abs=20e6)
        assert scalar_freq == pytest.approx(ghz(3.3), abs=20e6)


class TestEetEndToEnd:
    def test_powersave_trims_stally_workload(self):
        from repro.workloads.mprime import mprime
        freqs = {}
        for epb in (Epb.POWERSAVE, Epb.PERFORMANCE):
            sim = Simulator(seed=17)
            node = build_node(sim, HASWELL_TEST_NODE, epb=epb)
            node.run_workload([0], mprime())
            node.set_pstate([0], ghz(2.5))
            sim.run_for(ms(20))
            freqs[epb] = node.core(0).freq_hz
        assert freqs[Epb.POWERSAVE] < freqs[Epb.PERFORMANCE]
        # Table V: ~2.45 GHz with EPB=power at the 2.5 GHz setting
        assert freqs[Epb.POWERSAVE] == pytest.approx(ghz(2.45), abs=30e6)

    def test_eet_disabled_restores_request(self):
        from repro.workloads.mprime import mprime
        sim = Simulator(seed=18)
        node = build_node(sim, HASWELL_TEST_NODE, epb=Epb.POWERSAVE,
                          eet_enabled=False)
        node.run_workload([0], mprime())
        node.set_pstate([0], ghz(2.5))
        sim.run_for(ms(20))
        assert node.core(0).freq_hz == pytest.approx(ghz(2.5), abs=15e6)

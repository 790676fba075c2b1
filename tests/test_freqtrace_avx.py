"""The frequency tracer and the AVX transient experiment."""

import pytest

from repro.errors import MeasurementError
from repro.experiments.avx_transient import run_avx_transient
from repro.instruments.freqtrace import FreqTrace
from repro.pcu.avx import GRANT_DELAY_NS
from repro.system.core import AvxLicense
from repro.units import ghz, ms, us
from repro.workloads.base import Workload, WorkloadPhase
from repro.workloads.micro import busy_wait


class TestFreqTrace:
    def test_records_frequency_changes(self, sim, haswell):
        trace = FreqTrace(sim, haswell, core_ids=[0])
        haswell.run_workload([0], busy_wait())
        haswell.set_pstate([0], ghz(1.2))
        trace.start()
        sim.run_for(ms(2))
        haswell.set_pstate([0], ghz(2.0))
        sim.run_for(ms(2))
        changes = trace.change_times(0)
        assert len(changes) >= 1
        t, f = trace.series(0)
        assert f[-1] == pytest.approx(ghz(2.0), abs=20e6)

    def test_change_quantized_to_grant_grid(self, sim, haswell):
        trace = FreqTrace(sim, haswell, core_ids=[0], period_ns=us(20))
        haswell.run_workload([0], busy_wait())
        haswell.set_pstate([0], ghz(1.2))
        sim.run_for(ms(2))
        trace.start()
        t_req = sim.now_ns
        haswell.set_pstate([0], ghz(1.5))
        sim.run_for(ms(2))
        changes = trace.change_times(0)
        assert len(changes) == 1
        delay = changes[0] - t_req
        assert 0 < delay <= us(540)

    def test_empty_trace_rejected(self, sim, haswell):
        trace = FreqTrace(sim, haswell, core_ids=[0])
        with pytest.raises(MeasurementError):
            trace.series(0)

    def test_double_start_rejected(self, sim, haswell):
        trace = FreqTrace(sim, haswell, core_ids=[0])
        trace.start()
        with pytest.raises(MeasurementError):
            trace.start()


class TestAvxTransient:
    @pytest.fixture(scope="class")
    def result(self):
        return run_avx_transient()

    def test_request_window_brief_and_throttled(self, result):
        assert us(5) <= result.request_window_ns <= us(60)

    def test_relax_is_one_millisecond(self, result):
        assert result.relax_delay_ns == pytest.approx(ms(1), abs=us(60))

    def test_bins_differ_by_avx_license(self, result):
        assert result.scalar_freq_hz > result.avx_freq_hz
        assert result.avx_freq_hz == pytest.approx(ghz(3.1), abs=30e6)

    def test_licensed_interval_covers_the_burst(self, result):
        assert result.licensed_ns == pytest.approx(ms(3), rel=0.1)


class TestAvxLicense:
    def test_grant_survives_avx_to_avx_phase_change(self, sim, haswell):
        """A core still waiting on its grant keeps it across a flip
        into another AVX phase instead of staying throttled."""
        avx = dict(power_activity=0.85, ipc_parity=1.4, avx_fraction=0.9)
        haswell.run_workload([0], Workload(
            name="avx_avx", cyclic=False,
            phases=(WorkloadPhase(name="avx_short", duration_ns=us(10),
                                  **avx),
                    WorkloadPhase(name="avx_long", **avx))))
        core = haswell.core(0)
        assert core.avx_license is AvxLicense.REQUESTING
        sim.run_for(GRANT_DELAY_NS)
        assert core._phase.name == "avx_long"
        assert core.avx_license is AvxLicense.LICENSED
        sim.run_for(ms(50))
        assert core.avx_license is AvxLicense.LICENSED

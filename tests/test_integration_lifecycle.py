"""Node lifecycle edge cases: rebinding, cancellation, toggles."""

import pytest

from repro.cstates.states import CState
from repro.units import ghz, ms
from repro.workloads.micro import busy_wait, compute, sinus
from repro.workloads.zoo import kernel


class TestWorkloadRebinding:
    def test_rebind_replaces_phase_schedule(self, sim, haswell):
        haswell.run_workload([0], sinus(period_ns=ms(8), steps=8))
        sim.run_for(ms(3))
        assert haswell.core(0).phase_index > 0
        haswell.run_workload([0], busy_wait())
        sim.run_for(ms(10))
        # the old sinus phase events must not fire on the new workload
        assert haswell.core(0).workload.name == "busy_wait"
        assert haswell.core(0).phase_index == 0

    def test_stop_cancels_pending_phase_events(self, sim, haswell):
        haswell.run_workload([0], sinus(period_ns=ms(8), steps=8))
        sim.run_for(ms(3))
        haswell.stop_workload([0])
        sim.run_for(ms(20))       # old events would advance phases
        assert haswell.core(0).workload is None
        assert haswell.core(0).cstate is CState.C6

    def test_rapid_rebinding_is_safe(self, sim, haswell):
        for _ in range(10):
            haswell.run_workload([0], busy_wait())
            sim.run_for(ms(1))
            haswell.run_workload([0], compute())
            sim.run_for(ms(1))
            haswell.stop_workload([0])
        sim.run_for(ms(5))
        assert haswell.core(0).workload is None

    def test_noncyclic_workload_stays_on_last_phase(self, sim, haswell):
        from repro.experiments.avx_transient import _scalar_avx_scalar

        haswell.run_workload([0], _scalar_avx_scalar(avx_ms=2.0))
        sim.run_for(ms(20))
        assert haswell.core(0).current_phase.name == "scalar_tail"
        # stays there
        sim.run_for(ms(20))
        assert haswell.core(0).current_phase.name == "scalar_tail"


class TestControlToggles:
    def test_turbo_disable_applies_at_next_tick(self, sim, haswell):
        haswell.run_workload([0], busy_wait())
        sim.run_for(ms(2))
        assert haswell.core(0).freq_hz > ghz(3.0)     # single-core turbo
        haswell.set_turbo(False)
        sim.run_for(ms(2))
        assert haswell.core(0).freq_hz \
            == pytest.approx(ghz(2.5), abs=20e6)
        haswell.set_turbo(True)
        sim.run_for(ms(2))
        assert haswell.core(0).freq_hz > ghz(3.0)

    def test_budget_change_resolves_new_equilibrium(self, sim, haswell):
        from repro.workloads.firestarter import firestarter

        ids = [c.core_id for c in haswell.all_cores]
        haswell.run_workload(ids, firestarter())
        sim.run_for(ms(300))
        f_tdp = haswell.core(12).freq_hz
        haswell.pcus[1].limiter.budget_w = 90.0
        sim.run_for(ms(300))
        f_capped = haswell.core(12).freq_hz
        assert f_capped < f_tdp - 100e6
        assert haswell.sockets[1].last_breakdown.package_w \
            == pytest.approx(90.0, abs=1.5)

    def test_mixed_workloads_per_socket(self, sim, haswell):
        haswell.run_workload([0], kernel("gemm"))
        haswell.run_workload([12], kernel("stream"))
        sim.run_for(ms(20))
        # stream's stalls pin socket 1's uncore at max; gemm's stalls do
        # too (>5 %) — but socket 0 throttles AVX bins for the core
        assert haswell.sockets[1].uncore.freq_hz == pytest.approx(ghz(3.0))
        assert haswell.core(0).freq_hz <= ghz(3.1) + 1e6

    def test_set_pstate_all_cores_default(self, sim, haswell):
        haswell.run_workload([0, 12], busy_wait())
        haswell.set_pstate(None, ghz(1.5))
        sim.run_for(ms(2))
        assert haswell.core(0).freq_hz == pytest.approx(ghz(1.5), abs=20e6)
        assert haswell.core(12).freq_hz == pytest.approx(ghz(1.5), abs=20e6)


class TestSeedRobustness:
    def test_tdp_equilibrium_stable_across_seeds(self):
        from repro.engine.simulator import Simulator
        from repro.specs.node import HASWELL_TEST_NODE
        from repro.system.node import build_node
        from repro.units import seconds
        from repro.workloads.firestarter import firestarter

        freqs = []
        for seed in (1, 99, 4242):
            sim = Simulator(seed=seed)
            node = build_node(sim, HASWELL_TEST_NODE)
            node.run_workload([c.core_id for c in node.all_cores],
                              firestarter())
            sim.run_for(seconds(1))
            freqs.append(node.core(12).freq_hz)
        assert max(freqs) - min(freqs) < 25e6


class TestNodeSummary:
    def test_summary_reports_state(self, sim, haswell):
        from repro.workloads.firestarter import firestarter

        haswell.run_workload([c.core_id for c in haswell.all_cores],
                             firestarter())
        sim.run_for(ms(500))
        text = haswell.summary()
        assert "socket 0: 12/12 cores active" in text
        assert "socket 1: 12/12 cores active" in text
        assert "W pkg" in text
        assert "wall power" in text
        assert "licensed" in text            # FIRESTARTER holds AVX licenses
        # The steady spans explain the run: counts and the commonest ends.
        spans = text.splitlines()[-1]
        assert spans.startswith(f"  spans: {haswell.spans} run, "
                                f"{haswell.span_events} events absorbed, "
                                f"{haswell.span_applies} applies and "
                                f"{haswell.span_cohorts} cohorts carried; "
                                "ends ")
        assert haswell.spans > 0
        end, count = haswell.span_ends.most_common(1)[0]
        assert f"ends {end} {count}" in spans

    def test_summary_idle(self, sim, haswell):
        sim.run_for(ms(5))
        text = haswell.summary()
        assert "0/12 cores active" in text
        assert "halted" in text

"""Property-based tests on the live system: conservation and consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.simulator import Simulator
from repro.power.rapl import RaplDomain
from repro.specs.node import HASWELL_TEST_NODE
from repro.system.node import build_node
from repro.units import ms
from repro.workloads.zoo import kernel, kernel_names

kernel_name = st.sampled_from(kernel_names())
n_cores = st.integers(min_value=1, max_value=24)
pstate = st.sampled_from([None] + [float(p)
                                   for p in HASWELL_TEST_NODE.cpu.pstates_hz])


class TestSystemProperties:
    @given(name=kernel_name, n=n_cores, setting=pstate,
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_energy_counters_consistent(self, name, n, setting, seed):
        """Measured RAPL equals the true accumulators exactly; AC
        energy strictly exceeds the DC it feeds; TSC advances at the
        nominal rate on every core regardless of state."""
        sim = Simulator(seed=seed)
        node = build_node(sim, HASWELL_TEST_NODE)
        core_ids = [c.core_id for c in node.all_cores][:n]
        node.run_workload(core_ids, kernel(name))
        node.set_pstate(core_ids, setting)
        sim.run_for(ms(30))

        dc = 0.0
        for socket in node.sockets:
            rapl = socket.rapl
            assert rapl.true_energy_j(RaplDomain.PACKAGE) \
                == socket.energy_pkg_j
            assert rapl.true_energy_j(RaplDomain.DRAM) \
                == socket.energy_dram_j
            assert socket.energy_pkg_j >= 0.0
            dc += socket.energy_pkg_j + socket.energy_dram_j
        assert node.ac_energy_j > dc

        expected_tsc = HASWELL_TEST_NODE.cpu.nominal_hz * 0.03
        for core in node.all_cores:
            assert core.counters.tsc == pytest.approx(expected_tsc,
                                                      rel=0.01)
            assert core.counters.aperf <= core.counters.tsc * 1.5

    @given(name=kernel_name, n=st.integers(1, 12),
           setting=st.sampled_from([float(p) for p in
                                    HASWELL_TEST_NODE.cpu.pstates_hz]),
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_granted_frequency_never_exceeds_request(self, name, n,
                                                     setting, seed):
        sim = Simulator(seed=seed)
        node = build_node(sim, HASWELL_TEST_NODE)
        core_ids = list(range(n))
        node.run_workload(core_ids, kernel(name))
        node.set_pstate(core_ids, setting)
        sim.run_for(ms(10))
        for cid in core_ids:
            assert node.core(cid).freq_hz <= setting + 20e6

    @given(name=kernel_name, seed=st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_tdp_respected_under_any_kernel(self, name, seed):
        sim = Simulator(seed=seed)
        node = build_node(sim, HASWELL_TEST_NODE)
        node.run_workload([c.core_id for c in node.all_cores], kernel(name))
        sim.run_for(ms(50))
        for socket in node.sockets:
            assert socket.last_breakdown.package_w \
                <= HASWELL_TEST_NODE.cpu.tdp_w + 1.0

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_determinism_across_runs(self, seed):
        def run() -> tuple[float, float]:
            sim = Simulator(seed=seed)
            node = build_node(sim, HASWELL_TEST_NODE)
            node.run_workload([0, 12], kernel("fft"))
            sim.run_for(ms(20))
            return (node.core(0).counters.instructions_thread0,
                    node.ac_energy_j)

        assert run() == run()

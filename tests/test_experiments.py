"""The experiment harnesses (fast parameterizations).

``scripts/run_paper.py`` runs the catalogue sizes and checks their
claims; these tests check that each experiment produces the paper's
qualitative result on a shortened run, and that the renderers produce
the right rows.
"""

import numpy as np
import pytest

from repro.cstates.states import CState
from repro.experiments.ablations import (
    run_acpi_update_ablation,
    run_dram_mode_ablation,
    run_eet_ablation,
    run_pcps_ablation,
    run_quantum_sweep,
)
from repro.experiments.fig1_topology import die_variant_table, render_fig1, run_fig1
from repro.experiments.fig2_rapl_accuracy import render_fig2, run_fig2
from repro.experiments.fig3_pstate_latency import (
    render_fig3,
    run_fig3,
    run_parallel_check,
)
from repro.experiments.table1_microarch import (
    PAPER_DRAM_PEAK_GBS,
    PAPER_FLOPS_PER_CYCLE,
    render_table1,
    run_table1,
)
from repro.experiments.table2_system import render_table2, run_table2
from repro.experiments.table3_uncore import render_table3, run_table3
from repro.experiments.table4_firestarter import render_table4, run_table4
from repro.experiments.table5_max_power import run_table5
from repro.pcu.epb import Epb
from repro.units import ghz, us


class TestTable1:
    def test_derived_rows_match_paper(self):
        result = run_table1()
        for spec in result.specs:
            code = spec.codename
            assert spec.flops_per_cycle_double == PAPER_FLOPS_PER_CYCLE[code]
            assert spec.dram_bandwidth_peak_bytes / 1e9 == pytest.approx(
                PAPER_DRAM_PEAK_GBS[code], abs=0.1)

    def test_render_contains_key_rows(self):
        text = render_table1()
        assert "FLOPS/cycle (double)" in text
        assert "AVX2" in text
        assert "DDR4-2133" in text


class TestFig1:
    def test_summaries(self):
        summaries = run_fig1()
        by_sku = {s.sku_cores: s for s in summaries}
        assert by_sku[12].partition_core_counts == (8, 4)
        assert by_sku[18].partition_core_counts == (8, 10)
        assert by_sku[8].n_queue_pairs == 0
        assert all(s.dram_channels == 2 * s.n_partitions for s in summaries)

    def test_variant_table(self):
        table = die_variant_table()
        assert table[10] == "12-core die"
        assert table[14] == "18-core die"

    def test_render(self):
        assert "12-core die" in render_fig1()


class TestTable2:
    def test_idle_power(self):
        result = run_table2(settle_s=0.5, measure_s=1.0)
        assert result.idle_power_w == pytest.approx(261.5, abs=3.0)

    def test_render_mentions_key_features(self):
        text = render_table2(run_table2(settle_s=0.2, measure_s=0.5))
        for needle in ("E5-2680 v3", "1.2 - 2.5 GHz", "2.1 GHz", "LMG 450"):
            assert needle in text


class TestFig2:
    @pytest.fixture(scope="class")
    def haswell_result(self):
        return run_fig2("haswell", measure_s=0.5, settle_s=0.2,
                        thread_counts=(1, 12, 24))

    def test_haswell_quadratic_fit_tight(self, haswell_result):
        # the paper's headline: R^2 > 0.9998, residuals < 3 W
        assert haswell_result.fit.r_squared > 0.999
        assert haswell_result.fit.residual_max < 3.0

    def test_haswell_fit_coefficients_near_paper(self, haswell_result):
        c0, c1, c2 = haswell_result.fit.coeffs
        assert c2 == pytest.approx(0.0003, abs=0.00015)
        assert c1 == pytest.approx(1.097, abs=0.12)
        assert c0 == pytest.approx(225.7, abs=15.0)

    def test_haswell_covers_wide_power_range(self, haswell_result):
        rapl = [p.rapl_w for p in haswell_result.points]
        assert min(rapl) < 50.0
        assert max(rapl) > 250.0

    def test_sandybridge_workload_bias_visible(self):
        result = run_fig2("sandybridge", measure_s=0.5, settle_s=0.2,
                          thread_counts=(8, 16))
        assert result.fit_kind == "linear"
        residuals = result.residuals_by_workload()
        # the modeled-RAPL branches deviate far beyond the HSW bound
        assert max(residuals.values()) > 5.0

    def test_render(self, haswell_result):
        text = render_fig2(haswell_result)
        assert "quadratic fit" in text
        assert "dgemm" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3(measure_s=1.0,
                          settings=[None, ghz(2.5), ghz(2.0), ghz(1.2)])

    def test_active_uncore_values(self, result):
        values = {r.setting_label: r.active_uncore_hz / 1e9
                  for r in result.rows}
        assert values["Turbo"] == pytest.approx(3.0, abs=0.02)
        assert values["2.5"] == pytest.approx(2.2, abs=0.02)
        assert values["2.0"] == pytest.approx(1.75, abs=0.02)
        assert values["1.2"] == pytest.approx(1.2, abs=0.02)

    def test_passive_follows_one_step_below(self, result):
        for row in result.rows:
            assert row.passive_uncore_hz <= row.active_uncore_hz + 1e6

    def test_render(self, result):
        assert "while(1)" in render_table3(result)

    def test_epb_performance_pins_uncore_at_3_ghz(self):
        # Table III's asterisk: "3.0 GHz if EPB is set to performance"
        result = run_table3(epb=Epb.PERFORMANCE, measure_s=0.5,
                            settings=[None, ghz(2.5)])
        for row in result.rows:
            assert row.active_uncore_hz == pytest.approx(ghz(3.0), abs=25e6)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(n_samples=150)

    def test_random_uniform_21_to_524(self, result):
        lat = result.random.latencies_us
        assert result.random.min_us < 60.0
        assert 480.0 < result.random.max_us < 560.0
        # roughly uniform: each quartile of the range holds 15-35 %
        hist, _ = np.histogram(lat, bins=4, range=(20.0, 540.0))
        assert all(0.13 < h / len(lat) < 0.37 for h in hist)

    def test_instant_majority_near_500(self, result):
        lat = result.instant.latencies_us
        assert np.mean((lat > 450) & (lat < 560)) > 0.8

    def test_400us_delay_near_100(self, result):
        assert result.after_400us.median_us == pytest.approx(100.0, abs=30.0)

    def test_near_500us_delay_bimodal(self, result):
        lat = result.near_500us.latencies_us
        immediate = np.mean(lat < 100.0)
        slow = np.mean(lat > 400.0)
        assert immediate > 0.05
        assert slow > 0.5
        assert immediate + slow > 0.95     # nothing in between

    def test_render(self, result):
        assert "1.2 <-> 1.3 GHz" in render_fig3(result)


class TestFig3Parallel:
    def test_same_socket_simultaneous_cross_socket_not(self):
        same_a, same_b, cross_a, cross_b = run_parallel_check(n_samples=15)
        same_diff = np.abs(same_a - same_b)
        cross_diff = np.abs(cross_a - cross_b)
        # same socket: detected in the same 20 us poll window
        assert np.median(same_diff) <= us(20)
        # different sockets: independent grant grids
        assert np.median(cross_diff) > us(20)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4(n_samples=6,
                          settings=[None, ghz(2.3), ghz(2.2), ghz(2.1)])

    def test_turbo_is_tdp_capped(self, result):
        col = result.column(None)
        for p in (0, 1):
            assert col.core_freq_hz[p] == pytest.approx(ghz(2.31), rel=0.02)
            assert col.pkg_power_w[p] == pytest.approx(120.0, abs=2.0)

    def test_processor_1_faster_than_0(self, result):
        col = result.column(None)
        assert col.core_freq_hz[1] > col.core_freq_hz[0]
        assert col.gips[1] > col.gips[0]

    def test_2_1_setting_unthrottled_uncore_maxed(self, result):
        col = result.column(ghz(2.1))
        assert col.core_freq_hz[1] == pytest.approx(ghz(2.1), abs=15e6)
        assert col.uncore_freq_hz[1] == pytest.approx(ghz(3.0), abs=20e6)
        assert col.pkg_power_w[1] < 120.0

    def test_2_3_setting_beats_turbo_ips(self, result):
        # the paper's ~1 % IPS gain from reducing turbo -> 2.3 GHz
        turbo = result.column(None)
        at_23 = result.column(ghz(2.3))
        gain = at_23.gips[1] / turbo.gips[1]
        assert 1.0 < gain < 1.03

    def test_headroom_exchange_at_2_2(self, result):
        col = result.column(ghz(2.2))
        assert col.uncore_freq_hz[1] > ghz(2.6)

    def test_render(self, result):
        text = render_table4(result)
        assert "Measured GIPS processor 1" in text


class TestTable5Fast:
    def test_linpack_lowest_power_and_frequency(self):
        result = run_table5(measure_s=3.0, window_s=2.0, settle_s=1.0,
                            epbs=(Epb.BALANCED,), settings=(None,))
        cells = {c.workload: c for c in result.cells}
        assert cells["LINPACK"].max_window_power_w \
            < cells["FIRESTARTER"].max_window_power_w - 5.0
        assert cells["LINPACK"].mean_core_freq_hz \
            < cells["FIRESTARTER"].mean_core_freq_hz \
            < cells["mprime"].mean_core_freq_hz


class TestAblations:
    def test_quantum_sweep_scales_latency(self):
        points = run_quantum_sweep(quanta_us=(100.0, 500.0), n_samples=40)
        by_q = {p.quantum_us: p for p in points}
        assert by_q[100.0].median_latency_us < by_q[500.0].median_latency_us
        assert by_q[100.0].max_latency_us < 150.0

    def test_eet_hurts_phase_switchers(self):
        result = run_eet_ablation(measure_s=1.0)
        assert result.slowdown > 0.0

    def test_dram_mode_misconfiguration(self):
        result = run_dram_mode_ablation(measure_s=0.5)
        assert result.overestimate_factor == pytest.approx(61 / 15.3,
                                                           rel=0.02)

    def test_pcps_saves_power(self):
        result = run_pcps_ablation(measure_s=0.5)
        assert result.savings_w > 3.0

    def test_acpi_update_unlocks_deeper_states(self):
        result = run_acpi_update_ablation()
        assert result.shipped_choice is CState.C3
        assert result.updated_choice is CState.C6

"""The paper's experiment catalogue: one ordered table of the 14
``scripts/run_paper.py`` experiments.

Each :class:`Experiment` names its ``run`` and ``render`` functions, the
``run`` keyword arguments at the default and the ``--full`` (paper-length)
size — the seed included — and ``claims``: the paper's quantitative
claims and shape assertions it owns, checked against the results of the
whole suite (Fig. 6's adders read Fig. 5's C3 result). The default sizes
are canonical: the committed ``benchmarks/output/run_paper_*.txt``
artifacts and ``EXPERIMENTS.md`` are what they produce.

Claim rows come in two forms. A value row compares a measurement with the
paper's number under a tolerance. A shape row records an inequality or
ordering as ``float(condition)`` against paper value 1 with zero
tolerance; a condition over several settings or cells is one row on its
worst case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cstates.states import CState
from repro.experiments.fig1_topology import render_fig1, run_fig1
from repro.experiments.fig2_rapl_accuracy import render_fig2, run_fig2
from repro.experiments.fig3_pstate_latency import render_fig3, run_fig3
from repro.experiments.fig4_mechanism import estimate_mechanism, render_fig4
from repro.experiments.fig5_fig6_cstate_latency import (
    render_cstate_figure,
    run_cstate_figure,
)
from repro.experiments.fig7_fig8_bandwidth import (
    render_fig7,
    render_fig8,
    run_fig7,
    run_fig8,
)
from repro.experiments.hostif_parity import (
    render_hostif_parity,
    run_hostif_parity,
)
from repro.experiments.table1_microarch import (
    PAPER_DRAM_PEAK_GBS,
    PAPER_QPI_GBS,
    render_table1,
    run_table1,
)
from repro.experiments.table2_system import render_table2, run_table2
from repro.experiments.table3_uncore import render_table3, run_table3
from repro.experiments.table4_firestarter import render_table4, run_table4
from repro.experiments.table5_max_power import render_table5, run_table5
from repro.faults.runner import Built
from repro.pcu.epb import Epb
from repro.specs.cpu import E5_2680_V3
from repro.units import ghz, ms
from repro.validation.expectations import (
    CheckResult,
    PaperExpectation,
    check,
)


@dataclass(frozen=True)
class Experiment:
    """One paper table or figure: how to run, render and check it."""

    name: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    default: dict[str, Any]          # run() kwargs at the default size
    full: dict[str, Any]             # run() kwargs at the paper's size
    claims: Callable[[dict[str, Any]], list[CheckResult]]


def _row(experiment: str, quantity: str, paper: float, unit: str,
         measured: float, rel: float | None = None,
         abs_: float | None = None) -> CheckResult:
    return check(PaperExpectation(experiment=experiment, quantity=quantity,
                                  paper_value=paper, unit=unit,
                                  rel_tol=rel, abs_tol=abs_),
                 float(measured))


def _holds(experiment: str, quantity: str, condition) -> CheckResult:
    return _row(experiment, quantity, 1, "", float(bool(condition)), abs_=0)


# ---- runs and renders that are not a single run_*/render_* pair -------------

def _run_fig2(seed: int, measure_s: float) -> tuple:
    """(Haswell, Sandy Bridge): Fig. 2b and Fig. 2a."""
    return tuple(run_fig2(arch, seed=seed, measure_s=measure_s)
                 for arch in ("haswell", "sandybridge"))


def _render_fig2(pair: tuple) -> str:
    return "\n\n".join(render_fig2(result) for result in pair)


# ---- claims -------------------------------------------------------------------

def _table1_claims(results: dict) -> list[CheckResult]:
    snb, hsw = results["table1"].specs
    t = "Table I"
    return [
        _row(t, "HSW FLOPS/cycle (double)", 16, "",
             hsw.flops_per_cycle_double, abs_=0),
        _row(t, "SNB FLOPS/cycle (double)", 8, "",
             snb.flops_per_cycle_double, abs_=0),
        _row(t, "HSW peak DRAM bandwidth", 68.2, "GB/s",
             hsw.dram_bandwidth_peak_bytes / 1e9, rel=0.01),
        _row(t, "HSW QPI bandwidth", 38.4, "GB/s",
             hsw.qpi_bandwidth_bytes / 1e9, rel=0.01),
        _holds(t, "HSW peak DRAM bandwidth within 0.1 GB/s of the paper",
               abs(hsw.dram_bandwidth_peak_bytes / 1e9
                   - PAPER_DRAM_PEAK_GBS[hsw.codename]) < 0.1),
        _holds(t, "HSW QPI bandwidth within 0.1 GB/s of the paper",
               abs(hsw.qpi_bandwidth_bytes / 1e9
                   - PAPER_QPI_GBS[hsw.codename]) < 0.1),
        _holds(t, "HSW doubles SNB FLOPS/cycle",
               hsw.flops_per_cycle_double
               == 2 * snb.flops_per_cycle_double),
        _holds(t, "HSW doubles SNB L2 bytes/cycle",
               hsw.l2_bytes_per_cycle == 2 * snb.l2_bytes_per_cycle),
    ]


def _fig1_claims(results: dict) -> list[CheckResult]:
    summaries = results["fig1"]
    by_sku = {s.sku_cores: s for s in summaries}
    f = "Fig. 1"
    return [
        _holds(f, "12-core die partitions 8+4",
               by_sku[12].partition_core_counts == (8, 4)),
        _holds(f, "18-core die partitions 8+10",
               by_sku[18].partition_core_counts == (8, 10)),
        _holds(f, "12-/18-core dies bridged by 2 queue pairs",
               by_sku[12].n_queue_pairs == by_sku[18].n_queue_pairs == 2),
        _holds(f, "8-core die is one partition",
               by_sku[8].n_partitions == 1),
        _holds(f, "4 DRAM channels per partitioned package",
               all(s.dram_channels == 4 or s.n_partitions == 1
                   for s in summaries)),
        _holds(f, "core-L3 hops grow with die size (8 < 12 < 18)",
               by_sku[8].avg_core_l3_hops < by_sku[12].avg_core_l3_hops
               < by_sku[18].avg_core_l3_hops),
    ]


def _table2_claims(results: dict) -> list[CheckResult]:
    return [_row("Table II", "idle node power (fans max)", 261.5, "W",
                 results["table2"].idle_power_w, abs_=3.0)]


def _fig2_claims(results: dict) -> list[CheckResult]:
    hsw, snb = results["fig2"]
    c0, c1, c2 = hsw.fit.coeffs
    snb_bias = max(snb.residuals_by_workload().values())
    half = max(p.n_threads for p in snb.points) // 2
    signed = {p.workload: p.ac_w - float(snb.fit.predict(p.rapl_w))
              for p in snb.points if p.n_threads >= half}
    b, a = "Fig. 2b", "Fig. 2a"
    return [
        _row(b, "quadratic fit R^2", 0.9998, "", hsw.fit.r_squared,
             abs_=0.001),
        _row(b, "max residual from fit", 3.0, "W", hsw.fit.residual_max,
             abs_=3.0),
        _row(b, "fit linear coefficient", 1.097, "", c1, abs_=0.12),
        _row(b, "fit constant", 225.7, "W", c0, abs_=15.0),
        _row(a, "SNB worst workload bias (>> HSW 3 W bound)", 25.0, "W",
             snb_bias, abs_=20.0),
        _holds(b, "HSW fit is quadratic", hsw.fit_kind == "quadratic"),
        _holds(b, "quadratic fit R^2 > 0.999", hsw.fit.r_squared > 0.999),
        _holds(b, "max residual from fit < 3 W", hsw.fit.residual_max < 3.0),
        _row(b, "fit quadratic coefficient", 0.0003, "", c2, abs_=0.00015),
        _holds(a, "SNB fit is linear", snb.fit_kind == "linear"),
        _holds(a, "SNB worst workload bias > 5 W", snb_bias > 5.0),
        _holds(a, "SNB workloads deviate in both directions "
                  "(>= half the threads)",
               min(signed.values()) < 0 < max(signed.values())),
    ]


# Table III, per paper: (active, passive) uncore GHz per setting, turbo first
_TABLE3_PAPER = [
    (3.0, 2.95), (2.2, 2.1), (2.1, 2.0), (2.0, 1.9), (1.9, 1.8),
    (1.8, 1.7), (1.75, 1.65), (1.65, 1.55), (1.6, 1.5), (1.5, 1.4),
    (1.4, 1.2), (1.3, 1.2), (1.2, 1.2), (1.2, 1.2), (1.2, 1.2),
]


def _table3_claims(results: dict) -> list[CheckResult]:
    rows = results["table3"].rows
    vals = {row.setting_label: row for row in rows}
    pairs = list(zip(rows, _TABLE3_PAPER))
    t = "Table III"
    return [
        _row(t, "active uncore at turbo setting", 3.0, "GHz",
             vals["Turbo"].active_uncore_hz / 1e9, abs_=0.03),
        _row(t, "active uncore at 2.5 GHz", 2.2, "GHz",
             vals["2.5"].active_uncore_hz / 1e9, abs_=0.03),
        _row(t, "active uncore at 2.0 GHz", 1.75, "GHz",
             vals["2.0"].active_uncore_hz / 1e9, abs_=0.03),
        _row(t, "active uncore at 1.2 GHz", 1.2, "GHz",
             vals["1.2"].active_uncore_hz / 1e9, abs_=0.03),
        _row(t, "passive uncore at 2.5 GHz", 2.1, "GHz",
             vals["2.5"].passive_uncore_hz / 1e9, abs_=0.03),
        _holds(t, "one row per paper setting (15)",
               len(rows) == len(_TABLE3_PAPER)),
        _holds(t, "active uncore within 25 MHz of the paper at every "
                  "setting",
               max(abs(row.active_uncore_hz - ghz(active))
                   for row, (active, _) in pairs) <= 25e6),
        _holds(t, "passive uncore within 25 MHz of the paper at every "
                  "setting",
               max(abs(row.passive_uncore_hz - ghz(passive))
                   for row, (_, passive) in pairs) <= 25e6),
    ]


# Table IV, per paper: setting -> (core p1, uncore p1, GIPS p1)
_TABLE4_PAPER_P1 = {
    None: (2.32, 2.35, 3.58),
    2.5: (2.35, 2.37, 3.60),
    2.4: (2.35, 2.37, 3.60),
    2.3: (2.28, 2.58, 3.62),
    2.2: (2.18, 2.86, 3.59),
    2.1: (2.09, 3.00, 3.52),
}


def _table4_claims(results: dict) -> list[CheckResult]:
    t4 = results["table4"]

    def col(setting):
        return t4.column(None if setting is None else ghz(setting))

    def worst(attr, scale, i):
        return max(abs(getattr(col(s), attr)[1] / scale - paper[i])
                   for s, paper in _TABLE4_PAPER_P1.items())

    turbo, at_23, at_22, at_21 = col(None), col(2.3), col(2.2), col(2.1)
    t = "Table IV"
    return [
        _row(t, "P1 core frequency at turbo", 2.32, "GHz",
             turbo.core_freq_hz[1] / 1e9, abs_=0.05),
        _row(t, "P1 uncore frequency at turbo", 2.35, "GHz",
             turbo.uncore_freq_hz[1] / 1e9, abs_=0.07),
        _row(t, "P1 GIPS at turbo", 3.58, "GIPS", turbo.gips[1], abs_=0.08),
        _row(t, "P1 GIPS at 2.3 GHz setting", 3.62, "GIPS", at_23.gips[1],
             abs_=0.08),
        _row(t, "IPS gain 2.3 GHz vs turbo", 1.011, "x",
             at_23.gips[1] / turbo.gips[1], abs_=0.012),
        _row(t, "P1 uncore at 2.2 GHz setting", 2.86, "GHz",
             at_22.uncore_freq_hz[1] / 1e9, abs_=0.15),
        _row(t, "P1 core at 2.1 GHz setting", 2.09, "GHz",
             at_21.core_freq_hz[1] / 1e9, abs_=0.03),
        _row(t, "P1 uncore at 2.1 GHz setting", 3.0, "GHz",
             at_21.uncore_freq_hz[1] / 1e9, abs_=0.03),
        _holds(t, "P1 core within 0.06 GHz of the paper at every setting",
               worst("core_freq_hz", 1e9, 0) <= 0.06),
        _holds(t, "P1 uncore within 0.15 GHz of the paper at every setting",
               worst("uncore_freq_hz", 1e9, 1) <= 0.15),
        _holds(t, "P1 GIPS within 0.08 of the paper at every setting",
               worst("gips", 1, 2) <= 0.08),
        _holds(t, "2.3 GHz setting beats turbo on P1 IPS",
               at_23.gips[1] > turbo.gips[1]),
        _holds(t, "P1 faster than P0 at turbo",
               turbo.core_freq_hz[1] > turbo.core_freq_hz[0]),
        _holds(t, "P1 package power within 2.5 W of the 120 W TDP at "
                  "settings >= 2.2 GHz",
               max(abs(col(s).pkg_power_w[1] - 120.0)
                   for s in (None, 2.5, 2.4, 2.3, 2.2)) <= 2.5),
        _holds(t, "P1 package power < 119.5 W at 2.1 GHz setting",
               at_21.pkg_power_w[1] < 119.5),
    ]


def _fig3_claims(results: dict) -> list[CheckResult]:
    f3 = results["fig3"]
    rnd = f3.random.latencies_us
    hist, _ = np.histogram(rnd, bins=5, range=(20.0, 540.0))
    bins = hist / len(rnd)
    inst = f3.instant.latencies_us
    near = f3.near_500us.latencies_us
    immediate = float(np.mean(near < 100.0))
    slow = float(np.mean(near > 400.0))
    f = "Fig. 3"
    return [
        _row(f, "random-mode minimum latency", 21, "us", f3.random.min_us,
             abs_=25.0),
        _row(f, "random-mode maximum latency", 524, "us", f3.random.max_us,
             abs_=30.0),
        _row(f, "instant-mode typical latency", 500, "us",
             f3.instant.median_us, abs_=30.0),
        _row(f, "400 us delay typical latency", 100, "us",
             f3.after_400us.median_us, abs_=30.0),
        _row(f, "~quantum delay slow-class latency", 500, "us",
             np.median(near[near > 400]), abs_=40.0),
        _holds(f, "random-mode minimum latency < 45 us",
               f3.random.min_us < 45.0),
        _holds(f, "random mode spreads evenly (each of 5 bins 10-35 %)",
               0.1 < bins.min() and bins.max() < 0.35),
        _holds(f, "instant mode > 80 % within 450-560 us",
               np.mean((inst > 450.0) & (inst < 560.0)) > 0.8),
        _holds(f, "~quantum delay: > 5 % immediate and > 40 % slow",
               immediate > 0.05 and slow > 0.4),
        _holds(f, "~quantum delay: > 95 % immediate or slow",
               immediate + slow > 0.95),
        _holds(f, "random-mode minimum above the ACPI 10 us claim",
               f3.random.min_us > E5_2680_V3.acpi_pstate_latency_ns / 1000.0),
    ]


def _fig4_claims(results: dict) -> list[CheckResult]:
    f4 = results["fig4"]
    f = "Fig. 4"
    return [
        _row(f, "inferred grant period", 500, "us", f4.quantum_estimate_us,
             abs_=60.0),
        _holds(f, "same-socket synchronous transitions",
               f4.same_socket_synchronous),
        _holds(f, "cross-socket independent transitions",
               f4.cross_socket_independent),
        _holds(f, "latency floor > 10x the electrical switch time",
               f4.switch_floor_us > 10 * f4.true_switch_us),
    ]


def _haswell(result, scenario: str):
    return result.bundles[scenario].get("Haswell-EP")


def _fig5_claims(results: dict) -> list[CheckResult]:
    c3 = results["fig5"]
    local, remote = _haswell(c3, "local"), _haswell(c3, "remote_active")
    package = _haswell(c3, "remote_idle")
    extra = [package.value_at(f) - remote.value_at(f) for f in (1.2, 2.0, 2.5)]
    snb = c3.bundles["local"].get("Sandy Bridge-EP")
    f = "Fig. 5"
    return [
        _row(f, "C3 high-frequency penalty", 1.5, "us",
             local.value_at(2.5) - local.value_at(1.2), abs_=0.6),
        _row(f, "package C3 adder (mid frequency)", 3.0, "us",
             package.value_at(2.0) - remote.value_at(2.0), abs_=1.5),
        _row(f, "C3 high-frequency penalty (within 0.5 us)", 1.5, "us",
             local.value_at(2.5) - local.value_at(1.2), abs_=0.5),
        _holds(f, "C3 flat below 1.5 GHz (1.4 within 0.4 us of 1.2 GHz)",
               abs(local.value_at(1.4) - local.value_at(1.2)) <= 0.4),
        _holds(f, "package C3 adder within 1.5-4.8 us at 1.2/2.0/2.5 GHz",
               1.5 <= min(extra) and max(extra) <= 4.8),
        _holds(f, "SNB C3 slower than HSW at every frequency",
               all(s > h for s, h in zip(snb.y, local.y))),
        _holds(f, "worst package C3 wake below the ACPI claim",
               max(package.y) < c3.acpi_claim_us["Haswell-EP"]),
    ]


def _fig6_claims(results: dict) -> list[CheckResult]:
    c3, c6 = results["fig5"], results["fig6"]
    local3, local6 = _haswell(c3, "local"), _haswell(c6, "local")
    pkg3, pkg6 = _haswell(c3, "remote_idle"), _haswell(c6, "remote_idle")
    pkg_extra = ((pkg6.value_at(2.0) - pkg3.value_at(2.0))
                 - (local6.value_at(2.0) - local3.value_at(2.0)))
    f = "Fig. 6"
    return [
        _row(f, "C6-over-C3 adder at 1.2 GHz", 8.0, "us",
             local6.value_at(1.2) - local3.value_at(1.2), abs_=1.5),
        _row(f, "C6-over-C3 adder at 2.5 GHz", 2.0, "us",
             local6.value_at(2.5) - local3.value_at(2.5), abs_=1.0),
        _row(f, "package C6 adder over package C3", 8.0, "us", pkg_extra,
             abs_=2.5),
        # A bound: the worst wake must stay *below* the claim.
        _row(f, "worst C6 wake vs ACPI claim (133 us)", 133.0, "us",
             max(pkg6.y), rel=1.0),
        _holds(f, "C6 at 1.2 GHz > 3 us slower than at 2.5 GHz",
               local6.value_at(1.2) > local6.value_at(2.5) + 3.0),
        _row(f, "package C6 adder over package C3 (within 2 us)", 8.0, "us",
             pkg_extra, abs_=2.0),
        _holds(f, "worst package C6 wake below the ACPI claim",
               max(pkg6.y) < c6.acpi_claim_us["Haswell-EP"]),
        _holds(f, "worst package C6 wake below the p-state grant period",
               max(pkg6.y) * 1000 < E5_2680_V3.pcu_quantum_ns),
    ]


def _fig7_claims(results: dict) -> list[CheckResult]:
    f7 = results["fig7"]
    hsw = f7.dram_relative.get("Haswell-EP")
    snb = f7.dram_relative.get("Sandy Bridge-EP")
    wsm = f7.dram_relative.get("Westmere-EP")
    hsw_l3 = f7.l3_relative.get("Haswell-EP")
    return [
        _row("Fig. 7b", "HSW DRAM bandwidth ratio at min frequency", 1.0, "",
             hsw.y.min(), abs_=0.03),
        _row("Fig. 7b", "SNB DRAM bandwidth ratio at min frequency", 0.55,
             "", snb.y.min(), abs_=0.15),
        _row("Fig. 7a", "HSW L3 bandwidth ratio at min frequency", 0.55, "",
             hsw_l3.y.min(), abs_=0.08),
        _holds("Fig. 7b", "HSW DRAM ratio > 0.97 at every frequency",
               hsw.y.min() > 0.97),
        _holds("Fig. 7b", "WSM DRAM ratio > 0.90 at every frequency",
               wsm.y.min() > 0.90),
        _holds("Fig. 7b", "SNB DRAM minimum ratio within 0.05 of the ratio "
                          "at min frequency",
               abs(snb.y.min() - snb.value_at(snb.x.min())) <= 0.05),
        _holds("Fig. 7a", "HSW L3 ratio > 0.9x the frequency ratio at min",
               hsw_l3.y.min() > 0.9 * hsw_l3.x.min()),
    ]


def _fig8_claims(results: dict) -> list[CheckResult]:
    f8 = results["fig8"]
    dram_fast, dram_slow = f8.dram.get("2.5 GHz"), f8.dram.get("1.2 GHz")
    l3_fast, l3_slow = f8.l3.get("2.5 GHz"), f8.l3.get("1.2 GHz")
    ht = f8.ht_dram.get("2.5 GHz")
    f = "Fig. 8"
    return [
        _row(f, "DRAM saturation bandwidth", 60.0, "GB/s",
             dram_fast.value_at(8), rel=0.05),
        _row(f, "DRAM 12-core bandwidth 1.2 vs 2.5 GHz", 1.0, "ratio",
             dram_slow.value_at(12) / dram_fast.value_at(12), abs_=0.03),
        _row(f, "cores to saturate DRAM", 8, "cores",
             next(n for n, bw in zip(dram_fast.x, dram_fast.y)
                  if bw > 0.98 * dram_fast.y.max()), abs_=1),
        _row(f, "DRAM 12- vs 8-core bandwidth at 2.5 GHz", 1.0, "ratio",
             dram_fast.value_at(12) / dram_fast.value_at(8), abs_=0.02),
        _row(f, "DRAM 10-core bandwidth 1.2 vs 2.5 GHz", 1.0, "ratio",
             dram_slow.value_at(10) / dram_fast.value_at(10), abs_=0.03),
        _holds(f, "DRAM 1-core bandwidth at 1.2 GHz < 0.95x 2.5 GHz",
               dram_slow.value_at(1) < 0.95 * dram_fast.value_at(1)),
        _holds(f, "L3 12-core bandwidth > 3x 3-core at 2.5 GHz",
               l3_fast.value_at(12) > 3.0 * l3_fast.value_at(3)),
        _holds(f, "L3 12-core bandwidth at 2.5 GHz > 1.6x 1.2 GHz",
               l3_fast.value_at(12) > 1.6 * l3_slow.value_at(12)),
        _holds(f, "L3 2-core bandwidth > 2x 1-core at 2.5 GHz",
               l3_fast.value_at(2) > 2.0 * l3_fast.value_at(1)),
        _holds(f, "SMT: DRAM 2 threads on 1 core > 1 thread",
               ht.value_at(2) > dram_fast.value_at(1)),
        _row(f, "SMT: DRAM 24 threads vs 12 cores", 1.0, "ratio",
             ht.value_at(24) / dram_fast.value_at(12), abs_=0.02),
    ]


def _table5_claims(results: dict) -> list[CheckResult]:
    t5 = results["table5"]
    epbs = (Epb.POWERSAVE, Epb.BALANCED, Epb.PERFORMANCE)
    cells = [(t5.cell("FIRESTARTER", s, e), t5.cell("LINPACK", s, e),
              t5.cell("mprime", s, e))
             for s in (ghz(2.5), None) for e in epbs]
    fs, lp, mp = (t5.cell(w, None, Epb.BALANCED)
                  for w in ("FIRESTARTER", "LINPACK", "mprime"))
    mp_power, mp_bal, mp_perf = (
        t5.cell("mprime", ghz(2.5), e).mean_core_freq_hz for e in epbs)
    fs_freqs = [c[0].mean_core_freq_hz for c in cells]
    t = "Table V"
    return [
        _row(t, "FIRESTARTER max-window power", 560.0, "W",
             fs.max_window_power_w, abs_=12.0),
        _row(t, "LINPACK max-window power", 547.4, "W",
             lp.max_window_power_w, abs_=12.0),
        _row(t, "mprime max-window power", 560.2, "W",
             mp.max_window_power_w, abs_=12.0),
        _row(t, "LINPACK measured frequency", 2.27, "GHz",
             lp.mean_core_freq_hz / 1e9, abs_=0.06),
        _row(t, "FIRESTARTER measured frequency", 2.44, "GHz",
             fs.mean_core_freq_hz / 1e9, abs_=0.06),
        _row(t, "mprime measured frequency", 2.61, "GHz",
             mp.mean_core_freq_hz / 1e9, abs_=0.07),
        _holds(t, "LINPACK > 5 W below FIRESTARTER in every cell",
               min(f.max_window_power_w - lp_.max_window_power_w
                   for f, lp_, _ in cells) > 5.0),
        _holds(t, "LINPACK slower than FIRESTARTER in every cell",
               all(lp_.mean_core_freq_hz < f.mean_core_freq_hz
                   for f, lp_, _ in cells)),
        _holds(t, "FIRESTARTER and mprime within 6 W in every cell",
               max(abs(f.max_window_power_w - m.max_window_power_w)
                   for f, _, m in cells) < 6.0),
        _holds(t, "mprime faster than FIRESTARTER in every cell",
               all(m.mean_core_freq_hz > f.mean_core_freq_hz
                   for f, _, m in cells)),
        _row(t, "LINPACK max-window power (turbo, balanced)", 548.0, "W",
             lp.max_window_power_w, abs_=12.0),
        _row(t, "LINPACK measured frequency (turbo, balanced)", 2.28, "GHz",
             lp.mean_core_freq_hz / 1e9, abs_=0.06),
        _holds(t, "mprime EPB ladder at 2.5 GHz: power < balanced "
                  "<= 2.5 GHz < performance",
               mp_power < mp_bal <= ghz(2.5) < mp_perf),
        _row(t, "mprime frequency at 2.5 GHz, EPB power", 2.45, "GHz",
             mp_power / 1e9, abs_=0.04),
        _holds(t, "FIRESTARTER frequency spread over EPB/turbo < 60 MHz",
               np.ptp(fs_freqs) < 60e6),
    ]


def _no_claims(results: dict) -> list[CheckResult]:
    return []


CATALOG: dict[str, Experiment] = {e.name: e for e in (
    Experiment("table1", run_table1, render_table1, {}, {}, _table1_claims),
    Experiment("fig1", run_fig1, render_fig1, {}, {}, _fig1_claims),
    Experiment("table2", run_table2, render_table2,
               dict(seed=0, measure_s=1.5), dict(seed=0, measure_s=4.0),
               _table2_claims),
    Experiment("fig2", _run_fig2, _render_fig2,
               dict(seed=11, measure_s=1.0), dict(seed=11, measure_s=4.0),
               _fig2_claims),
    Experiment("table3", run_table3, render_table3,
               dict(seed=21, measure_s=1.0), dict(seed=21, measure_s=10.0),
               _table3_claims),
    Experiment("table4", run_table4, render_table4,
               dict(seed=31, n_samples=8), dict(seed=31, n_samples=50),
               _table4_claims),
    Experiment("fig3", run_fig3, render_fig3,
               dict(seed=41, n_samples=250), dict(seed=41, n_samples=1000),
               _fig3_claims),
    Experiment("fig4", estimate_mechanism, render_fig4,
               dict(seed=97, n_samples=200), dict(seed=97, n_samples=400),
               _fig4_claims),
    Experiment("fig5", functools.partial(run_cstate_figure, CState.C3),
               render_cstate_figure,
               dict(seed=51, n_samples=8), dict(seed=51, n_samples=30),
               _fig5_claims),
    Experiment("fig6", functools.partial(run_cstate_figure, CState.C6),
               render_cstate_figure,
               dict(seed=51, n_samples=8), dict(seed=51, n_samples=30),
               _fig6_claims),
    Experiment("fig7", run_fig7, render_fig7, dict(seed=61), dict(seed=61),
               _fig7_claims),
    Experiment("fig8", run_fig8, render_fig8, dict(seed=63), dict(seed=63),
               _fig8_claims),
    Experiment("table5", run_table5, render_table5,
               dict(seed=71, measure_s=20.0, window_s=15.0),
               dict(seed=71, measure_s=75.0, window_s=60.0),
               _table5_claims),
    Experiment("hostif", run_hostif_parity, render_hostif_parity,
               dict(seed=271, measure_ns=ms(20)),
               dict(seed=271, measure_ns=ms(50)),
               _no_claims),
)}


def build(name: str, full: bool) -> Built:
    """Run one catalogue entry at its default (or ``full``) size and
    render it. Module-level so ``functools.partial(build, name, full)``
    pickles into ``--jobs`` worker processes."""
    experiment = CATALOG[name]
    result = experiment.run(**(experiment.full if full else experiment.default))
    return Built(experiment.render(result), result)


def check_claims(results: dict[str, Any]) -> list[CheckResult]:
    """Every entry's claims, in catalogue order, against the results of
    the whole suite (one result per catalogue name)."""
    return [row for experiment in CATALOG.values()
            for row in experiment.claims(results)]

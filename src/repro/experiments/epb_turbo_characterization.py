"""EPB-mapping and turbo-bin characterization (DESIGN.md extensions).

Two measurement-style studies the paper's Section II implies:

* **EPB mapping** — write each of the 16 raw EPB values through the MSR
  interface and observe the behaviour class (the paper: 0 performance,
  1-7 balanced, 8-15 energy saving, measured, against Intel's
  finer-grained documentation).
* **Turbo bins** — occupy 1..n cores with scalar and AVX work and
  measure the granted frequency, recovering the turbo tables of
  Section II-F (non-AVX 3.3..2.9 GHz, AVX 3.1..2.8 GHz on the test SKU).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.engine.simulator import Simulator
from repro.hostif import HostMsr, VirtualMsrDev
from repro.pcu.epb import Epb, decode_epb
from repro.specs.node import HASWELL_TEST_NODE
from repro.system.node import build_node
from repro.units import ghz, ms
from repro.workloads.micro import busy_wait, dgemm
from repro.workloads.mprime import mprime


@dataclass(frozen=True)
class EpbMappingRow:
    raw_value: int
    behaviour: Epb
    observed_freq_hz: float      # mprime at the 2.5 GHz setting (EET-visible)


def run_epb_mapping(seed: int = 131, settle_ns: int = ms(20)
                    ) -> list[EpbMappingRow]:
    """Probe all 16 encodings with an EET-sensitive workload."""
    rows = []
    for raw in range(16):
        sim = Simulator(seed=seed)
        node = build_node(sim, HASWELL_TEST_NODE)
        VirtualMsrDev(node).write(0, HostMsr.IA32_ENERGY_PERF_BIAS, raw)
        node.run_workload([0], mprime())
        node.set_pstate([0], ghz(2.5))
        sim.run_for(settle_ns)
        rows.append(EpbMappingRow(
            raw_value=raw,
            behaviour=decode_epb(raw),
            observed_freq_hz=node.core(0).freq_hz,
        ))
    return rows


def render_epb_mapping(rows: list[EpbMappingRow]) -> str:
    return render_table(
        headers=["EPB raw", "behaviour", "observed frequency [GHz]"],
        rows=[[str(r.raw_value), r.behaviour.value,
               f"{r.observed_freq_hz / 1e9:.2f}"] for r in rows],
        title="EPB mapping exploration (mprime at the 2.5 GHz setting)")


@dataclass(frozen=True)
class TurboBinRow:
    active_cores: int
    scalar_freq_hz: float
    avx_freq_hz: float


def run_turbo_bins(seed: int = 133, settle_ns: int = ms(10)
                   ) -> list[TurboBinRow]:
    """Measure granted frequency vs active core count, scalar vs AVX.

    Uses a generous power budget so the observed caps are the *bins*,
    not the TDP (the TDP interaction is Table IV's subject).
    """
    rows = []
    spec = HASWELL_TEST_NODE.cpu
    for n in range(1, spec.n_cores + 1):
        freqs = {}
        for label, workload in (("scalar", busy_wait()), ("avx", dgemm())):
            sim = Simulator(seed=seed)
            node = build_node(sim, HASWELL_TEST_NODE)
            # lift the TDP so bins are the only cap
            node.pcus[0].limiter.budget_w = 10 * spec.tdp_w
            core_ids = list(range(n))
            node.run_workload(core_ids, workload)
            node.set_pstate(core_ids, None)       # turbo
            sim.run_for(settle_ns)
            freqs[label] = node.core(0).freq_hz
        rows.append(TurboBinRow(active_cores=n,
                                scalar_freq_hz=freqs["scalar"],
                                avx_freq_hz=freqs["avx"]))
    return rows


def render_turbo_bins(rows: list[TurboBinRow]) -> str:
    return render_table(
        headers=["active cores"] + [str(r.active_cores) for r in rows],
        rows=[
            ["non-AVX turbo [GHz]"]
            + [f"{r.scalar_freq_hz / 1e9:.1f}" for r in rows],
            ["AVX turbo [GHz]"]
            + [f"{r.avx_freq_hz / 1e9:.1f}" for r in rows],
        ],
        title="Turbo-bin characterization (TDP lifted)")

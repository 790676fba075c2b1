"""Power-cap sweep: performance under a hardware-enforced power bound.

The paper cites Rountree et al. [24]: under a package power bound, the
"different power characteristics of the processors can lead to
performance imbalances" (Section V-B). Our test node carries the
measured asymmetry (socket 0 runs at higher voltage), so sweeping the
RAPL PL1 limit through the MSR interface reproduces the effect: the same
cap yields different sustained frequencies — and therefore different
application performance — on the two packages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.engine.simulator import Simulator
from repro.hostif import HostMsr, VirtualMsrDev
from repro.hostif.msr_regs import encode_power_limit
from repro.instruments.perfctr import LikwidSampler
from repro.specs.node import HASWELL_TEST_NODE
from repro.system.node import build_node
from repro.units import seconds
from repro.workloads.firestarter import firestarter


@dataclass(frozen=True)
class PowerCapPoint:
    cap_w: float
    freq_hz: tuple[float, float]        # per socket
    gips: tuple[float, float]
    pkg_w: tuple[float, float]

    @property
    def frequency_imbalance(self) -> float:
        """Relative frequency gap between the two packages."""
        lo, hi = sorted(self.freq_hz)
        return 1.0 - lo / hi if hi else 0.0


def run_powercap_sweep(
    caps_w: tuple[float, ...] = (120.0, 100.0, 80.0, 60.0),
    seed: int = 121,
    measure_s: float = 4.0,
) -> list[PowerCapPoint]:
    sim = Simulator(seed=seed)
    node = build_node(sim, HASWELL_TEST_NODE)
    msr = VirtualMsrDev(node)
    node.run_workload([c.core_id for c in node.all_cores],
                      firestarter(ht=True))
    monitor = [0, node.spec.cpu.n_cores]

    points = []
    for cap in caps_w:
        raw = encode_power_limit(cap)
        msr.write(0, HostMsr.MSR_PKG_POWER_LIMIT, raw)
        msr.write(node.spec.cpu.n_cores, HostMsr.MSR_PKG_POWER_LIMIT, raw)
        sim.run_for(seconds(1))           # settle to the new equilibrium
        sampler = LikwidSampler(sim, node, core_ids=monitor,
                                period_ns=seconds(measure_s / 4))
        sampler.start()
        sim.run_for(seconds(measure_s))
        sampler.stop()
        med = [sampler.median_metrics(cid) for cid in monitor]
        points.append(PowerCapPoint(
            cap_w=cap,
            freq_hz=(med[0]["core_freq_hz"], med[1]["core_freq_hz"]),
            gips=(med[0]["ips"] / 1e9, med[1]["ips"] / 1e9),
            pkg_w=(med[0]["pkg_power_w"], med[1]["pkg_power_w"]),
        ))
    return points


def render_powercap(points: list[PowerCapPoint]) -> str:
    rows = [[f"{p.cap_w:.0f}",
             f"{p.freq_hz[0] / 1e9:.2f}", f"{p.freq_hz[1] / 1e9:.2f}",
             f"{p.gips[0]:.2f}", f"{p.gips[1]:.2f}",
             f"{p.pkg_w[0]:.1f}", f"{p.pkg_w[1]:.1f}",
             f"{p.frequency_imbalance * 100:.1f} %"]
            for p in points]
    return render_table(
        headers=["cap [W]", "f P0 [GHz]", "f P1 [GHz]", "GIPS P0",
                 "GIPS P1", "pkg P0 [W]", "pkg P1 [W]", "imbalance"],
        rows=rows,
        title="Power-cap sweep under FIRESTARTER (hardware-enforced "
              "bound, per-socket asymmetry)")

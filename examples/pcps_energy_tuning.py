#!/usr/bin/env python3
"""Per-core p-states in action (Sections II-B/II-D).

The headline feature of Haswell-EP's integrated voltage regulators: each
core has its own FIVR, so an energy-aware runtime can slow individual
cores without hurting the critical one. This study runs a mixed workload
— one latency-critical compute core plus eight background spinners — and
compares three policies, reading EPB and RAPL through the MSR interface
like real tooling would.

Run:  python examples/pcps_energy_tuning.py
"""

from repro import build_haswell_node, compute, while1_spin
from repro.hostif import HostMsr, VirtualMsrDev
from repro.hostif.msr_regs import decode_uncore_ratio_limit
from repro.pcu.epb import Epb, encode_epb
from repro.power.rapl import RaplDomain
from repro.units import ghz, seconds, to_ghz


def run_policy(policy: str, background_hz: float | None) -> dict:
    sim, node = build_haswell_node(seed=23)
    critical = [0]
    background = list(range(1, 9))
    node.run_workload(critical, compute())
    node.run_workload(background, while1_spin())
    node.set_pstate(critical, node.spec.cpu.nominal_hz)
    node.set_pstate(background, background_hz)
    sim.run_for(seconds(1))

    e0 = node.sockets[0].energy_pkg_j
    i0 = node.core(0).counters.instructions_thread0
    t0 = sim.now_ns
    sim.run_for(seconds(3))
    dt = (sim.now_ns - t0) / 1e9
    return {
        "policy": policy,
        "pkg_w": (node.sockets[0].energy_pkg_j - e0) / dt,
        "critical_gips": (node.core(0).counters.instructions_thread0 - i0)
        / dt / 1e9,
        "critical_ghz": to_ghz(node.core(0).freq_hz),
        "background_ghz": to_ghz(node.core(1).freq_hz),
    }


def main() -> None:
    print("Mixed workload: 1 critical compute core + 8 background "
          "spinners on socket 0\n")
    results = [
        run_policy("chip-wide fast (pre-Haswell behaviour)", ghz(2.5)),
        run_policy("PCPS: background at 1.2 GHz", ghz(1.2)),
    ]
    header = (f"{'policy':42s} {'pkg W':>7s} {'crit GIPS':>10s} "
              f"{'crit GHz':>9s} {'bg GHz':>7s}")
    print(header)
    for r in results:
        print(f"{r['policy']:42s} {r['pkg_w']:7.1f} "
              f"{r['critical_gips']:10.2f} {r['critical_ghz']:9.2f} "
              f"{r['background_ghz']:7.2f}")

    fast, pcps = results
    saving = fast["pkg_w"] - pcps["pkg_w"]
    perf_loss = 1 - pcps["critical_gips"] / fast["critical_gips"]
    print(f"\n=> {saving:.1f} W package saving at {perf_loss * 100:.1f} % "
          "critical-path cost — per-core\n   voltage domains make this "
          "split possible (Section II-D).")

    # The MSR view, as tooling like likwid-powermeter uses it.
    sim, node = build_haswell_node(seed=29)
    msr = VirtualMsrDev(node)
    msr.write(0, HostMsr.IA32_ENERGY_PERF_BIAS, encode_epb(Epb.POWERSAVE))
    sim.run_for(seconds(1))
    print("\nMSR view after writing EPB=energy-saving (value 15):")
    print(f"  IA32_ENERGY_PERF_BIAS = "
          f"{msr.read(0, HostMsr.IA32_ENERGY_PERF_BIAS)}")
    unit_bits = (msr.read(0, HostMsr.MSR_RAPL_POWER_UNIT) >> 8) & 0x1F
    print(f"  MSR_RAPL_POWER_UNIT energy exponent = {unit_bits} "
          f"(1/2^{unit_bits} J)")
    print(f"  MSR_PKG_ENERGY_STATUS = "
          f"{msr.read(0, HostMsr.MSR_PKG_ENERGY_STATUS)} counts")
    # Undocumented when the paper was written (Section II-D); this is
    # the encoding Intel documented later.
    min_hz, max_hz = decode_uncore_ratio_limit(
        msr.read(0, HostMsr.MSR_UNCORE_RATIO_LIMIT))
    print(f"  MSR_UNCORE_RATIO_LIMIT = {to_ghz(min_hz):.1f}-"
          f"{to_ghz(max_hz):.1f} GHz")
    dram_j = node.sockets[0].rapl.read_energy_j(RaplDomain.DRAM)
    print(f"  DRAM energy via the 15.3 uJ unit: {dram_j:.2f} J")


if __name__ == "__main__":
    main()

"""The canonical parity host configuration, shared across layers.

One scenario, two write paths: :func:`configure_direct` drives the
internal Python API, :func:`configure_hostif` performs the equivalent
mutations purely through the virtual sysfs tree and MSR registers.
:func:`render_state` dumps the full-precision node state so any
divergence between the two paths shows up as a plain text diff.

This lives in the conformance layer (not in
``repro.experiments.hostif_parity``, which consumes it) because the
trace/scenario machinery and the service's dataset CLI need the same
configuration — an upward import from conformance into experiments
would invert the layer map.

The scenario: FIRESTARTER on socket 0's first six cores, pinned to
1.8 GHz via the userspace governor; C6 disabled on the next six (idle)
cores; EPB performance; turbo off; uncore window narrowed so the 0x620
clamp is visible in the granted uncore frequency.  It deliberately
crosses every hostif surface: userspace governor + setspeed (cpufreq
sysfs), EPB (sysfs), turbo off (IA32_MISC_ENABLE), a narrowed uncore
window (MSR 0x620), and C6 disabled on the idle cores (cpuidle sysfs).
"""

from __future__ import annotations

from repro.cpufreq.policy import Governor
from repro.cstates.states import CState
from repro.hostif import HostMsr, VirtualHost
from repro.hostif.msr_regs import (
    encode_misc_enable,
    encode_uncore_ratio_limit,
)
from repro.pcu.epb import Epb
from repro.units import ghz

_SYS = "/sys/devices/system/cpu"

ACTIVE_CPUS = (0, 1, 2, 3, 4, 5)
C6_DISABLED_CPUS = (6, 7, 8, 9, 10, 11)
PIN_GHZ = 1.8
UNCORE_MIN_GHZ = 1.3
UNCORE_MAX_GHZ = 1.5


def configure_direct(host: VirtualHost) -> None:
    """The internal-API path."""
    node = host.node
    host.cpufreq.set_governor(Governor.USERSPACE)
    for cpu in ACTIVE_CPUS:
        # The same two calls sysfs setspeed performs, in the same order.
        host.cpufreq.policy(cpu).set_speed(ghz(PIN_GHZ))
        node.set_pstate([cpu], ghz(PIN_GHZ))
    node.set_epb(Epb.PERFORMANCE)
    node.set_turbo(False)
    node.set_uncore_limits(ghz(UNCORE_MIN_GHZ), ghz(UNCORE_MAX_GHZ))
    for cpu in C6_DISABLED_CPUS:
        node.core(cpu).set_cstate_disabled(CState.C6, True)


def configure_hostif(host: VirtualHost) -> None:
    """The same configuration, purely through sysfs files and MSRs."""
    for cpu in host.cpu_ids:
        host.sysfs.write(f"{_SYS}/cpu{cpu}/cpufreq/scaling_governor",
                         "userspace")
    for cpu in ACTIVE_CPUS:
        host.sysfs.write(f"{_SYS}/cpu{cpu}/cpufreq/scaling_setspeed",
                         str(int(PIN_GHZ * 1e6)))
    # Package-scoped registers: one write per socket (cpu 0 and the
    # first cpu of socket 1).
    per_socket = [s.cores[0].core_id for s in host.node.sockets]
    for cpu in per_socket:
        host.sysfs.write(f"{_SYS}/cpu{cpu}/power/energy_perf_bias", "0")
        host.msr.write(cpu, HostMsr.IA32_MISC_ENABLE,
                       encode_misc_enable(turbo_enabled=False))
        host.msr.write(cpu, HostMsr.MSR_UNCORE_RATIO_LIMIT,
                       encode_uncore_ratio_limit(ghz(UNCORE_MIN_GHZ),
                                                 ghz(UNCORE_MAX_GHZ)))
    for cpu in C6_DISABLED_CPUS:
        host.sysfs.write(f"{_SYS}/cpu{cpu}/cpuidle/state2/disable", "1")


CONFIGURE = {"direct": configure_direct, "hostif": configure_hostif}


def configure_tick_heavy_direct(host: VirtualHost) -> None:
    """Tick-heavy scenario knobs, internal-API path.

    Turbo stays on and EPB goes to performance so the fully loaded node
    runs TDP-bound — the PCU's turbo dither re-decides every quantum,
    which is exactly the high-churn regime the tick-heavy golden trace
    and the perf gate are meant to pin down.
    """
    node = host.node
    node.set_epb(Epb.PERFORMANCE)
    node.set_turbo(True)


def configure_tick_heavy_hostif(host: VirtualHost) -> None:
    """The same two knobs, purely through sysfs and MSR writes."""
    per_socket = [s.cores[0].core_id for s in host.node.sockets]
    for cpu in per_socket:
        host.sysfs.write(f"{_SYS}/cpu{cpu}/power/energy_perf_bias", "0")
        host.msr.write(cpu, HostMsr.IA32_MISC_ENABLE,
                       encode_misc_enable(turbo_enabled=True))


TICK_HEAVY_CONFIGURE = {"direct": configure_tick_heavy_direct,
                        "hostif": configure_tick_heavy_hostif}


def render_state(host: VirtualHost) -> str:
    """Full-precision state dump — any divergence shows as a text diff."""
    node = host.node
    lines = [f"t_ns={node.sim.now_ns}"]
    for cpu in (*ACTIVE_CPUS, *C6_DISABLED_CPUS):
        core = node.core(cpu)
        lines.append(
            f"cpu{cpu} freq={core.freq_hz!r} req={core.requested_hz!r} "
            f"cstate={core.cstate.name} aperf={core.counters.aperf!r} "
            f"mperf={core.counters.mperf!r}")
    for socket in node.sockets:
        first = socket.cores[0].core_id
        pkg = host.msr.read(first, HostMsr.MSR_PKG_ENERGY_STATUS)
        dram = host.msr.read(first, HostMsr.MSR_DRAM_ENERGY_STATUS)
        ratio_limit = host.msr.read(first, HostMsr.MSR_UNCORE_RATIO_LIMIT)
        lines.append(
            f"socket{socket.socket_id} uncore={socket.uncore.freq_hz!r} "
            f"pkg_counter={pkg} dram_counter={dram} "
            f"uncore_ratio_limit={ratio_limit:#x}")
    lines.append(f"ac_energy_j={node.ac_energy_j!r}")
    return "\n".join(lines)

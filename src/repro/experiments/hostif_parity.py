"""Governor-in-the-loop parity: host interface vs direct API.

The host interface claims *write-through equivalence*: configuring the
node through the virtual sysfs tree and MSR registers performs exactly
the state mutations the internal Python API performs. This experiment
proves it the strong way — two simulations with the same seed, one
configured purely through hostif files/registers and one through the
direct calls, must produce **bit-identical** state reports (full float
``repr``, raw counter integers) after running a workload under an
active cpufreq governor. The comparison is repeated with the
steady-state fast path on and off, tying the hostif contract into the
fastpath parity guarantee of ``docs/performance.md``.

The configuration deliberately crosses every hostif surface: userspace
governor + setspeed (cpufreq sysfs), EPB (sysfs), turbo off
(IA32_MISC_ENABLE), a narrowed uncore window (MSR 0x620), and C6
disabled on the idle cores (cpuidle sysfs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.conformance.hostconfig import (
    ACTIVE_CPUS,
    CONFIGURE,
    PIN_GHZ,
    UNCORE_MAX_GHZ,
    UNCORE_MIN_GHZ,
    render_state,
)
from repro.hostif import VirtualHost
from repro.system.node import build_haswell_node
from repro.units import ms
from repro.workloads.firestarter import firestarter


def _run_variant(variant: str, fastpath: bool, seed: int,
                 measure_ns: int) -> tuple[str, str | None, int]:
    sim, node = build_haswell_node(seed=seed)
    node.set_fastpath(fastpath)
    host = VirtualHost(sim, node).start()
    CONFIGURE[variant](host)
    node.run_workload(list(ACTIVE_CPUS), firestarter())
    sim.run_for(measure_ns)
    ledger = sim.ledger.render() if sim.ledger is not None else None
    checks = sum(s.sanitize_checks for s in node.sockets)
    return render_state(host), ledger, checks


@dataclass(frozen=True)
class HostifParityResult:
    seed: int
    measure_ns: int
    # (variant, fastpath) -> rendered state
    reports: dict[tuple[str, bool], str]
    # (variant, fastpath) -> rendered RNG draw ledger; None unless the
    # runs executed under sanitize mode (REPRO_SANITIZE=1)
    ledgers: dict[tuple[str, bool], str | None] = field(default_factory=dict)
    # (variant, fastpath) -> epoch-consistency recomputes performed
    sanitize_checks: dict[tuple[str, bool], int] = field(default_factory=dict)

    def report(self, variant: str, fastpath: bool) -> str:
        return self.reports[(variant, fastpath)]

    @property
    def parity(self) -> dict[bool, bool]:
        """fastpath -> hostif report identical to direct report."""
        return {fp: self.reports[("direct", fp)] == self.reports[("hostif", fp)]
                for fp in (True, False)}

    @property
    def all_identical(self) -> bool:
        """Both variants and both fastpath settings agree bit-for-bit."""
        return len(set(self.reports.values())) == 1

    @property
    def sanitized(self) -> bool:
        """Did the runs carry RNG draw ledgers (sanitize mode on)?"""
        return bool(self.ledgers) and None not in self.ledgers.values()

    @property
    def ledgers_identical(self) -> bool:
        """All four runs drew from the same sites in the same order."""
        return self.sanitized and len(set(self.ledgers.values())) == 1

    @property
    def total_sanitize_checks(self) -> int:
        return sum(self.sanitize_checks.values())


def run_hostif_parity(seed: int = 271,
                      measure_ns: int = ms(20)) -> HostifParityResult:
    reports: dict[tuple[str, bool], str] = {}
    ledgers: dict[tuple[str, bool], str | None] = {}
    checks: dict[tuple[str, bool], int] = {}
    for fastpath in (True, False):
        for variant in ("direct", "hostif"):
            state, ledger, n_checks = _run_variant(
                variant, fastpath, seed, measure_ns)
            reports[(variant, fastpath)] = state
            ledgers[(variant, fastpath)] = ledger
            checks[(variant, fastpath)] = n_checks
    return HostifParityResult(seed=seed, measure_ns=measure_ns,
                              reports=reports, ledgers=ledgers,
                              sanitize_checks=checks)


def render_hostif_parity(result: HostifParityResult) -> str:
    lines = [
        "Host-interface parity: sysfs/MSR configuration vs direct API",
        f"(seed {result.seed}, {result.measure_ns / 1e6:.0f} ms simulated, "
        f"userspace governor @ {PIN_GHZ} GHz, EPB=0, turbo off, "
        f"uncore [{UNCORE_MIN_GHZ}, {UNCORE_MAX_GHZ}] GHz, "
        "C6 disabled on idle cores)",
        "",
    ]
    for fastpath, same in result.parity.items():
        label = "on" if fastpath else "off"
        verdict = "bit-identical" if same else "DIVERGED"
        lines.append(f"fastpath {label}: hostif vs direct -> {verdict}")
    lines.append("fastpath on vs off (direct): "
                 + ("bit-identical" if result.report("direct", True)
                    == result.report("direct", False) else "DIVERGED"))
    if result.sanitized:
        verdict = ("identical" if result.ledgers_identical
                   else "DIVERGED")
        draws = result.ledgers[("direct", True)]
        n_draws = len(draws.splitlines()) if draws else 0
        lines.append(
            f"sanitize: RNG draw ledgers across all 4 runs -> {verdict} "
            f"({n_draws} ledger entries, "
            f"{result.total_sanitize_checks} epoch-consistency checks)")
    lines.append("")
    lines.append("state (hostif, fastpath on):")
    lines.extend("  " + ln for ln in
                 result.report("hostif", True).splitlines())
    if not result.all_identical:
        for (variant, fastpath), text in sorted(result.reports.items()):
            lines.append("")
            lines.append(f"-- {variant}, fastpath {'on' if fastpath else 'off'}")
            lines.extend("  " + ln for ln in text.splitlines())
    if result.sanitized and not result.ledgers_identical:
        for (variant, fastpath), text in sorted(result.ledgers.items()):
            lines.append("")
            lines.append(f"-- ledger: {variant}, "
                         f"fastpath {'on' if fastpath else 'off'}")
            lines.extend("  " + ln for ln in (text or "").splitlines())
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``make sanitize-smoke`` entry: parity run under sanitize mode.

    Forces sanitize mode on (no need to export ``REPRO_SANITIZE``),
    runs the four-way parity experiment, and fails unless the state
    reports are bit-identical, the RNG draw ledgers agree across all
    four runs, the epoch-consistency checker actually ran, and no
    :class:`~repro.errors.EpochConsistencyError` was raised (one would
    propagate out of ``run_hostif_parity``).
    """
    import argparse

    from repro.engine import sanitize

    parser = argparse.ArgumentParser(
        description="hostif/fastpath parity under the runtime sanitizer")
    parser.add_argument("--measure-ms", type=int, default=20,
                        help="simulated time per run (default 20 ms)")
    args = parser.parse_args(argv)

    sanitize.set_enabled(True)
    try:
        result = run_hostif_parity(measure_ns=ms(args.measure_ms))
    finally:
        sanitize.set_enabled(None)
    print(render_hostif_parity(result))
    failures = []
    if not result.all_identical:
        failures.append("state reports diverged")
    if not result.sanitized:
        failures.append("runs carried no RNG draw ledger")
    elif not result.ledgers_identical:
        failures.append("RNG draw ledgers diverged")
    if result.total_sanitize_checks == 0:
        failures.append("epoch-consistency checker never ran")
    if failures:
        print("SANITIZE FAIL: " + "; ".join(failures))
        return 1
    print("SANITIZE OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

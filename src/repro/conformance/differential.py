"""Differential conformance: one experiment, every execution mode.

The simulator claims that its execution strategies are *observationally
identical*: steady-state fast path on or off, configuration through the
direct API or through the virtual host interface, executed serially or
inside pool worker processes — same seed, same events, bit for bit. The
differential driver runs the canonical conformance scenario across all
four (fastpath × variant) modes, repeats the sweep under each chaos
profile, re-runs every manifest through the parallel experiment runner
(``jobs=N``), and reports the **first divergent event with context**
when any pair disagrees.

Cross-variant comparisons ignore ``hostif-write`` events — they exist
only on the host-interface path by construction (they *are* the
configuration) — everything else must match exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.conformance.recorder import Divergence, diff_traces
from repro.conformance.scenario import (
    CHAOS_PROFILES,
    ScenarioManifest,
    make_manifest,
    run_scenario,
)
from repro.faults.runner import ExperimentRunner, ExperimentSpec
from repro.units import ms

#: The four execution modes; the first is the comparison baseline.
MODES: tuple[tuple[bool, str], ...] = (
    (True, "direct"), (True, "hostif"),
    (False, "direct"), (False, "hostif"))

#: Event kinds legitimately asymmetric between variants.
CROSS_VARIANT_IGNORE = frozenset({"hostif-write"})


def mode_key(fastpath: bool, variant: str) -> str:
    return f"{variant}/fastpath-{'on' if fastpath else 'off'}"


def _trace_jsonl(manifest_dict: dict) -> str:
    """Pool-worker builder: manifest dict in, canonical trace text out.

    Module-level (picklable) so :class:`ExperimentRunner` can fan it out
    over a ``ProcessPoolExecutor``; the canonical text rides home in the
    outcome and is byte-compared against the serial run.
    """
    return run_scenario(ScenarioManifest.from_dict(manifest_dict)).to_jsonl()


@dataclass(frozen=True)
class ModeCheck:
    """One mode's verdicts for one chaos configuration."""

    profile: str            # "" = no chaos
    fastpath: bool
    variant: str
    events: int
    fault_fires: int
    #: first divergence vs the baseline mode (None = identical, and
    #: always None for the baseline itself)
    divergence: Divergence | None
    #: serial trace text vs the same manifest run under jobs=N
    #: (None = parallel pass skipped, e.g. the worker died)
    parallel_identical: bool | None
    workload: str = "firestarter"

    @property
    def key(self) -> str:
        return mode_key(self.fastpath, self.variant)

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.parallel_identical is not False


@dataclass
class DifferentialReport:
    seed: int
    measure_ns: int
    jobs: int
    checks: list[ModeCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[ModeCheck]:
        return [c for c in self.checks if not c.ok]

    def render(self) -> str:
        lines = [
            "Differential conformance: 4 execution modes x "
            f"{{no chaos, {', '.join(sorted(CHAOS_PROFILES))}}} "
            "+ tick-heavy, "
            f"serial vs jobs={self.jobs}",
            f"(seed {self.seed}, {self.measure_ns / 1e6:.0f} ms simulated "
            "per run; cross-variant diffs ignore hostif-write)",
            "",
        ]
        for check in self.checks:
            chaos = check.profile or "no chaos"
            if check.workload != "firestarter":
                chaos = f"{check.workload}|{chaos}"
            serial = ("baseline" if check.divergence is None
                      and (check.fastpath, check.variant) == MODES[0]
                      else "bit-identical" if check.divergence is None
                      else "DIVERGED")
            par = {True: "bit-identical", False: "DIVERGED",
                   None: "skipped"}[check.parallel_identical]
            lines.append(
                f"  [{chaos:>12}] {check.key:<20} {check.events:>4} events "
                f"({check.fault_fires} faults)  vs baseline: {serial:<14} "
                f"vs jobs={self.jobs}: {par}")
            if check.divergence is not None:
                lines.append("    " + check.divergence.render()
                             .replace("\n", "\n    "))
        lines.append("")
        lines.append("CONFORMANCE OK" if self.ok else
                     f"CONFORMANCE FAIL: {len(self.failures)} mode(s) "
                     "diverged")
        return "\n".join(lines)


def run_differential(seed: int = 271, measure_ns: int = ms(10),
                     jobs: int = 4, sanitize: bool = False,
                     chaos_profiles: tuple[str, ...] = (
                         "", *sorted(CHAOS_PROFILES)),
                     workloads: tuple[str, ...] = (
                         "firestarter", "tick-heavy"),
                     ) -> DifferentialReport:
    """Run the full differential sweep and collect verdicts.

    The firestarter workload sweeps every chaos profile; the tick-heavy
    workload (all cores churning under TDP-bound turbo dither) runs the
    4 execution modes without chaos — its point is the vectorized hot
    path, and the fault machinery is already covered by the firestarter
    passes.
    """
    report = DifferentialReport(seed=seed, measure_ns=measure_ns, jobs=jobs)
    sweeps = [(w, p)
              for w in workloads
              for p in (chaos_profiles if w == "firestarter" else ("",))]
    for workload, profile in sweeps:
        manifests = [
            make_manifest(seed=seed, measure_ns=measure_ns, fastpath=fp,
                          variant=var, chaos_profile=profile,
                          sanitize=sanitize, workload=workload)
            for fp, var in MODES]
        traces = [run_scenario(m) for m in manifests]
        parallel_texts = _parallel_texts(manifests, jobs)
        baseline = traces[0]
        for (fp, var), manifest, trace, par_text in zip(
                MODES, manifests, traces, parallel_texts):
            divergence = None
            if trace is not baseline:
                divergence = diff_traces(baseline, trace,
                                         ignore_kinds=CROSS_VARIANT_IGNORE)
            parallel_identical = (None if par_text is None
                                  else par_text == trace.to_jsonl())
            report.checks.append(ModeCheck(
                profile=profile, fastpath=fp, variant=var,
                workload=workload,
                events=len(trace.events),
                fault_fires=len(trace.of_kind("fault-fire")),
                divergence=divergence,
                parallel_identical=parallel_identical))
    return report


def _parallel_texts(manifests: list[ScenarioManifest],
                    jobs: int) -> list[str | None]:
    """Each manifest's trace text as produced inside a pool worker."""
    specs = [
        ExperimentSpec(
            name=f"mode{i}",
            build=functools.partial(_trace_jsonl, m.to_dict()))
        for i, m in enumerate(manifests)]
    runner = ExperimentRunner(specs, jobs=max(2, jobs))
    outcomes = runner.run().outcomes
    return [o.text for o in outcomes]

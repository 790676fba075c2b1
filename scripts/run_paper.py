#!/usr/bin/env python3
"""One-shot paper reproduction: run every table/figure, print and save.

A pytest-free driver for users who just want the artifacts:

    python scripts/run_paper.py [--full] [--only table4 fig3 ...]

Every experiment runs under the resilient harness
(``repro.faults.runner``): a per-experiment wall-clock timeout,
exponential-backoff retries on transient faults, partial-artifact
checkpoints, and a structured outcome report — a failing experiment
degrades to a report entry instead of killing the suite.

``--jobs N`` fans independent experiments out over N worker processes.
Each experiment builds its own seeded simulator, so the report is
bit-identical to a serial run (outcomes are printed in suite order once
each worker finishes). The exception is ``--chaos``: fault plans depend
on suite-global build order, so a parallel chaos run is deterministic
but not identical to a serial chaos run.

``--chaos <seed>`` replays the full suite under a deterministic
injected fault plan (RAPL counter wraps, transient MSR read failures,
meter dropouts/glitches, PCU-tick jitter, PROCHOT throttle episodes);
see docs/fault_injection.md.

``--record <trace>`` / ``--replay <trace>`` capture and verify a
canonical conformance trace (event-for-event replay equality; see
docs/conformance.md) instead of running the suite.

``--profile`` wraps every experiment in cProfile, writes
``benchmarks/output/<name>.pstats``, and prints the top-20
cumulative-time functions per experiment (see docs/performance.md).

``--fleet N`` runs a fault-tolerant N-node fleet sweep (per-node
manufacturing variation, crash-isolated shards, checkpoint/resume; see
docs/fleet.md) instead of the table/figure suite.

``--service`` hosts the async experiment service (versioned host
datasets, crash-isolated workers, digest-verified result caching; see
docs/service.md); ``--submit sweep.json`` sends a sweep-request file to
the running service and follows it to completion.

SIGINT/SIGTERM are handled gracefully in both modes: the partial
outcome report is flushed (``run_paper_report.partial.json``, or the
fleet's checkpoints plus ``aggregate.partial.json``) and the process
exits with the distinct code 75 so callers can tell "interrupted but
resumable" from failure.

Artifacts land in benchmarks/output/ (same files the benchmark harness
writes), plus run_paper_report.json with the per-experiment outcomes.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import io
import pstats
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"))

from conftest import OUTPUT_DIR, write_artifact  # noqa: E402

from repro.cstates.states import CState  # noqa: E402
from repro.experiments import (  # noqa: E402
    ExperimentRunner,
    ExperimentSpec,
    render_cstate_figure,
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig7,
    render_fig8,
    render_hostif_parity,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    run_cstate_figure,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig7,
    run_fig8,
    run_hostif_parity,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.fig4_mechanism import (  # noqa: E402
    estimate_mechanism,
    render_fig4,
)


# ---- experiment builders ----------------------------------------------------
# Module-level functions (not lambdas) so specs pickle into --jobs worker
# processes; each takes the --full flag and returns the rendered artifact.

def _build_table1(full: bool) -> str:
    return render_table1(run_table1())


def _build_fig1(full: bool) -> str:
    return render_fig1(run_fig1())


def _build_table2(full: bool) -> str:
    return render_table2(run_table2(measure_s=4.0 if full else 1.5))


def _build_fig2(full: bool) -> str:
    return "\n\n".join(
        render_fig2(run_fig2(arch, measure_s=4.0 if full else 1.0))
        for arch in ("haswell", "sandybridge"))


def _build_table3(full: bool) -> str:
    return render_table3(run_table3(measure_s=10.0 if full else 1.0))


def _build_table4(full: bool) -> str:
    return render_table4(run_table4(n_samples=50 if full else 8))


def _build_fig3(full: bool) -> str:
    return render_fig3(run_fig3(n_samples=1000 if full else 250))


def _build_fig4(full: bool) -> str:
    return render_fig4(estimate_mechanism(n_samples=400 if full else 200))


def _build_fig5(full: bool) -> str:
    return render_cstate_figure(
        run_cstate_figure(CState.C3, n_samples=30 if full else 8))


def _build_fig6(full: bool) -> str:
    return render_cstate_figure(
        run_cstate_figure(CState.C6, n_samples=30 if full else 8))


def _build_fig7(full: bool) -> str:
    return render_fig7(run_fig7())


def _build_fig8(full: bool) -> str:
    return render_fig8(run_fig8())


def _build_table5(full: bool) -> str:
    return render_table5(run_table5(measure_s=75.0 if full else 20.0,
                                    window_s=60.0 if full else 15.0))


def _build_hostif(full: bool) -> str:
    from repro.units import ms
    return render_hostif_parity(
        run_hostif_parity(measure_ns=ms(50) if full else ms(20)))


_BUILDERS = {
    "table1": _build_table1,
    "fig1": _build_fig1,
    "table2": _build_table2,
    "fig2": _build_fig2,
    "table3": _build_table3,
    "table4": _build_table4,
    "fig3": _build_fig3,
    "fig4": _build_fig4,
    "fig5": _build_fig5,
    "fig6": _build_fig6,
    "fig7": _build_fig7,
    "fig8": _build_fig8,
    "table5": _build_table5,
    "hostif": _build_hostif,
}


class _ProfiledBuilder:
    """Picklable wrapper: run the builder under cProfile and dump stats.

    The .pstats file is written from whichever process runs the builder
    (the parent, or a --jobs worker), so profiles work in both modes.
    """

    def __init__(self, name: str, build, out_dir: str) -> None:
        self.name = name
        self.build = build
        self.out_dir = out_dir

    def __call__(self) -> str:
        profiler = cProfile.Profile()
        try:
            return profiler.runcall(self.build)
        finally:
            out = Path(self.out_dir)
            out.mkdir(exist_ok=True)
            profiler.dump_stats(out / f"{self.name}.pstats")


def _print_profile_summary(name: str, pstats_path: Path, top: int = 20) -> None:
    stream = io.StringIO()
    stats = pstats.Stats(str(pstats_path), stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print(f"--- profile {name} (top {top} cumulative) -> {pstats_path}")
    # Drop the pstats banner lines; keep the table.
    lines = stream.getvalue().splitlines()
    start = next((i for i, ln in enumerate(lines) if "ncalls" in ln), 0)
    print("\n".join(lines[start:]).rstrip())
    print()


def _experiments(full: bool) -> dict:
    return {name: functools.partial(build, full)
            for name, build in _BUILDERS.items()}


def _artifact_writer(name: str, text: str) -> Path:
    return write_artifact(f"run_paper_{name}", text)


#: Exit code for a signal-interrupted (but resumable) run; matches
#: repro.fleet.cli.EXIT_INTERRUPTED.
EXIT_INTERRUPTED = 75


class _Interrupted(BaseException):
    """Raised from the SIGINT/SIGTERM handler to unwind the suite.

    A ``BaseException`` (like ``KeyboardInterrupt``) on purpose: the
    resilient harness catches ``Exception`` broadly to keep one bad
    experiment from killing the suite, and a shutdown signal must not
    be absorbed into a per-experiment "failed" outcome.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


def _run_fleet(args) -> int:
    """Handle --fleet: a fault-tolerant N-node sweep instead of the suite."""
    from repro.errors import ReproError
    from repro.fleet.cli import drive
    from repro.fleet.plan import FleetPlan

    try:
        plan = FleetPlan(n_nodes=args.fleet, max_attempts=args.max_attempts)
        return drive(plan, Path(args.fleet_ckpt_dir), jobs=args.jobs,
                     resume=args.fleet_resume)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_service(args) -> int:
    """Handle --service: host the async experiment service (docs/service.md)."""
    from repro.service.cli import main as service_main
    return service_main(["--state-root", args.service_root,
                         "serve", "--jobs", str(args.jobs)])


def _submit_sweep(args) -> int:
    """Handle --submit: send a sweep to the running service and follow it."""
    from repro.service.cli import main as service_main
    return service_main(["--state-root", args.service_root,
                         "submit", "--sweep", args.submit, "--wait"])


def _record_or_replay(args) -> int:
    """Handle --record/--replay: conformance tracing instead of the suite."""
    from repro.conformance.replay import record_to_file, replay_file
    from repro.conformance.scenario import make_manifest
    from repro.errors import ReproError
    from repro.units import ms

    try:
        if args.replay is not None:
            report = replay_file(Path(args.replay))
            print(report.render())
            return 0 if report.match else 1
        chaos = "" if args.trace_chaos == "none" else args.trace_chaos
        manifest = make_manifest(measure_ns=ms(args.trace_ms),
                                 chaos_profile=chaos)
        trace = record_to_file(manifest, Path(args.record))
        print(f"recorded {len(trace.events)} events "
              f"(schema v{trace.schema_version}) -> {args.record}")
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-length parameterizations")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of experiment ids")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments over N worker processes "
                             "(results are bit-identical to serial)")
    parser.add_argument("--chaos", type=int, default=None, metavar="SEED",
                        help="replay the suite under a deterministic "
                             "injected fault plan with this seed")
    parser.add_argument("--chaos-profile", default="default",
                        choices=["default", "numa-link", "psu-brownout"],
                        help="fault profile for --chaos: the balanced "
                             "default, or a stress profile isolating one "
                             "fault family")
    parser.add_argument("--record", metavar="TRACE", default=None,
                        help="record the canonical conformance scenario "
                             "to this trace file and exit (see "
                             "docs/conformance.md)")
    parser.add_argument("--replay", metavar="TRACE", default=None,
                        help="replay a recorded conformance trace and "
                             "exit 1 on any event divergence")
    parser.add_argument("--trace-ms", type=int, default=10,
                        help="simulated milliseconds for --record "
                             "(default 10)")
    parser.add_argument("--trace-chaos", default="numa-link",
                        choices=["none", "numa-link", "psu-brownout"],
                        help="chaos profile baked into a --record "
                             "manifest (default numa-link)")
    parser.add_argument("--fleet", type=int, default=None, metavar="N",
                        help="run a fault-tolerant N-node fleet sweep "
                             "(crash-isolated shards, checkpoint/resume; "
                             "see docs/fleet.md) instead of the suite")
    parser.add_argument("--fleet-ckpt-dir",
                        default="benchmarks/output/fleet",
                        help="checkpoint root for --fleet")
    parser.add_argument("--fleet-resume", action="store_true",
                        help="with --fleet: finish an interrupted sweep "
                             "instead of starting fresh")
    parser.add_argument("--service", action="store_true",
                        help="host the async experiment service in the "
                             "foreground (datasets, digest-verified result "
                             "cache; see docs/service.md) instead of the "
                             "suite; --jobs sets its worker count")
    parser.add_argument("--submit", metavar="SWEEP_JSON", default=None,
                        help="submit a sweep-request JSON file to the "
                             "running service and follow it to completion "
                             "(exit 0 ok / 3 degraded / 1 failed)")
    parser.add_argument("--service-root",
                        default="benchmarks/output/service",
                        help="state root for --service/--submit (socket, "
                             "result cache, job outputs)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each experiment; write "
                             "benchmarks/output/<name>.pstats and print "
                             "the top-20 cumulative functions")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-experiment wall-clock timeout in seconds")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="attempts per experiment on transient faults")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero if any experiment hard-failed")
    args = parser.parse_args()

    if args.record is not None and args.replay is not None:
        parser.error("--record and --replay are mutually exclusive")
    if args.record is not None or args.replay is not None:
        return _record_or_replay(args)

    if args.service and args.submit is not None:
        parser.error("--service and --submit are mutually exclusive "
                     "(serve in one process, submit from another)")
    if args.service:
        if args.jobs < 1:
            parser.error("--jobs must be at least 1")
        return _run_service(args)
    if args.submit is not None:
        return _submit_sweep(args)

    if args.max_attempts < 1:
        parser.error("--max-attempts must be at least 1")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.fleet_resume and args.fleet is None:
        parser.error("--fleet-resume requires --fleet")
    if args.fleet is not None:
        if args.fleet < 1:
            parser.error("--fleet must be a positive node count")
        return _run_fleet(args)

    if args.chaos is not None and args.chaos < 0:
        parser.error("--chaos seed must be a non-negative integer")
    if args.chaos_profile != "default" and args.chaos is None:
        parser.error("--chaos-profile requires --chaos")
    if args.timeout <= 0:
        parser.error("--timeout must be a positive number of seconds")
    if args.chaos is not None and args.jobs > 1:
        print("note: --chaos with --jobs is deterministic but its fault "
              "plans differ from a serial chaos run (plans depend on "
              "suite-global build order)", file=sys.stderr)

    experiments = _experiments(args.full)
    selected = args.only if args.only else list(experiments)
    unknown = [s for s in selected if s not in experiments]
    if unknown:
        parser.error(f"unknown experiment ids {unknown}; "
                     f"valid: {sorted(experiments)}")

    if args.profile:
        experiments = {
            name: _ProfiledBuilder(name, build, str(OUTPUT_DIR))
            for name, build in experiments.items()}

    finished = []                    # outcomes seen so far (partial flush)

    def show(outcome) -> None:
        finished.append(outcome)
        print(f"### {outcome.name} " + "#" * 50)
        if outcome.text is not None:
            print(outcome.text)
        tag = f"[{outcome.duration_s:.1f} s, {outcome.status}"
        if outcome.attempts > 1:
            tag += f", {outcome.attempts} attempts"
        if outcome.error:
            tag += f", {outcome.error}"
        print(tag + (f"] -> {outcome.artifact}\n" if outcome.artifact
                     else "]\n"))

    from repro.faults import (
        DEFAULT_PROFILE, NUMA_LINK_STRESS, PSU_BROWNOUT_STRESS)
    profile = {"default": DEFAULT_PROFILE,
               "numa-link": NUMA_LINK_STRESS,
               "psu-brownout": PSU_BROWNOUT_STRESS}[args.chaos_profile]

    runner = ExperimentRunner(
        [ExperimentSpec(name=name, build=build, timeout_s=args.timeout)
         for name, build in experiments.items()],
        artifact_writer=_artifact_writer,
        max_attempts=args.max_attempts,
        chaos_seed=args.chaos,
        chaos_profile=profile,
        progress=show,
        jobs=args.jobs,
    )

    # Graceful SIGINT/SIGTERM: unwind the suite, flush the outcomes
    # collected so far as a .partial.json report, exit 75 (resumable).
    def on_signal(signum, frame) -> None:
        raise _Interrupted(signum)

    previous = {sig: signal.signal(sig, on_signal)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        report = runner.run(selected)
    except (_Interrupted, KeyboardInterrupt) as exc:
        from repro.faults.runner import SuiteReport
        name = exc.args[0] if isinstance(exc, _Interrupted) else "SIGINT"
        partial = SuiteReport(outcomes=list(finished))
        OUTPUT_DIR.mkdir(exist_ok=True)
        partial_path = OUTPUT_DIR / "run_paper_report.partial.json"
        partial_path.write_text(partial.to_stable_json())
        print(f"\ninterrupted by {name}: {len(finished)}/{len(selected)} "
              f"experiments finished", file=sys.stderr)
        print(f"partial report -> {partial_path}", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    if args.profile:
        for name in selected:
            path = OUTPUT_DIR / f"{name}.pstats"
            if path.exists():
                _print_profile_summary(name, path)

    print(report.render())
    # Stable rendering (no durations/paths): the committed report stays
    # byte-identical across machines; tests/test_run_paper_report.py
    # re-renders it and compares bytes. Subset / chaos invocations land
    # on a scratch path so CI smoke targets cannot drift the committed
    # artifact.
    canonical = (set(selected) == set(experiments)
                 and args.chaos is None and not args.full)
    report_path = OUTPUT_DIR / (
        "run_paper_report.json" if canonical
        else "run_paper_report.partial.json")
    OUTPUT_DIR.mkdir(exist_ok=True)
    report_path.write_text(report.to_stable_json())
    print(f"report -> {report_path}")

    if args.strict and report.hard_failures:
        print(f"STRICT: {len(report.hard_failures)} hard failure(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

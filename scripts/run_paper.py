#!/usr/bin/env python3
"""One-shot paper reproduction: run every table/figure, print and save.

    python scripts/run_paper.py [--full] [--only table4 fig3 ...] [--strict]

The experiments, their sizes and seeds, and the paper claims each one
owns come from the catalogue (``repro.experiments.catalog``). When every
experiment produced a result and ``--chaos`` is off, the claims are
checked on those results and printed; ``--strict`` then also exits 1 on
any deviating claim.

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
see docs/fault_injection.md. Its artifacts land in the git-ignored
``run_paper_<id>.chaos.txt``, so a chaos run leaves the committed ones
alone.

``--record <trace>`` / ``--replay <trace>`` capture and verify a
canonical conformance trace (event-for-event replay equality; see
docs/conformance.md) instead of running the suite.

``--profile`` wraps every experiment in cProfile, writes
``benchmarks/output/<name>.pstats``, and prints the top-20
cumulative-time functions per experiment (see docs/performance.md).

Fleet sweeps and the experiment service have their own CLIs,
``repro-fleet`` (docs/fleet.md) and ``repro-service`` (docs/service.md).

SIGINT/SIGTERM are handled gracefully: the partial outcome report is
flushed (``run_paper_report.partial.json``) and the process exits with
the distinct code 75 so callers can tell "interrupted but resumable"
from failure.

Artifacts land in benchmarks/output/run_paper_<id>.txt. ``--full``
runs write run_paper_<id>.full.txt (committed too; CI's paper-full job
diffs them) and ``--chaos`` runs run_paper_<id>.chaos.txt
(git-ignored), so neither overwrites the committed default-size
artifacts. The full default suite (no
``--only``, ``--chaos`` or ``--full``) also writes the committed
run_paper_report.json with the per-experiment outcomes and, when every
experiment succeeded, the paper-vs-measured EXPERIMENTS.md; a whole
``--full`` suite writes the committed EXPERIMENTS_full.md.
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

from repro.conformance.recorder import write_atomic
# perfbench loads this script and reads the fig2/table5 run/render
# pairs from it; the runner names are also used below.
from repro.experiments import (  # noqa: F401
    ExperimentRunner,
    ExperimentSpec,
    render_fig2,
    render_table5,
    run_fig2,
    run_table5,
)
from repro.experiments.catalog import CATALOG, build, check_claims
from repro.util.pool import EXIT_INTERRUPTED
from repro.validation.expectations import render_report
from repro.validation.report import write_experiments_md

REPO = Path(__file__).parents[1]
OUTPUT_DIR = REPO / "benchmarks" / "output"


class _ProfiledBuilder:
    """Picklable wrapper: run the builder under cProfile and dump stats.

    The .pstats file is written from whichever process runs the builder
    (the parent, or a --jobs worker), so profiles work in both modes.
    """

    def __init__(self, name: str, build, out_dir: str) -> None:
        self.name = name
        self.build = build
        self.out_dir = out_dir

    def __call__(self):
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
    """Catalogue name -> picklable zero-argument build, in suite order."""
    return {name: functools.partial(build, name, full) for name in CATALOG}


def _artifact_writer(name: str, text: str, suffix: str = "") -> Path:
    return write_atomic(OUTPUT_DIR / f"run_paper_{name}{suffix}.txt",
                        text + "\n")


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
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each experiment; write "
                             "benchmarks/output/<name>.pstats and print "
                             "the top-20 cumulative functions")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-experiment wall-clock timeout in seconds")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="attempts per experiment on transient faults")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero if any experiment hard-failed "
                             "or a checked paper claim deviates")
    args = parser.parse_args()

    if args.record is not None and args.replay is not None:
        parser.error("--record and --replay are mutually exclusive")
    if args.record is not None or args.replay is not None:
        return _record_or_replay(args)

    if args.max_attempts < 1:
        parser.error("--max-attempts must be at least 1")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

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
        # Paper-size and chaos results are not the committed
        # default-size artifacts: they go to their own names.
        artifact_writer=functools.partial(
            _artifact_writer,
            suffix=(".full" if args.full else "")
            + ("" if args.chaos is None else ".chaos")),
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

    # The paper's claims need every experiment's result, and chaos
    # perturbs the results by design: subset and chaos runs check none.
    results = {o.name: o.result for o in report.outcomes
               if o.result is not None}
    claims = (check_claims(results)
              if args.chaos is None and results.keys() == CATALOG.keys()
              else [])
    deviating = [c for c in claims if not c.ok]
    if claims:
        print(render_report(claims))
        # Claims mean the whole suite ran without chaos.
        target = REPO / ("EXPERIMENTS_full.md" if args.full
                         else "EXPERIMENTS.md")
        write_experiments_md(target, claims, full=args.full)
        print(f"claims -> {target}")

    if args.strict and report.hard_failures:
        print(f"STRICT: {len(report.hard_failures)} hard failure(s)",
              file=sys.stderr)
        return 1
    if args.strict and deviating:
        print(f"STRICT: {len(deviating)} paper claim(s) deviate",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

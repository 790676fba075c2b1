"""``repro-fleet``: run, resume and report fault-tolerant fleet sweeps.

    repro-fleet run --nodes 256 --jobs 8 --chaos-profile numa-link
    repro-fleet resume --ckpt-dir benchmarks/output/fleet
    repro-fleet report --ckpt-dir benchmarks/output/fleet

``run`` starts a fresh sweep of a :class:`~repro.fleet.plan.FleetPlan`
(built from flags, or loaded verbatim with ``--plan``); ``resume``
reloads the plan from an existing checkpoint namespace and runs only
the shards that have no clean checkpoint; ``report`` aggregates
whatever the namespace holds without running anything.

Exit codes: 0 — every shard completed first try; 3 — degraded (all
data present or only stragglers missing, some shards retried or timed
out); 1 — a shard failed or was lost, or a usage error; 75 — the sweep
was interrupted by SIGINT/SIGTERM after flushing checkpoints and the
partial report (resumable).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.fleet.aggregate import (
    aggregate_from_store,
    render_aggregate,
    stable_aggregate_json,
)
from repro.fleet.plan import FleetPlan
from repro.fleet.supervisor import FleetSupervisor
from repro.specs.variation import VariationModel
from repro.units import ms
from repro.util.pool import EXIT_BY_STATUS

DEFAULT_CKPT_DIR = "benchmarks/output/fleet"


def _shard_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated shard ids, got {text!r}") from exc


def _plan_from_args(args: argparse.Namespace) -> FleetPlan:
    if args.plan is not None:
        data = json.loads(Path(args.plan).read_text(encoding="utf-8"))
        return FleetPlan.from_dict(data)
    return FleetPlan(
        n_nodes=args.nodes,
        seed_root=args.seed,
        shard_size=args.shard_size,
        variation=VariationModel(),
        chaos_profile="" if args.chaos_profile == "none"
                      else args.chaos_profile,
        settle_ns=ms(args.settle_ms),
        measure_ns=ms(args.measure_ms),
        active_cores=args.active_cores,
        straggler_timeout_s=args.straggler_timeout,
        max_attempts=args.max_attempts,
        crash_shards=args.crash_shards,
        straggler_shards=args.straggler_shards,
        straggler_hold_s=args.straggler_hold)


def load_plan(ckpt_root: Path, digest: str | None) -> FleetPlan:
    """Reload the plan from a checkpoint namespace (for resume/report)."""
    if digest is not None:
        candidates = [ckpt_root / digest]
    else:
        candidates = sorted(p.parent
                            for p in ckpt_root.glob("*/plan.json"))
        if not candidates:
            raise ReproError(f"no fleet plans under {ckpt_root}")
        if len(candidates) > 1:
            raise ReproError(
                f"multiple plans under {ckpt_root}: "
                f"{', '.join(p.name for p in candidates)}; pick one "
                f"with --digest")
    plan_path = candidates[0] / "plan.json"
    try:
        data = json.loads(plan_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read {plan_path}: {exc}") from exc
    plan = FleetPlan.from_dict(data)
    if digest is not None and plan.digest() != digest:
        raise ReproError(
            f"plan under {candidates[0]} digests to {plan.digest()}, "
            f"not {digest}")
    return plan


def _write_outputs(supervisor: FleetSupervisor, report) -> tuple[Path, Path]:
    """Flush the run report and the (partial) aggregate; return paths."""
    store = supervisor.store
    run_path = store.dir / "run_report.json"
    run_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    agg = aggregate_from_store(store)
    agg_path = store.dir / (
        "aggregate.json" if agg["complete"] else "aggregate.partial.json")
    agg_path.write_text(stable_aggregate_json(agg), encoding="utf-8")
    # A completed sweep supersedes any earlier partial aggregate.
    if agg["complete"]:
        partial = store.dir / "aggregate.partial.json"
        if partial.exists():
            partial.unlink()
    print(render_aggregate(agg))
    print(f"aggregate -> {agg_path}")
    print(f"run report -> {run_path}")
    return run_path, agg_path


def drive(plan: FleetPlan, ckpt_root: Path, *, jobs: int = 4,
          resume: bool = False, inject: bool = True) -> int:
    """Run (or resume) a sweep, flush outputs, return the exit code.

    The driver behind ``repro-fleet run``/``resume``: installs signal
    handlers so SIGINT/SIGTERM flush checkpoints and a partial aggregate
    before exiting with :data:`~repro.util.pool.EXIT_INTERRUPTED`.
    """

    def show(outcome) -> None:
        if outcome.status not in ("ok", "cached"):
            print(f"  shard {outcome.shard_id:4d}: {outcome.status} "
                  f"(attempts={outcome.attempts})"
                  + (f" [{outcome.error}]" if outcome.error else ""))

    supervisor = FleetSupervisor(plan, ckpt_root, jobs=jobs, progress=show)
    print(f"{'resuming' if resume else 'sweeping'} {plan.n_nodes} nodes "
          f"({plan.n_shards} shards of {plan.shard_size}) "
          f"[{plan.digest()}]")
    report = supervisor.run(resume=resume, inject=inject,
                            install_signals=True)
    print(report.render())
    _write_outputs(supervisor, report)
    return EXIT_BY_STATUS[report.status]


def _run_or_resume(args: argparse.Namespace, *, resume: bool) -> int:
    ckpt_root = Path(args.ckpt_dir)
    if resume:
        plan = load_plan(ckpt_root, args.digest)
    else:
        plan = _plan_from_args(args)
    return drive(plan, ckpt_root, jobs=args.jobs, resume=resume,
                 inject=not getattr(args, "no_inject", False))


def _report(args: argparse.Namespace) -> int:
    ckpt_root = Path(args.ckpt_dir)
    plan = load_plan(ckpt_root, args.digest)
    supervisor = FleetSupervisor(plan, ckpt_root, jobs=1)
    agg = aggregate_from_store(supervisor.store)
    agg_path = supervisor.store.dir / (
        "aggregate.json" if agg["complete"] else "aggregate.partial.json")
    agg_path.write_text(stable_aggregate_json(agg), encoding="utf-8")
    print(render_aggregate(agg))
    print(f"aggregate -> {agg_path}")
    return 0 if agg["complete"] else 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ckpt-dir", default=DEFAULT_CKPT_DIR,
                     help="checkpoint root (namespaced by plan digest)")
    sub.add_argument("--jobs", type=int, default=4,
                     help="worker processes (default 4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="fault-tolerant fleet sweeps over simulated nodes")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="fresh sweep of a fleet plan")
    _add_common(run)
    run.add_argument("--plan", default=None, metavar="FILE",
                     help="load the exact FleetPlan from this JSON file "
                          "(all plan-shaping flags are ignored)")
    run.add_argument("--nodes", type=int, default=256)
    run.add_argument("--seed", type=int, default=0x5EED)
    run.add_argument("--shard-size", type=int, default=16)
    run.add_argument("--chaos-profile", default="none",
                     choices=["none", "numa-link", "psu-brownout"],
                     help="per-node fault plans drawn from this profile")
    run.add_argument("--settle-ms", type=int, default=1)
    run.add_argument("--measure-ms", type=int, default=5)
    run.add_argument("--active-cores", type=int, default=6)
    run.add_argument("--straggler-timeout", type=float, default=60.0,
                     help="per-shard wall-clock budget in seconds")
    run.add_argument("--max-attempts", type=int, default=3,
                     help="submissions per shard before it counts lost")
    run.add_argument("--crash-shards", type=_shard_list, default=(),
                     metavar="IDS", help="one-shot injected worker "
                     "crashes, e.g. 3,17")
    run.add_argument("--straggler-shards", type=_shard_list, default=(),
                     metavar="IDS", help="one-shot injected stalls")
    run.add_argument("--straggler-hold", type=float, default=0.0,
                     help="injected stall length in seconds")
    run.add_argument("--no-inject", action="store_true",
                     help="disarm the plan's injected process faults "
                          "without changing its digest (reference runs)")

    resume = subs.add_parser(
        "resume", help="finish the missing shards of an existing sweep")
    _add_common(resume)
    resume.add_argument("--digest", default=None,
                        help="plan digest (defaults to the only one)")

    rep = subs.add_parser("report", help="aggregate existing checkpoints")
    rep.add_argument("--ckpt-dir", default=DEFAULT_CKPT_DIR)
    rep.add_argument("--digest", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run_or_resume(args, resume=False)
        if args.command == "resume":
            return _run_or_resume(args, resume=True)
        return _report(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

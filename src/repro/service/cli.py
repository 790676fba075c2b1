"""``repro-service``: serve, submit and follow experiment sweeps.

    repro-service serve --state-root benchmarks/output/service --jobs 4
    repro-service submit --name nightly --dataset tuned \\
        --seeds 1,2,3 --variants direct,hostif --wait
    repro-service status <job-id>
    repro-service watch <job-id>
    repro-service cancel <job-id>
    repro-service jobs
    repro-service shutdown

``serve`` runs the asyncio service in the foreground until a
``shutdown`` op (or SIGINT). Every other command is a thin client over
the unix socket under ``--state-root``. ``submit`` prints the job id
and returns immediately unless ``--wait`` follows the job to
completion.

Exit codes (``submit --wait`` and ``watch``) come from
:data:`~repro.util.pool.EXIT_BY_STATUS`, as for ``repro-fleet``: 0 —
job ``ok``; 3 — job ``degraded`` (complete, but workers died and tasks
were retried); 1 — job ``failed`` (a task failed or was lost) or
``cancelled``, or a usage/connection error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.service.client import ServiceClient
from repro.service.core import ExperimentService
from repro.service.server import serve, socket_path
from repro.service.sweep import SweepRequest
from repro.units import ms
from repro.util.pool import EXIT_BY_STATUS

DEFAULT_STATE_ROOT = "benchmarks/output/service"


def _int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from exc


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def _cmd_serve(args: argparse.Namespace) -> int:
    service = ExperimentService(
        state_root=args.state_root, jobs=args.jobs,
        dataset_dirs=(args.dataset_dir, "datasets") if args.dataset_dir
        else None)
    path = socket_path(args.state_root)
    print(f"repro-service: listening on {path} "
          f"({args.jobs} workers, cache under {service.cache.root})")
    try:
        asyncio.run(serve(service, path))
    except KeyboardInterrupt:
        print("repro-service: interrupted, shutting down")
    return 0


def _request_from_args(args: argparse.Namespace) -> SweepRequest:
    if args.sweep is not None:
        data = json.loads(Path(args.sweep).read_text(encoding="utf-8"))
        return SweepRequest.from_dict(data)
    fastpath_modes = {"on": (True,), "off": (False,),
                      "both": (True, False)}[args.fastpath]
    return SweepRequest(
        name=args.name, dataset=args.dataset, seeds=args.seeds,
        variants=args.variants, fastpath_modes=fastpath_modes,
        chaos_profiles=args.chaos_profiles or ("",),
        measure_ns=ms(args.measure_ms), sanitize=args.sanitize,
        max_attempts=args.max_attempts, crash_tasks=args.crash_tasks)


def _follow(client: ServiceClient, job_id: str) -> int:
    final: dict = {}
    for event in client.watch(job_id):
        if event.get("done"):
            final = event["status"]
        elif event.get("event") == "task":
            line = (f"  task {event['task_id']:4d}: {event['status']} "
                    f"(attempts={event['attempts']})")
            if event.get("error"):
                line += f" [{event['error']}]"
            print(line)
        elif event.get("event") == "pool-rebuild":
            print(f"  pool rebuild #{event['rebuilds']} "
                  f"({event['requeued']} tasks requeued)")
        elif event.get("event") == "job":
            print(f"  job settled: {event['state']} {event['counts']}")
    if final:
        print(f"{final['job_id']}: {final['state']} "
              f"({final['cache_hits']} cache hits, "
              f"{final['pool_rebuilds']} pool rebuilds)")
    return EXIT_BY_STATUS.get(final.get("state", "failed"), 1)


def _cmd_submit(args: argparse.Namespace) -> int:
    request = _request_from_args(args)
    client = _client(args)
    job_id = client.submit(request.to_dict())
    print(f"submitted {request.name!r} as {job_id} "
          f"({request.n_tasks} tasks)")
    if args.wait:
        return _follow(client, job_id)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    print(json.dumps(_client(args).status(args.job_id),
                     indent=2, sort_keys=True))
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    jobs = _client(args).jobs()
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(f"  {job['job_id']:<24} {job['state']:<10} "
              f"{job['counts']} cache_hits={job['cache_hits']}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    return _follow(_client(args), args.job_id)


def _cmd_cancel(args: argparse.Namespace) -> int:
    status = _client(args).cancel(args.job_id)
    print(f"{status['job_id']}: {status['state']}")
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    _client(args).shutdown()
    print("service shutting down")
    return 0


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(socket_path(args.state_root),
                         timeout_s=args.timeout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Run and drive the async experiment service.")
    parser.add_argument("--state-root", default=DEFAULT_STATE_ROOT,
                        help="service state directory (socket, cache, "
                             "job outputs; default: %(default)s)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="client socket timeout in seconds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the service in the foreground")
    p.add_argument("--jobs", type=int, default=2,
                   help="worker processes (default: %(default)s)")
    p.add_argument("--dataset-dir", default="",
                   help="extra dataset search directory")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="submit a sweep")
    p.add_argument("--sweep", default=None,
                   help="sweep request JSON file (overrides the flags)")
    p.add_argument("--name", default="sweep")
    p.add_argument("--dataset", default="",
                   help="host dataset name or path to target")
    p.add_argument("--seeds", type=_int_list, default=(271,))
    p.add_argument("--variants", type=_str_list, default=("direct",))
    p.add_argument("--fastpath", choices=("on", "off", "both"),
                   default="on")
    p.add_argument("--chaos-profiles", type=_str_list, default=())
    p.add_argument("--measure-ms", type=int, default=5)
    p.add_argument("--sanitize", action="store_true")
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--crash-tasks", type=_int_list, default=(),
                   help="inject one-shot worker crashes on these task ids")
    p.add_argument("--wait", action="store_true",
                   help="follow the job to completion")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status", help="one job's status")
    p.add_argument("job_id")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("jobs", help="list all jobs")
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser("watch", help="stream a job's events")
    p.add_argument("job_id")
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser("cancel", help="cancel a running job")
    p.add_argument("job_id")
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser("shutdown", help="stop the service")
    p.set_defaults(func=_cmd_shutdown)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

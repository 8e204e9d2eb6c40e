"""Control CLI for the partitioning service.

Examples
--------
Run a service (drains and exits 0 on SIGINT/SIGTERM)::

    python -m repro.tools.servectl serve --port 8321 --queue-depth 16

Solve synchronously against it (the second run is a cache hit)::

    python -m repro.tools.servectl solve circuit.json --grid 4x4 \\
        --solver qbp --config '{"iterations": 100}' --output assignment.json

Submit asynchronously, then poll::

    python -m repro.tools.servectl submit circuit.json --grid 4x4
    python -m repro.tools.servectl status job-000000
    python -m repro.tools.servectl result job-000000 --wait

Inspect the service::

    python -m repro.tools.servectl metrics
    python -m repro.tools.servectl health
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.netlist.io import circuit_to_dict
from repro.pipeline import UnknownSolverError, get_solver, solver_names
from repro.service.client import DEFAULT_URL, ServiceClient, ServiceError
from repro.service.server import serve
from repro.tools.files import load_any_circuit
from repro.tools.partition import parse_grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.servectl",
        description="Run and talk to the long-running partitioning service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("serve", help="run the service in the foreground")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=8321)
    run.add_argument(
        "--queue-depth", type=int, default=16,
        help="bound on queued jobs; admissions past it get 429 (default 16)",
    )
    run.add_argument(
        "--threads", type=int, default=2,
        help="concurrent executor threads (default 2)",
    )
    run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool processes for multi-restart requests (default: "
        "REPRO_WORKERS, else 1)",
    )
    run.add_argument(
        "--cache-capacity", type=int, default=128,
        help="in-memory result-cache entries (default 128)",
    )
    run.add_argument(
        "--cache-spill", default=None, metavar="PATH",
        help="JSONL spill file for the result cache; loaded on start, so "
        "restarts keep their answers",
    )
    run.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="deadline applied to requests that carry none",
    )

    def add_client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url", default=DEFAULT_URL,
            help=f"service base URL (default {DEFAULT_URL})",
        )

    def add_request_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("circuit", help="circuit file (.json or .wires)")
        p.add_argument(
            "--grid", type=parse_grid, default=(4, 4), metavar="RxC",
            help="partition grid shape (default 4x4)",
        )
        capacity = p.add_mutually_exclusive_group()
        capacity.add_argument("--capacity", type=float, default=None)
        capacity.add_argument(
            "--capacity-slack", type=float, default=0.15,
            help="headroom over balanced load (default 0.15)",
        )
        p.add_argument(
            "--timing", default=None, metavar="PATH",
            help="timing-constraint JSON document",
        )
        p.add_argument(
            "--solver", default="qbp", metavar="NAME",
            help="registered solver to run: " + ", ".join(solver_names()),
        )
        p.add_argument(
            "--config", default=None, metavar="JSON",
            help="solver config document, e.g. "
            "'{\"temperature_steps\": 20}' (validated server-side too)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="per-request deadline; the solve returns its incumbent on expiry",
        )
        p.add_argument(
            "--priority", type=int, default=0,
            help="queue priority (higher runs first; default 0)",
        )

    solve = sub.add_parser("solve", help="solve synchronously")
    add_client_args(solve)
    add_request_args(solve)
    solve.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the result payload JSON here",
    )

    submit = sub.add_parser("submit", help="submit and print the job handle")
    add_client_args(submit)
    add_request_args(submit)

    status = sub.add_parser("status", help="print a job's status")
    add_client_args(status)
    status.add_argument("job_id")

    result = sub.add_parser("result", help="fetch a job's result")
    add_client_args(result)
    result.add_argument("job_id")
    result.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes instead of returning 202 status",
    )
    result.add_argument("--timeout", type=float, default=None, metavar="SECONDS")

    metrics = sub.add_parser("metrics", help="print the metrics document")
    add_client_args(metrics)

    health = sub.add_parser("health", help="print the health document")
    add_client_args(health)

    return parser


def build_request(args) -> Dict[str, Any]:
    """The request document the solve/submit subcommands send.

    The solver name is validated against the local registry before any
    bytes go on the wire (the server re-validates at admission), so an
    unknown name fails fast with the registered list.
    """
    get_solver(args.solver)  # raises UnknownSolverError with the list
    request: Dict[str, Any] = {
        "circuit": circuit_to_dict(load_any_circuit(args.circuit)),
        "grid": list(args.grid),
        "solver": args.solver,
        "seed": args.seed,
    }
    if args.config:
        config = json.loads(args.config)
        if not isinstance(config, dict):
            raise ValueError("--config must be a JSON object")
        request["config"] = config
    if args.capacity is not None:
        request["capacity"] = args.capacity
    else:
        request["capacity_slack"] = args.capacity_slack
    if args.timing:
        request["timing"] = json.loads(Path(args.timing).read_text())
    if args.deadline is not None:
        request["deadline_seconds"] = args.deadline
    if args.priority:
        request["priority"] = args.priority
    return request


def _print(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return serve(
            args.host,
            args.port,
            queue_depth=args.queue_depth,
            executor_threads=args.threads,
            workers=args.workers,
            cache_capacity=args.cache_capacity,
            spill_path=args.cache_spill,
            default_deadline=args.default_deadline,
        )
    client = ServiceClient(args.url)
    try:
        if args.command in ("solve", "submit"):
            try:
                build_request(args)  # pre-flight validation only
            except UnknownSolverError as exc:
                print(f"servectl: error: {exc}", file=sys.stderr)
                return 2
            except ValueError as exc:
                print(f"servectl: error: bad --config: {exc}", file=sys.stderr)
                return 2
        if args.command == "solve":
            payload = client.solve(build_request(args))
            if args.output:
                Path(args.output).write_text(
                    json.dumps(payload, indent=2, sort_keys=True)
                )
                print(f"wrote {args.output}")
            else:
                _print(payload)
            return 0 if payload.get("feasible") else 1
        if args.command == "submit":
            _print(client.submit(build_request(args)))
            return 0
        if args.command == "status":
            _print(client.status(args.job_id))
            return 0
        if args.command == "result":
            _print(
                client.result(
                    args.job_id, wait=args.wait, timeout=args.timeout
                )
            )
            return 0
        if args.command == "metrics":
            _print(client.metrics())
            return 0
        _print(client.health())
        return 0
    except ServiceError as exc:
        hint = ""
        if exc.status == 429 and exc.retry_after is not None:
            hint = f" (retry after {exc.retry_after:g}s)"
        print(f"servectl: {exc}{hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

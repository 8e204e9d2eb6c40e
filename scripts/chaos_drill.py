#!/usr/bin/env python
"""Chaos drill: prove a chaotic interrupted sweep converges to the truth.

The end-to-end robustness acceptance scenario (``docs/ROBUSTNESS.md``):

1. Compute an undisturbed **serial** reference: 6 circuits x Tables
   II+III = 12 rows, in-process, no faults.
2. Launch the same sweep as a child ``repro.eval.run`` process with the
   chaos profile installed via ``REPRO_FAULT_PLAN`` (worker retry /
   crash / hang / corrupt injections), 2 workers, retries and the hang
   watchdog armed, a checkpoint directory, and a JSONL trace - then
   deliver **SIGTERM mid-run**.  The child drains: in-flight circuits
   stop cooperatively, completed rows are already checkpointed, exit
   code 0.
3. Re-run the child with the same checkpoint directory (the resume).
   It skips completed rows and finishes the rest.
4. Assert the resumed rows are **bit-identical** to the reference on
   every deterministic field, that both traces validate against the
   schema gate (``scripts/check_trace.py``), and that the merged event
   stream shows exactly the injected degradation paths (retry events
   with the right failure kinds, integrity rejections) and nothing
   unexplained.

Exit codes: 0 drill passed, 1 assertion failed, 2 child run failed.

Usage (CI chaos job)::

    PYTHONPATH=src python scripts/chaos_drill.py --workdir /tmp/drill
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_trace import check_trace  # noqa: E402

from repro.eval.harness import run_table  # noqa: E402
from repro.eval.workloads import workload_names  # noqa: E402

# All four worker fault sites on the first two tasks of each table
# fan-out; attempt-0 rules are cured by the first retry, attempt-1
# rules by the second, so a policy of 3 attempts heals everything.
CHAOS_PROFILE = (
    "worker.retry:fail:tasks=0:attempts=0;"
    "worker.crash:fail:tasks=0:attempts=1;"
    "worker.hang:slow:tasks=1:seconds=30:attempts=0;"
    "worker.corrupt:fail:tasks=1:attempts=1"
)

# The degradation paths the profile must produce: task -> failure kinds
# its retry events may carry.  Anything outside this map is unexplained.
EXPECTED_RETRY_KINDS = {0: {"error", "crash"}, 1: {"hang", "integrity"}}

DETERMINISTIC_FIELDS = ("name", "with_timing", "start_cost", "all_feasible", "stop_reason")
DETERMINISTIC_CELL_FIELDS = ("cost", "improvement")
"""Per-method columns of ``row["solvers"][name]`` that must match (not cpu)."""


def deterministic(row: dict) -> tuple:
    cells = tuple(
        (name, tuple(cell[field] for field in DETERMINISTIC_CELL_FIELDS))
        for name, cell in row["solvers"].items()
    )
    return tuple(row[field] for field in DETERMINISTIC_FIELDS) + cells


def reference_rows(circuits, scale, iterations, seed) -> dict:
    """The undisturbed serial truth, computed in-process (no faults)."""
    tables = {}
    for table in (2, 3):
        rows = run_table(
            table,
            scale=scale,
            qbp_iterations=iterations,
            circuits=circuits,
            seed=seed,
            workers=1,
        )
        tables[f"table{table}"] = [row.to_dict() for row in rows]
    return tables


def child_command(args, out_json, trace, checkpoint_dir):
    return [
        sys.executable,
        "-m",
        "repro.eval.run",
        "--table",
        "all",
        "--no-paper",
        "--scale",
        str(args.scale),
        "--iterations",
        str(args.iterations),
        "--circuits",
        *args.circuits,
        "--seed",
        str(args.seed),
        "--workers",
        "2",
        "--retries",
        "3",
        "--task-timeout",
        str(args.task_timeout),
        "--checkpoint-dir",
        str(checkpoint_dir),
        "--json",
        str(out_json),
        "--trace",
        str(trace),
    ]


def run_child(args, out_json, trace, checkpoint_dir, *, sigterm_after=None):
    env = dict(os.environ)
    env["REPRO_FAULT_PLAN"] = CHAOS_PROFILE
    env.setdefault("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        child_command(args, out_json, trace, checkpoint_dir),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if sigterm_after is not None:
        time.sleep(sigterm_after)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)  # first signal: drain
    try:
        output, _ = proc.communicate(timeout=args.child_timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
        return 124, output
    return proc.returncode, output


def trace_events(path) -> list:
    events = []
    path = Path(path)
    if not path.exists():
        return events
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") == "event":
            events.append(record)
    return events


def audit_degradation(events) -> list:
    """Problems with the merged chaotic event stream (empty = ok)."""
    problems = []
    retries = [e for e in events if e["event"] == "retry"]
    rejects = [e for e in events if e["event"] == "integrity"]
    seen_kinds = set()
    for event in retries:
        allowed = EXPECTED_RETRY_KINDS.get(event["task"])
        if allowed is None or event["failure_kind"] not in allowed:
            problems.append(
                f"unexplained retry: task {event['task']} "
                f"kind {event['failure_kind']!r}"
            )
        seen_kinds.add(event["failure_kind"])
    missing = {"error", "crash", "hang", "integrity"} - seen_kinds
    if missing:
        problems.append(f"injected degradation paths never fired: {sorted(missing)}")
    for event in rejects:
        if event["task"] != 1:
            problems.append(f"unexplained integrity reject: task {event['task']}")
    if not rejects:
        problems.append("no integrity rejection recorded for worker.corrupt")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None, help="scratch dir (default: temp)")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--circuits",
        nargs="*",
        # cktc's bootstrap repair is disproportionately slow at small
        # scales; the other six keep the 12-row drill under a minute.
        default=[n for n in workload_names() if n != "cktc"],
        help="6 circuits x tables II+III = the 12-row acceptance sweep",
    )
    parser.add_argument(
        "--sigterm-after", type=float, default=3.0,
        help="seconds into the chaos run to deliver SIGTERM",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=10.0,
        help="hang watchdog deadline; must exceed the longest stretch a "
        "healthy solve goes between budget checks (its heartbeats), "
        "while staying well under the 30s injected wedge",
    )
    parser.add_argument("--child-timeout", type=float, default=600.0)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="chaos-drill-"))
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint_dir = workdir / "checkpoints"
    print(f"chaos drill: workdir {workdir}")

    print(f"[1/4] undisturbed serial reference ({len(args.circuits)} circuits x 2 tables)")
    reference = reference_rows(args.circuits, args.scale, args.iterations, args.seed)
    total_rows = sum(len(rows) for rows in reference.values())
    print(f"      {total_rows} reference rows")

    print(f"[2/4] chaos run (profile: {CHAOS_PROFILE}), SIGTERM at +{args.sigterm_after}s")
    code, output = run_child(
        args,
        workdir / "interrupted.json",
        workdir / "trace-interrupted.jsonl",
        checkpoint_dir,
        sigterm_after=args.sigterm_after,
    )
    if code != 0:
        print(output)
        print(f"chaos drill: FAIL - interrupted run exited {code}, expected drain to 0")
        return 2
    drained = "interrupted by signal" in output

    print(f"[3/4] resume with the same checkpoint dir (drained={drained})")
    code, output = run_child(
        args,
        workdir / "resumed.json",
        workdir / "trace-resumed.jsonl",
        checkpoint_dir,
    )
    if code != 0:
        print(output)
        print(f"chaos drill: FAIL - resume run exited {code}")
        return 2

    print("[4/4] verify bit-identity, trace schema, and degradation paths")
    problems = []
    resumed = json.loads((workdir / "resumed.json").read_text())
    for table_key, ref_rows in reference.items():
        got_rows = resumed.get(table_key, [])
        want = [deterministic(r) for r in ref_rows]
        got = [deterministic(r) for r in got_rows]
        if want != got:
            problems.append(
                f"{table_key}: resumed rows differ from the undisturbed "
                f"serial reference ({len(got)}/{len(want)} rows)"
            )
    for trace in ("trace-interrupted.jsonl", "trace-resumed.jsonl"):
        problems.extend(
            f"{trace}: {p}"
            for p in check_trace(workdir / trace, min_spans=1, min_events=1)
        )
    merged = trace_events(workdir / "trace-interrupted.jsonl") + trace_events(
        workdir / "trace-resumed.jsonl"
    )
    problems.extend(audit_degradation(merged))

    if problems:
        for problem in problems:
            print(f"  FAIL {problem}")
        print(f"chaos drill: FAIL ({len(problems)} problem(s))")
        return 1
    retry_count = sum(1 for e in merged if e["event"] == "retry")
    print(
        f"chaos drill: PASS - {total_rows} rows bit-identical after "
        f"SIGTERM+resume; {retry_count} retries healed "
        f"({', '.join(sorted({e['failure_kind'] for e in merged if e['event'] == 'retry'}))})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end partitioning benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload paper-tables --seed 1 --seconds 10 --trace 0

Builds the workload's circuits (set-up, repeated and timed on its own),
then runs whole passes of the workload in this one process, with
``--seed`` as the experiment seed, until ``--seconds`` have been
measured (at least one pass).  Every pass is checked for correctness
(see ``checks.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
untraced and traced passes and reports the per-layer metrics (see
``tracing.py``).  The metric names, units and directions are the ones
listed in ``BENCHMARK.json`` at the repository root.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
"""Set-up builds per run; ``setup_s`` is their median."""

# checks, tracing and workloads import the program, so they are imported
# inside functions, after import_program() has put src/ on the path.


def pin_environment() -> None:
    """One process, no worker pool, one BLAS thread, program defaults.

    Must run before numpy is imported.  ``REPRO_*`` variables (worker
    count, kernel choice, fault plans, profiling) are dropped so every
    run measures the program's defaults.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def import_program() -> None:
    """Put ``src/`` first on the path and import the program from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def code_digest() -> str:
    """Digest of the program and benchmark sources, to key count records."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def median(values: List[float]) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Set-up and passes
# ----------------------------------------------------------------------
def set_up(workload) -> Tuple[dict, float]:
    """Build the inputs ``SETUP_REPEATS`` times; the median build time."""
    times = []
    built = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = workload.build()
        times.append(time.perf_counter() - t0)
    return built, median(times)


class Outcomes:
    """Checked results of every pass of one run."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.attempted = 0
        self.failed_ops: set = set()
        self.errors: List[str] = []
        self.costs: Dict[str, float] = {}
        self.intended_starts: List[bool] = []

    def add(self, wall: float, result, index: int) -> None:
        from checks import check_pass

        check_pass(result)
        self.walls.append(wall)
        self.attempted += result.attempted
        for op, message in result.errors:
            self.failed_ops.add((index, op))
            self.errors.append(message)
        if not self.costs:
            self.costs = dict(result.costs)
            self.intended_starts = [r.start_from_intended_source for r in result.rows]
        elif result.costs != self.costs:
            self.failed_ops.add((index, "pass"))
            self.errors.append(
                f"pass {index}: costs {result.costs} differ from the first "
                f"pass {self.costs} on the same inputs"
            )

    def merge(self, traced: "Outcomes") -> None:
        """Fold in the traced passes: same checks, and the same results."""
        self.attempted += traced.attempted
        self.failed_ops |= {("traced",) + op for op in traced.failed_ops}
        self.errors += traced.errors
        if traced.costs != self.costs:
            self.failed_ops.add(("traced", "pass"))
            self.errors.append(
                f"traced costs {traced.costs} differ from untraced {self.costs}"
            )

    @property
    def failed(self) -> int:
        return min(len(self.failed_ops), max(self.attempted, 1))


def run_passes(workload, built, seed, seconds, capture, outcomes, tracers=None):
    """Run passes until ``seconds`` are measured; at least one."""
    from tracing import Tracer

    measured = 0.0
    while not outcomes.walls or measured < seconds:
        index = len(outcomes.walls)
        capture.clear()
        if tracers is None:
            t0 = time.perf_counter()
            result = workload.run(built, seed, capture)
            wall = time.perf_counter() - t0
        else:
            tracer = Tracer(run_id=f"{workload.name}-seed{seed}-pass{index}")
            with tracer.measure() as root:
                result = workload.run(built, seed, capture)
            wall = root.end - root.start
            tracers.append(tracer)
        measured += wall
        outcomes.add(wall, result, index)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(outcomes: Outcomes, setup_s: float) -> Dict[str, float]:
    failed, attempted = outcomes.failed, max(outcomes.attempted, 1)
    starts = outcomes.intended_starts
    return {
        "wall_s": median(outcomes.walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "qbp_cost": outcomes.costs.get("qbp", 0.0),
        "gfm_cost": outcomes.costs.get("gfm", 0.0),
        "gkl_cost": outcomes.costs.get("gkl", 0.0),
        "start_cost": outcomes.costs.get("start", 0.0),
        "ok_share": 1.0 - failed / attempted,
        "bootstrap_ok_share": sum(starts) / len(starts) if starts else 0.0,
    }


def per_layer(
    tracers, untraced: Outcomes, setup_s: float, record_path: Path
) -> Dict[str, float]:
    from tracing import deterministic_counts

    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {
        name: median([m[name] for m in per_pass]) for name in per_pass[0]
    }
    metrics["workloads.build_s"] = setup_s
    metrics["trace_overhead_share"] = (
        metrics["traced_wall_s"] / median(untraced.walls) - 1.0
    )

    # Counts must repeat exactly: across the traced passes of this run,
    # and against the last traced run of the same code on the same seed.
    counts = [deterministic_counts(m) for m in per_pass]
    differing = {
        name for c in counts[1:] for name in c if c[name] != counts[0][name]
    }
    digest = code_digest()
    if record_path.is_file():
        previous = json.loads(record_path.read_text())
        if previous.get("code") == digest:
            differing |= {
                name
                for name, value in counts[0].items()
                if previous["counts"].get(name, value) != value
            }
    for name in sorted(differing):
        print(f"e2ebench: count {name} differs between runs", file=sys.stderr)
    metrics["count_mismatches"] = len(differing)
    record_path.write_text(
        json.dumps({"code": digest, "counts": counts[0]}, indent=1, sort_keys=True)
    )
    return metrics


def report(spec_metrics, values, outcomes: Outcomes) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {
        "correct": not outcomes.failed_ops,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec_metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    try:
        import_program()
        spec = load_spec()
    except (ImportError, OSError, ValueError) as exc:
        print(f"e2ebench: cannot start: {exc}", file=sys.stderr)
        return 2

    from tracing import Capture
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    built, setup_s = set_up(workload)
    capture = Capture()
    untraced = Outcomes()
    with capture.installed():
        if args.trace:
            run_passes(workload, built, args.seed, args.seconds / 2, capture, untraced)
            traced, tracers = Outcomes(), []
            run_passes(
                workload, built, args.seed, args.seconds / 2, capture, traced, tracers
            )
        else:
            run_passes(workload, built, args.seed, args.seconds, capture, untraced)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        stem = f"{workload.name}-seed{args.seed}"
        tracers[-1].write(OUT / f"trace-{stem}.jsonl")
        values = per_layer(tracers, untraced, setup_s, OUT / f"counts-{stem}.json")
        untraced.merge(traced)
        result = report(spec["per_layer"], values, untraced)
    else:
        result = report(spec["end_to_end"], end_to_end(untraced, setup_s), untraced)

    for message in untraced.errors:
        print(f"e2ebench: FAILED {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""End-to-end smoke test of the partitioning service (CI job).

Boots a real server subprocess, then checks the service contract from
the outside, exactly as a client would see it:

1. the same small problem submitted twice returns **bit-identical**
   results, with the second served from the content-addressed cache
   (``service.cache_hits == 1``, one actual solve),
2. ``/metrics`` exposes a ``metrics-snapshot-v1`` document plus cache
   and queue stats, and ``/healthz`` answers with the package version,
3. SIGTERM drains: in-flight work settles, the process exits 0.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--keep-output]

Exits non-zero with a one-line reason on the first violated check.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.netlist.generate import (  # noqa: E402
    ClusteredCircuitSpec,
    generate_clustered_circuit,
)
from repro.netlist.io import circuit_to_dict  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402


def fail(reason: str) -> "int":
    print(f"service_smoke: FAIL: {reason}", file=sys.stderr)
    return 1


def wait_for_banner(process: subprocess.Popen, timeout: float = 30.0) -> str:
    """Read the server's 'serving on URL' banner; returns the URL."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise RuntimeError(
                    f"server exited early with code {process.returncode}"
                )
            time.sleep(0.05)
            continue
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            return match.group(1)
    raise RuntimeError("server never printed its serving banner")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--port", type=int, default=0,
        help="port to serve on (default 0 = ephemeral)",
    )
    args = parser.parse_args()

    spec = ClusteredCircuitSpec("smoke", num_components=16, num_wires=40)
    request = {
        "circuit": circuit_to_dict(generate_clustered_circuit(spec, seed=0)),
        "grid": [2, 2],
        "solver": "qbp",
        "config": {"iterations": 5},
        "seed": 0,
    }

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.tools.servectl", "serve",
            "--port", str(args.port), "--queue-depth", "4", "--threads", "1",
        ],
        env={**__import__("os").environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        url = wait_for_banner(process)
        print(f"service_smoke: server up at {url}")
        client = ServiceClient(url)

        first = client.solve(request)
        second = client.solve(request)
        if first != second:
            return fail("second identical request was not bit-identical")
        if first.get("stop_reason") != "completed":
            return fail(f"unexpected stop_reason {first.get('stop_reason')!r}")
        print("service_smoke: results bit-identical across the cache")

        metrics = client.metrics()
        snapshot = metrics.get("snapshot", {})
        if snapshot.get("format") != "metrics-snapshot-v1":
            return fail("metrics snapshot is not metrics-snapshot-v1")
        counters = snapshot.get("counters", {})
        if counters.get("service.cache_hits") != 1:
            return fail(
                f"expected service.cache_hits == 1, got "
                f"{counters.get('service.cache_hits')}"
            )
        if counters.get("service.completed") != 1:
            return fail(
                f"expected exactly one solve, got "
                f"{counters.get('service.completed')} completions"
            )
        if metrics.get("cache", {}).get("entries") != 1:
            return fail("cache should hold exactly one entry")
        print("service_smoke: metrics report 1 solve, 1 cache hit")

        health = client.health()
        if health.get("status") != "ok":
            return fail(f"health status {health.get('status')!r}")
        if not health.get("version"):
            return fail("health document is missing the package version")
        print(f"service_smoke: healthy (version {health['version']})")

        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            return fail("server did not exit within 30s of SIGTERM")
        if code != 0:
            return fail(f"server exited {code} after SIGTERM (expected 0)")
        print("service_smoke: SIGTERM drained cleanly, exit 0")
        print("service_smoke: OK")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        remainder = process.stdout.read()
        if remainder:
            sys.stdout.write(remainder)


if __name__ == "__main__":
    raise SystemExit(main())

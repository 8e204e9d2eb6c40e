"""Overhead guard: disabled telemetry must not slow the solver down.

The observability layer promises "zero overhead when disabled": the
ambient default is the shared ``DISABLED`` bundle, every instrument
lookup returns a null singleton, and hot loops guard event construction
behind ``tel.enabled``.  This benchmark pins that promise by timing the
same QBP run three ways:

* ``off``   - no telemetry argument (the disabled fast path),
* ``ambient`` - an enabled bundle installed ambiently,
* ``explicit`` - an enabled bundle passed via ``telemetry=``.

The profiling layer makes the same promise one level up: a profiler
that is *not armed* (no ``--profile``) must cost nothing - the disabled
bundle never touches ``Telemetry.profiler``, and the enabled span path
only pays one attribute read.  ``test_profiler_disabled_overhead`` pins
the ``off`` median against an enabled-but-unprofiled run under the same
bound as the main guard.

Run with ``pytest benchmarks/test_bench_obs_overhead.py --benchmark-only``
and compare the three medians; the ``off`` variant must match the seed's
un-instrumented timings, and the regression assertion below keeps the
disabled path honest even in a plain (non ``--benchmark-only``) run.
"""

import time

import pytest

from repro.eval.harness import shared_initial_solution
from repro.eval.workloads import build_workload
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.solvers.qbp import solve_qbp

CIRCUIT = "cktb"
ITERATIONS = 10
BENCH_SEED = 0


@pytest.fixture(scope="module")
def workload():
    # Small fixed scale: this benchmark compares the *same* run with
    # telemetry off/ambient/explicit, so absolute size only needs to be
    # big enough that solver work dominates fixture noise.
    return build_workload(CIRCUIT, scale=0.15)


@pytest.fixture(scope="module")
def initial(workload):
    return shared_initial_solution(workload, seed=BENCH_SEED)


def _run_off(problem, initial):
    return solve_qbp(problem, iterations=ITERATIONS, initial=initial, seed=0)


def _run_ambient(problem, initial):
    with use_telemetry(Telemetry.enabled_default()):
        return solve_qbp(problem, iterations=ITERATIONS, initial=initial, seed=0)


def _run_explicit(problem, initial):
    return solve_qbp(
        problem, iterations=ITERATIONS, initial=initial, seed=0,
        telemetry=Telemetry.enabled_default(),
    )


VARIANTS = {"off": _run_off, "ambient": _run_ambient, "explicit": _run_explicit}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_bench_obs_overhead(benchmark, variant, workload, initial):
    problem = workload.problem_no_timing

    result = benchmark.pedantic(
        VARIANTS[variant], args=(problem, initial), rounds=3, warmup_rounds=1
    )
    assert result.assignment is not None


def test_disabled_path_overhead_is_small(workload, initial):
    """Median disabled run within 15% of the enabled run (or faster).

    Telemetry cost is a handful of counter bumps and dataclass
    constructions per iteration, dwarfed by the linear-assignment inner
    solves - so if *disabling* it ever costs more than a sliver, the
    null-object fast path has regressed.
    """
    problem = workload.problem_no_timing

    def median_time(fn, rounds=3):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn(problem, initial)
            times.append(time.perf_counter() - start)
        return sorted(times)[rounds // 2]

    _run_off(problem, initial)  # warm caches before timing
    off = median_time(_run_off)
    explicit = median_time(_run_explicit)
    assert off <= explicit * 1.15 + 0.05


def test_profiler_disabled_overhead(workload, initial):
    """An unarmed profiler adds nothing to the disabled fast path.

    The enabled comparison run carries a telemetry bundle whose
    ``profiler`` stays ``None`` (the default - profiling is opt-in via
    ``--profile``), so its spans skip the MemorySpan wrapper; the
    disabled run must stay within the same 15% envelope as the main
    overhead guard.
    """
    problem = workload.problem_no_timing

    def run_enabled_unprofiled(problem, initial):
        tel = Telemetry.enabled_default()
        assert tel.profiler is None  # profiling stays opt-in
        return solve_qbp(
            problem, iterations=ITERATIONS, initial=initial, seed=0, telemetry=tel
        )

    def median_time(fn, rounds=3):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn(problem, initial)
            times.append(time.perf_counter() - start)
        return sorted(times)[rounds // 2]

    _run_off(problem, initial)  # warm caches before timing
    off = median_time(_run_off)
    unprofiled = median_time(run_enabled_unprofiled)
    assert off <= unprofiled * 1.15 + 0.05

"""E22 — differential-fuzzing throughput: executions per second.

The fuzz loop runs every input through a full parse + static analysis
and a complete simulated execution, so its throughput is a composite
health metric for the whole stack (parser, detector, interpreter,
memory simulator).  This experiment records executions per second for
the sequential core and the service-batched campaign driver, plus the
campaign-level divergence rate, as ``extra_info`` on the benchmark
record.  The end-to-end campaign cost is perfbench's ``fuzz`` workload
(``python3 perfbench/run.py --workload fuzz``).
"""

import os
import time

from conftest import print_table

from repro.fuzz import FuzzConfig, run_campaign
from repro.service import WorkerPool

ITERATIONS = 150
WORKERS = 4

_CORES = os.cpu_count() or 1


def test_e22_sequential_exec_rate(benchmark):
    """Throughput of the in-process mutate→oracles→merge loop."""
    config = FuzzConfig(seed=7, iterations=ITERATIONS, minimize=False)

    started = time.perf_counter()
    report = benchmark.pedantic(run_campaign, args=(config,), rounds=1)
    elapsed = time.perf_counter() - started

    execs_per_s = report.execs / elapsed if elapsed else 0.0
    benchmark.extra_info["execs"] = report.execs
    benchmark.extra_info["execs_per_s"] = round(execs_per_s, 2)
    benchmark.extra_info["divergence_rate"] = round(report.divergence_rate, 5)
    print_table(
        f"E22 sequential campaign (seed 7, {ITERATIONS} iterations)",
        ["metric", "value"],
        [
            ["executions", str(report.execs)],
            ["execs/sec", f"{execs_per_s:.1f}"],
            ["divergences", str(len(report.divergences))],
            ["divergence rate", f"{report.divergence_rate:.4f}"],
            ["un-triaged", str(len(report.untriaged))],
        ],
    )
    assert report.execs > 0
    assert report.untriaged == []


def test_e22_service_campaign_scales():
    """The batched driver keeps the workers busy: with enough cores a
    4-worker campaign beats the sequential loop on wall-clock."""
    config = FuzzConfig(seed=7, iterations=ITERATIONS, minimize=False)

    started = time.perf_counter()
    sequential = run_campaign(config)
    sequential_s = time.perf_counter() - started

    with WorkerPool(WORKERS) as pool:
        started = time.perf_counter()
        batched = run_campaign(config, pool=pool, batch_size=40)
        batched_s = time.perf_counter() - started

    print_table(
        f"E22 campaign driver ({ITERATIONS} iterations, "
        f"{WORKERS} workers, {_CORES} cores)",
        ["path", "seconds", "execs", "execs/sec"],
        [
            [
                "sequential",
                f"{sequential_s:.3f}",
                str(sequential.execs),
                f"{sequential.execs / sequential_s:.1f}",
            ],
            [
                "service batches",
                f"{batched_s:.3f}",
                str(batched.execs),
                f"{batched.execs / batched_s:.1f}",
            ],
        ],
    )
    # Both paths run the full campaign and end fully triaged.
    assert sequential.untriaged == [] and batched.untriaged == []
    assert batched.batches_failed == 0
    if _CORES >= WORKERS:
        assert batched_s < sequential_s, (
            f"expected {WORKERS}-worker campaign ({batched_s:.3f}s) to "
            f"beat sequential ({sequential_s:.3f}s) on {_CORES} cores"
        )

"""E20 — service-layer throughput: parallel sweeps and cache economics.

The claims behind docs/SERVICE.md: (1) a corpus sweep run through the
``ServiceEngine`` returns findings *identical* to the sequential
``analyze_source`` loop; (2) a warm second sweep is served almost
entirely from the result cache (>90% hit rate) and is much cheaper than
recomputing; (3) with enough cores, ≥4 process workers beat the
sequential loop on wall-clock; (4) over HTTP, a one-job request is not
queued behind a concurrent ``/matrix``: its median latency stays below
the matrix's.  Speedup numbers are always recorded in
the printed table; the strict speedup assertion only applies where the
host actually has ≥4 cores (CI runners), since a single-core box cannot
parallelize CPU-bound analysis no matter the architecture.
"""

import os
import statistics
import threading
import time
import uuid

import pytest
from conftest import print_table

from repro.analysis import analyze_source
from repro.service import ServiceClient, ServiceEngine, WorkerPool, create_server
from repro.service.workers import report_payload
from repro.workloads import corpus_sources

#: Paper corpus + reproducible generated programs = the sweep workload.
GENERATED = 120
WORKERS = 4

_CORES = os.cpu_count() or 1
_BACKEND = "process" if _CORES >= WORKERS else "thread"


def _workload():
    return corpus_sources(generated=GENERATED)


def test_e20_parallel_sweep_speedup_and_hit_rate():
    sources = _workload()

    started = time.perf_counter()
    sequential = [
        report_payload(analyze_source(source), label=label)
        for label, source in sources
    ]
    sequential_s = time.perf_counter() - started

    with ServiceEngine(workers=WORKERS, backend=_BACKEND) as engine:
        started = time.perf_counter()
        cold = engine.sweep(sources)
        cold_s = time.perf_counter() - started

        started = time.perf_counter()
        warm = engine.sweep(sources)
        warm_s = time.perf_counter() - started
        stats = engine.cache.stats()

    print_table(
        f"E20 corpus sweep ({len(sources)} programs, "
        f"{WORKERS} {_BACKEND} workers, {_CORES} cores)",
        ["path", "seconds", "speedup vs sequential"],
        [
            ["sequential analyze_source", f"{sequential_s:.4f}", "1.00x"],
            [
                "ServiceEngine.sweep, cold cache",
                f"{cold_s:.4f}",
                f"{sequential_s / cold_s:.2f}x",
            ],
            [
                "ServiceEngine.sweep, warm cache",
                f"{warm_s:.4f}",
                f"{sequential_s / warm_s:.2f}x",
            ],
        ],
    )
    print(
        f"cache: {stats['hits']} hits / {stats['misses']} misses "
        f"(hit rate {stats['hit_rate']:.2%}), {stats['stores']} stores"
    )

    # (1) findings identical to the sequential path, both runs
    assert cold == sequential
    assert warm == sequential
    # (2) the warm sweep is >90% cache hits and cheaper than recomputing
    warm_hit_rate = stats["hits"] / len(sources)
    assert warm_hit_rate > 0.90
    assert stats["stores"] == len(sources)  # nothing recomputed when warm
    assert warm_s < sequential_s
    # (3) real parallel speedup wherever the host can express it
    if _CORES >= WORKERS:
        assert cold_s < sequential_s, (
            f"expected ≥4-worker sweep ({cold_s:.3f}s) to beat "
            f"sequential ({sequential_s:.3f}s) on {_CORES} cores"
        )


def test_e20_parallel_matrix_throughput():
    from repro.matrix import attack_rows, run_sweep

    started = time.perf_counter()
    sequential = run_sweep(rows=attack_rows())
    sequential_s = time.perf_counter() - started

    with WorkerPool(WORKERS, _BACKEND) as pool:
        started = time.perf_counter()
        parallel = run_sweep(rows=attack_rows(), pool=pool)
        parallel_s = time.perf_counter() - started

    cell_count = len(sequential["rows"]) * len(sequential["defenses"])
    print_table(
        f"E20 attack × defense matrix ({cell_count} cells)",
        ["path", "seconds", "speedup"],
        [
            ["sequential run_sweep", f"{sequential_s:.4f}", "1.00x"],
            [
                f"{WORKERS} {_BACKEND} workers",
                f"{parallel_s:.4f}",
                f"{sequential_s / parallel_s:.2f}x",
            ],
        ],
    )
    assert parallel == sequential
    if _CORES >= WORKERS:
        assert parallel_s < sequential_s


def test_e20_cache_hit_latency(benchmark):
    """Latency of a fully-warm analysis request (pure cache-hit path)."""
    label, source = _workload()[0]
    with ServiceEngine(workers=2) as engine:
        engine.analyze(source, label=label)  # prime
        benchmark(engine.analyze, source, label)
        assert engine.cache.hit_rate > 0.90


#: Seconds of single requests per backend, one every ``PACE`` seconds.
LATENCY_SECONDS = 3.0
PACE = 0.03


def _single_request(client: ServiceClient, index: int) -> None:
    """One ``/exec`` or ``/analyze`` of a source no cache has seen."""
    token = uuid.uuid4().hex[:12]
    if index % 2:
        client.execute(
            f"int main(int a, int b) {{ int x{token}; x{token} = a + {index}; "
            f"return x{token}; }}",
            args=[1, 2],
        )
    else:
        client.analyze(
            f"class A{token} {{ public: double d; }};\n"
            f"void f{token}() {{ A{token} a; int x = {index}; }}"
        )


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_e20_single_request_latency_under_matrix(backend):
    """One client loops the full ``/matrix``; another sends a single
    ``/exec`` or ``/analyze`` every 30 ms.  The pool runs a one-job
    request ahead of the matrix's queued cells, so a single request
    waits for the cells already running, not for the whole matrix.

    On the thread backend the printed p50 is what a worker's 0.1 ms
    sleep between jobs protects: without it the request thread waits
    out the GIL's switch interval behind each busy worker (p50 32–51 ms
    against about 22 ms, 2-core host).  That is too noisy to assert
    here; ``TestThreadWorkersYield`` in ``tests/test_service_dispatch.py``
    pins the effect with the switch interval raised to 50 ms."""
    with ServiceEngine(workers=WORKERS, backend=backend, use_cache=False) as engine:
        server = create_server(engine, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(
            "http://127.0.0.1:%d" % server.server_address[1], timeout=120
        )
        client.matrix(attacks=["data-bss-overflow"], defenses=["none"])  # warm up
        stop = threading.Event()
        matrix_s = []

        def matrix_loop():
            while not stop.is_set():
                started = time.perf_counter()
                client.matrix()
                matrix_s.append(time.perf_counter() - started)

        looper = threading.Thread(target=matrix_loop)
        looper.start()
        single_ms = []
        try:
            time.sleep(0.2)
            deadline = time.monotonic() + LATENCY_SECONDS
            while time.monotonic() < deadline or not matrix_s:
                started = time.perf_counter()
                _single_request(client, len(single_ms))
                single_ms.append((time.perf_counter() - started) * 1000)
                time.sleep(PACE)
        finally:
            stop.set()
            looper.join(timeout=120)
            server.shutdown()
            server.server_close()

    single_ms.sort()
    p95 = single_ms[int(0.95 * (len(single_ms) - 1))]
    matrix_ms = statistics.median(matrix_s) * 1000
    print_table(
        f"E20 single-request latency under a concurrent /matrix "
        f"({WORKERS} {backend} workers, {_CORES} cores, cache off)",
        ["singles", "p50 ms", "p95 ms", "matrices", "matrix median ms"],
        [
            [
                len(single_ms),
                f"{statistics.median(single_ms):.1f}",
                f"{p95:.1f}",
                len(matrix_s),
                f"{matrix_ms:.0f}",
            ]
        ],
    )
    assert statistics.median(single_ms) < matrix_ms

"""The service engine: one object wiring cache, pool, traces and metrics.

``ServiceEngine`` is the programmatic front door used by the HTTP
server (``repro-serve``).  It owns the component lifecycles (use it
as a context manager) and exposes the interactive operations — single
analyses, parallel corpus sweeps, attack runs, the E14 matrix — as
blocking calls that run in the caller's thread (an HTTP request
thread).  Each call turns into jobs; a job is served from the result
cache when warm, or else runs once on the ``WorkerPool``, and its
result is cached.  A one-job request goes ahead of the held jobs of a
many-job one (a sweep, the gallery, a matrix) in the pool's queue.

Its metrics snapshot adds the cache's accounting and the pool's shape,
stragglers included (jobs past their deadline whose workers are still
running).  The batch workloads need none of it: they are plain
functions that take a :class:`~repro.service.workers.WorkerPool` as
``pool=`` (:func:`repro.matrix.run_sweep`,
:func:`repro.fuzz.run_campaign`, :func:`repro.regress.replay_store` and
:func:`repro.score.score_graph`), and ``repro-analyze`` calls
:func:`~repro.service.workers.run_analyze` once per file.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from ..analysis import analysis_cache_stats, parse_cached
from ..attacks import UNPROTECTED, all_attacks, attack_by_name
from ..defenses import ALL_DEFENSES, defense_by_name
from ..errors import ParseError
from ..matrix.sweep import CELL_TIMEOUT, MatrixRow, attack_rows, cell_jobs
from ..workloads.corpus import corpus_sources
from .cache import ResultCache
from .jobs import AnalyzeJob, AttackJob, ExecJob, Job, MatrixCellJob
from .metrics import MetricsRegistry, render_prometheus
from .tracing import TraceBuffer
from .workers import DEFAULT_TIMEOUT, JobFailed, WorkerPool

#: Jobs the engine holds on the pool, queued or running, before a
#: request that needs one more is shed (:class:`QueueFull`).
MAX_QUEUE = 1024


class QueueFull(RuntimeError):
    """The engine already holds :data:`MAX_QUEUE` jobs."""


def _parsed(source: str):
    """The program ``source`` parses to; a source that does not parse
    is bad input (``ValueError``), refused before any job is queued."""
    try:
        return parse_cached(source)
    except ParseError as error:
        raise ValueError(f"'source' does not parse: {error}") from None


class ServiceEngine:
    """Configured job engine with a blocking convenience API."""

    def __init__(
        self,
        workers: int = 4,
        backend: str = "thread",
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
    ):
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(directory=cache_dir) if use_cache else None
        self.pool = WorkerPool(max_workers=workers, backend=backend)
        self.traces = TraceBuffer()
        self._room = threading.Condition()
        self._held = 0

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Finish every held job, then stop the pool."""
        self.pool.shutdown()

    def __enter__(self) -> "ServiceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- running jobs ------------------------------------------------------

    def _run(self, jobs: List[Job], timeout: float, wait: bool = False) -> List[dict]:
        """Each job's result dict, in order.

        Raises :class:`QueueFull` when the engine holds :data:`MAX_QUEUE`
        jobs (with ``wait``, waits for room instead), and
        :class:`JobFailed` for the first job that fails or is not done
        ``timeout`` seconds after a worker takes it.  Either way the
        request's jobs still held are cancelled, and those a worker took
        are finished (cached, resolved) when they return.
        """
        priority = 0 if len(jobs) == 1 else 1
        started: list = []
        results: list = []
        try:
            for job in jobs:
                started.append(self._start(job, priority, wait))
            for item in started:
                results.append(self._read(*item, timeout) if isinstance(item, tuple) else item)
            return results
        except BaseException:
            # Past the results read and, once all started, the job that failed.
            for item in started[len(results) + (len(started) == len(jobs)) :]:
                if not isinstance(item, tuple):
                    continue
                if item[2].cancel():
                    item[1].record("resolved", status="cancelled")
                else:
                    item[2].add_done_callback(lambda _, item=item: self._abandon(*item))
            raise

    def _start(self, job: Job, priority: int, wait: bool):
        """The cached result of ``job``, or ``(job, trace, future,
        started)`` once it is submitted to the pool."""
        key = job.key()
        trace = self.traces.start(key, job.KIND)
        trace.record("submitted", priority=priority)
        self.metrics.counter("scheduler.jobs_submitted").inc()
        if self.cache is not None and job.CACHEABLE:
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.counter("scheduler.cache_hits").inc()
                trace.record("cache-hit")
                trace.record("resolved", status="succeeded", from_cache=True)
                return cached
        with self._room:
            while self._held >= MAX_QUEUE:
                if not wait:
                    trace.record("rejected", reason="queue-full")
                    raise QueueFull(f"work queue at capacity ({MAX_QUEUE} jobs)")
                self._room.wait()
            self._held += 1
            self.metrics.gauge("scheduler.queue_depth").set(self._held)
        trace.record("attempt")
        future = self.pool.submit(job.run, job.payload(), priority=priority)
        future.add_done_callback(self._release)
        return job, trace, future, time.monotonic()

    def _release(self, future) -> None:
        with self._room:
            self._held -= 1
            self.metrics.gauge("scheduler.queue_depth").set(self._held)
            self._room.notify()

    def _read(self, job: Job, trace, future, started: float, timeout: float) -> dict:
        """Wait for a submitted job, its deadline running from when a
        worker takes it; its result, or JobFailed."""
        self.pool.wait_started(future)
        if not self.pool.wait(future, timeout):
            self.metrics.counter("scheduler.jobs_timed_out").inc()
            trace.record("timed-out", after=timeout)
            trace.record("resolved", status="timed-out")
            raise JobFailed(f"job {trace.key} timed-out: no result within {timeout}s")
        return self._finish(job, trace, future, started)

    def _finish(self, job: Job, trace, future, started: float) -> dict:
        """A done job's result, cached; or JobFailed if its worker raised."""
        error = future.exception()
        if error is not None:
            failure = f"{type(error).__name__}: {error}"
            self.metrics.counter("scheduler.jobs_failed").inc()
            trace.record("failed", error=failure)
            trace.record("resolved", status="failed")
            raise JobFailed(f"job {trace.key} failed: {failure}")
        result = future.result()
        self.metrics.counter("scheduler.jobs_succeeded").inc()
        self.metrics.histogram("scheduler.job_seconds").observe(
            time.monotonic() - started
        )
        if self.cache is not None and job.CACHEABLE:
            if self.cache.put(trace.key, result):
                trace.record("cached")
            else:  # a failing cache never fails the job
                self.metrics.counter("scheduler.cache_write_errors").inc()
                trace.record("cache-write-error")
        trace.record("resolved", status="succeeded")
        return result

    def _abandon(self, *item) -> None:
        """Finish a job no request will read; its failure is dropped."""
        with contextlib.suppress(JobFailed):
            self._finish(*item)

    # -- analysis ----------------------------------------------------------

    def analyze(self, source: str, label: str = "", legacy: bool = False) -> dict:
        """Analyze one source, served from cache when warm."""
        _parsed(source)
        job = AnalyzeJob(source=source, label=label, legacy=legacy)
        return self._run([job], DEFAULT_TIMEOUT)[0]

    def sweep(
        self, sources: Iterable[Tuple[str, str]], legacy: bool = False
    ) -> List[dict]:
        """Analyze ``(label, source)`` pairs in parallel, preserving order."""
        jobs = [
            AnalyzeJob(source=source, label=label, legacy=legacy)
            for label, source in sources
        ]
        return self._run(jobs, DEFAULT_TIMEOUT)

    def corpus_sweep(self, legacy: bool = False) -> List[dict]:
        """Analyze the built-in paper corpus in parallel."""
        return self.sweep(corpus_sources(), legacy=legacy)

    # -- attacks -----------------------------------------------------------

    def attack(self, name: str, env: str = UNPROTECTED.label) -> dict:
        """Run one attack under one environment."""
        return self._run([AttackJob(attack=name, env=env)], DEFAULT_TIMEOUT)[0]

    def gallery(self, env: str = UNPROTECTED.label) -> List[dict]:
        """Run the whole attack gallery in parallel under one environment."""
        jobs = [AttackJob(attack=scenario.name, env=env) for scenario in all_attacks()]
        return self._run(jobs, DEFAULT_TIMEOUT)

    def matrix(
        self, attacks: Sequence[str] = (), defenses: Sequence[str] = ()
    ) -> dict:
        """The E14 attack × defense matrix as a dict.

        The sweep's attack rows (one :class:`MatrixCellJob` per cell,
        fresh environment each), projected onto the ``/matrix`` shape:
        attacks in request order (default: the gallery), defenses in
        roster order (default: all of them).  A matrix is never shed: it
        waits for room while the engine holds :data:`MAX_QUEUE` jobs.
        """
        for name in attacks:  # reject unknown names up front, not per-cell
            attack_by_name(name)
        for name in defenses:
            defense_by_name(name)
        rows = (
            [MatrixRow(kind="attack", row_id=name) for name in attacks]
            if attacks
            else attack_rows()
        )
        chosen = [
            defense.name
            for defense in ALL_DEFENSES
            if not defenses or defense.name in defenses
        ]
        jobs = [MatrixCellJob(**cell) for cell in cell_jobs(rows, chosen)]
        cells = self._run(jobs, CELL_TIMEOUT, wait=True)
        wins = dict.fromkeys(chosen, 0)
        for cell in cells:
            wins[cell["defense"]] += cell["succeeded"]
        return {
            "defenses": chosen,
            "cells": [
                {
                    "attack": cell["row_id"],
                    "defense": cell["defense"],
                    "summary": cell["summary"],
                    "succeeded": cell["succeeded"],
                    "detected_by": cell["detected_by"],
                    "crashed": cell["crashed"],
                }
                for cell in cells
            ],
            "attacks_succeeding": wins,
        }

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        source: str,
        entry: str = "main",
        args: Sequence = (),
        stdin: Sequence = (),
        canary: bool = False,
    ) -> dict:
        """Run MiniC++ source on a fresh simulated machine; a program the
        interpreter refuses to run is bad input (``ValueError``)."""
        program = _parsed(source)
        if all(function.name != entry for function in program.functions):
            raise ValueError(f"no function '{entry}'")
        job = ExecJob(
            source=source,
            entry=entry,
            args=tuple(args),
            stdin=tuple(stdin),
            canary=canary,
        )
        result = self._run([job], DEFAULT_TIMEOUT)[0]
        if "refused" in result:
            raise ValueError(result["refused"])
        return result

    # -- introspection -----------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Job + cache + pool state for the ``/metrics`` endpoint.

        ``analysis_cache`` is this process's AST, declaration and report
        LRUs; workers of the process backend keep their own, which it
        does not count.
        """
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats() if self.cache else {"enabled": False}
        snapshot["analysis_cache"] = analysis_cache_stats()
        snapshot["pool"] = {
            "backend": self.pool.backend,
            "workers": self.pool.size,
            "stragglers": self.pool.stragglers,
        }
        return snapshot

    def metrics_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        return render_prometheus(self.metrics_snapshot())

    def trace(self, key: str) -> Optional[dict]:
        """The span record of the latest submission of ``key``, if traced."""
        trace = self.traces.get(key)
        return trace.to_dict() if trace is not None else None

    def health(self) -> dict:
        """Liveness payload for ``/healthz``."""
        from .. import __version__

        return {
            "status": "ok",
            "version": __version__,
            "workers": self.pool.size,
            "backend": self.pool.backend,
            "cache": self.cache is not None,
        }

"""The job scheduler: bounded priority queue + dispatch over a worker pool.

Submission path::

    handle = scheduler.submit(AnalyzeJob(source), priority=HIGH_PRIORITY)
    result = handle.result(timeout=30)

``submit`` first consults the result cache (same job key + same
detector/config version → resolved immediately, no queueing).  Cache
misses enter a :class:`queue.PriorityQueue` of :data:`MAX_QUEUE` slots;
when the queue is full, ``submit`` raises :class:`QueueFull` instead of
blocking — the caller (e.g. the HTTP front end) decides whether to shed
load or wait.
``submit_waiting`` instead blocks until a dispatcher makes room; the
``/matrix`` route uses it.  ``repro-serve`` is the scheduler's only
user: batch commands, ``repro-analyze`` included, bypass it.

One dispatcher thread per pool worker pops jobs in priority order and
executes each once on the pool with a per-job timeout.  A worker that
raises fails the job (``FAILED``); there are no retries.

Timeouts are terminal for the *job* (``TIMED_OUT``) but not for the
pool: a job still running at its deadline cannot be stopped, so it
keeps its worker until it returns, and the pool counts it as a
straggler (:meth:`~repro.service.workers.WorkerPool.wait`).  A job's
deadline starts once fewer than ``pool.size`` stragglers are running,
so a healthy job queued behind one is not charged for its time — the
rule the batch path (:func:`~repro.service.workers.run_jobs`) follows
too.  Every job kind terminates, so every straggler gives its worker
back.

Every submission opens a :class:`~repro.service.tracing.JobTrace`;
its per-stage spans ride on :attr:`JobOutcome.trace` and remain
queryable through :attr:`Scheduler.traces` (→ ``GET /trace/<key>``).

``shutdown(wait=True)`` drains the queue then stops the dispatchers;
``wait=False`` cancels everything still queued.
"""

from __future__ import annotations

import enum
import itertools
import queue
import threading
import time
from typing import Iterable, List, Optional

from .._record import record
from .cache import ResultCache
from .jobs import NORMAL_PRIORITY, Job
from .metrics import MetricsRegistry
from .tracing import JobTrace, TraceBuffer
from .workers import DEFAULT_TIMEOUT, JobFailed, WorkerPool

#: Jobs the work queue holds before :meth:`Scheduler.submit` sheds load.
MAX_QUEUE = 1024


class QueueFull(RuntimeError):
    """The bounded work queue rejected a submission."""


class JobStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed-out"
    CANCELLED = "cancelled"


@record
class JobOutcome:
    """Everything the scheduler learned about one finished job."""

    key: str
    kind: str
    status: JobStatus
    result: Optional[dict] = None
    error: Optional[str] = None
    duration: float = 0.0
    from_cache: bool = False
    #: The job's span record (``JobTrace.to_dict()``): trace id plus one
    #: ``{stage, at, detail}`` entry per lifecycle stage.
    trace: Optional[dict] = None


class JobHandle:
    """Future-like view of one submitted job."""

    def __init__(self, job: Job):
        self.job = job
        self._event = threading.Event()
        self._outcome: Optional[JobOutcome] = None

    def _resolve(self, outcome: JobOutcome) -> None:
        self._outcome = outcome
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def outcome(self, timeout: Optional[float] = None) -> JobOutcome:
        """Block until finished and return the full outcome record."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"job {self.job.key()} still pending")
        assert self._outcome is not None
        return self._outcome

    def result(self, timeout: Optional[float] = None) -> dict:
        """The worker's result dict, raising :class:`JobFailed` otherwise."""
        outcome = self.outcome(timeout)
        if outcome.status is not JobStatus.SUCCEEDED:
            raise JobFailed(
                f"job {outcome.key} {outcome.status.value}: {outcome.error}"
            )
        assert outcome.result is not None
        return outcome.result


_STOP = object()


class Scheduler:
    """Priority scheduling, caching, timeouts, and metrics for job runs."""

    def __init__(
        self,
        pool: WorkerPool,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.pool = pool
        self.cache = cache
        self.metrics = metrics or MetricsRegistry()
        self.traces = TraceBuffer()
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue(maxsize=MAX_QUEUE)
        self._seq = itertools.count()
        self._stopping = False
        self._lock = threading.Lock()
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-dispatch-{index}",
                daemon=True,
            )
            for index in range(self.pool.size)
        ]
        for thread in self._dispatchers:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        job: Job,
        priority: int = NORMAL_PRIORITY,
        timeout: Optional[float] = None,
    ) -> JobHandle:
        """Queue one job; returns immediately with a handle.

        Raises :class:`QueueFull` when the queue is at capacity.
        """
        handle, item = self._admit(job, priority, timeout)
        if item is not None:
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                item[6].record("rejected", reason="queue-full")
                raise QueueFull(
                    f"work queue at capacity ({self._queue.maxsize} jobs)"
                ) from None
            self._queued(item)
        return handle

    def submit_waiting(
        self, job: Job, timeout: Optional[float] = None
    ) -> JobHandle:
        """Like :meth:`submit` at normal priority, but a full queue
        blocks the caller until a dispatcher takes a job off it."""
        handle, item = self._admit(job, NORMAL_PRIORITY, timeout)
        if item is not None:
            self._queue.put(item)
            self._queued(item)
        return handle

    def _admit(
        self, job: Job, priority: int, timeout: Optional[float]
    ) -> tuple:
        """Open the job's trace and resolve it from the cache when warm.

        Returns ``(handle, queue item)``; the item is None for a cache
        hit, whose handle is already resolved.
        """
        if self._stopping:
            raise RuntimeError("scheduler is shut down")
        handle = JobHandle(job)
        key = job.key()
        trace = self.traces.start(key, job.KIND)
        trace.record("submitted", priority=priority)
        self.metrics.counter("scheduler.jobs_submitted").inc()
        if self.cache is not None and job.CACHEABLE:
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.counter("scheduler.cache_hits").inc()
                trace.record("cache-hit")
                self._finish(
                    handle,
                    trace,
                    JobOutcome(
                        key=key,
                        kind=job.KIND,
                        status=JobStatus.SUCCEEDED,
                        result=cached,
                        from_cache=True,
                    ),
                )
                return handle, None
        item = (
            priority,
            next(self._seq),
            job,
            handle,
            timeout if timeout is not None else DEFAULT_TIMEOUT,
            time.monotonic(),
            trace,
        )
        return handle, item

    def _queued(self, item: tuple) -> None:
        depth = self._queue.qsize()
        item[6].record("queued", depth=depth)
        self.metrics.gauge("scheduler.queue_depth").set(depth)

    def map(
        self,
        jobs: Iterable[Job],
        priority: int = NORMAL_PRIORITY,
        **submit_kwargs,
    ) -> List[JobHandle]:
        """Submit a batch, preserving order of the returned handles."""
        return [self.submit(job, priority=priority, **submit_kwargs) for job in jobs]

    def run(self, job: Job, **submit_kwargs) -> dict:
        """Submit one job and block for its result."""
        return self.submit(job, **submit_kwargs).result()

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item[2] is _STOP:
                self._queue.task_done()
                return
            _, _, job, handle, timeout, enqueued, trace = item
            self.metrics.gauge("scheduler.queue_depth").set(self._queue.qsize())
            waited = time.monotonic() - enqueued
            self.metrics.histogram("scheduler.queue_wait_seconds").observe(waited)
            trace.record("dispatched", waited=round(waited, 6))
            if self._stopping and self._cancelled_on_shutdown(job, handle, trace):
                self._queue.task_done()
                continue
            try:
                self._execute(job, handle, timeout, trace)
            finally:
                self._queue.task_done()

    def _finish(self, handle: JobHandle, trace: JobTrace, outcome: JobOutcome) -> None:
        """Stamp the terminal span, attach the trace, resolve the handle."""
        trace.record(
            "resolved",
            status=outcome.status.value,
            from_cache=outcome.from_cache or None,
        )
        outcome.trace = trace.to_dict()
        handle._resolve(outcome)

    def _cancelled_on_shutdown(
        self, job: Job, handle: JobHandle, trace: JobTrace
    ) -> bool:
        self.metrics.counter("scheduler.jobs_cancelled").inc()
        self._finish(
            handle,
            trace,
            JobOutcome(
                key=job.key(),
                kind=job.KIND,
                status=JobStatus.CANCELLED,
                error="scheduler shut down before the job ran",
            ),
        )
        return True

    def _execute(
        self,
        job: Job,
        handle: JobHandle,
        timeout: float,
        trace: JobTrace,
    ) -> None:
        key = job.key()
        started = time.monotonic()
        busy = self.metrics.gauge("scheduler.workers_busy")
        busy.add(1)
        trace.record("attempt")
        try:
            try:
                future = self.pool.submit(job.run, job.payload())
                finished = self.pool.wait(future, timeout)
                result = future.result() if finished else None
            except Exception as error:  # worker bug or bad payload
                self._fail(handle, key, job, error, started, trace)
                return
            duration = time.monotonic() - started
            if not finished:
                self.metrics.counter("scheduler.jobs_timed_out").inc()
                trace.record("timed-out", after=timeout)
                self._finish(
                    handle,
                    trace,
                    JobOutcome(
                        key=key,
                        kind=job.KIND,
                        status=JobStatus.TIMED_OUT,
                        error=f"no result within {timeout}s",
                        duration=duration,
                    ),
                )
                return
            self.metrics.counter("scheduler.jobs_succeeded").inc()
            self.metrics.histogram("scheduler.job_seconds").observe(duration)
            if self.cache is not None and job.CACHEABLE:
                self._store(key, result, trace)
            self._finish(
                handle,
                trace,
                JobOutcome(
                    key=key,
                    kind=job.KIND,
                    status=JobStatus.SUCCEEDED,
                    result=result,
                    duration=duration,
                ),
            )
        finally:
            busy.add(-1)

    def _store(self, key: str, result: dict, trace: JobTrace) -> None:
        """Cache a success; a failing cache must never fail the job."""
        assert self.cache is not None
        try:
            durable = self.cache.put(key, result)
        except Exception as error:  # belt and braces: put() should not raise
            durable = False
            trace.record("cache-write-error", error=f"{type(error).__name__}: {error}")
        if durable:
            trace.record("cached")
        else:
            self.metrics.counter("scheduler.cache_write_errors").inc()
            trace.record("cache-write-error")

    def _fail(
        self,
        handle: JobHandle,
        key: str,
        job: Job,
        error: Exception,
        started: float,
        trace: JobTrace,
    ) -> None:
        self.metrics.counter("scheduler.jobs_failed").inc()
        trace.record("failed", error=f"{type(error).__name__}: {error}")
        self._finish(
            handle,
            trace,
            JobOutcome(
                key=key,
                kind=job.KIND,
                status=JobStatus.FAILED,
                error=f"{type(error).__name__}: {error}",
                duration=time.monotonic() - started,
            ),
        )

    # -- lifecycle ---------------------------------------------------------

    def drain(self) -> None:
        """Block until every queued and in-flight job has resolved."""
        self._queue.join()

    def shutdown(self, wait: bool = True) -> None:
        """Stop dispatching.  ``wait=True`` drains first; ``wait=False``
        cancels everything still queued."""
        with self._lock:
            if self._stopping:
                return
            if wait:
                self.drain()
            self._stopping = True
        if not wait:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item[2] is not _STOP:
                    self._cancelled_on_shutdown(item[2], item[3], item[6])
                self._queue.task_done()
        for _ in self._dispatchers:
            self._queue.put(
                (10 ** 9, next(self._seq), _STOP, None, 0, 0.0, None)
            )
        for thread in self._dispatchers:
            thread.join(timeout=5.0)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

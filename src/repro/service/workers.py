"""The service's worker functions and the executor pool that runs them.

Each of the service's job kinds names a module-level worker function
that takes the job's payload dict and returns a JSON-able result dict:
:func:`run_analyze`, :func:`run_attack` and :func:`run_exec` here, and
the matrix sweep's own ``evaluate_cell`` for ``MatrixCellJob``.  The
dict-in/dict-out contract is what makes results cacheable on disk and
transportable over the HTTP API without a second serialization layer.

``WorkerPool`` wraps a :mod:`concurrent.futures` executor and runs any
function it is handed: ``pool.submit(function, *args, priority=0)``.
It hands the executor at most ``size`` jobs at a time and holds the
rest in priority order, so ``repro-serve`` runs a one-job request ahead
of the queued cells of a matrix.  Threads (``repro-serve``'s default
backend) share the warm interpreter; batch commands run a batch in this
process on that backend, since GIL-bound units only take turns on
threads.  ``--backend process`` fans it out for real CPU parallelism,
pickling the function by reference (so module-level).

A function runs once per call: whatever it raises fails the job.  A job
still running at its deadline cannot be stopped, so it keeps its worker
until it returns; the pool counts it as a *straggler*, and
:meth:`WorkerPool.wait` starts a job's deadline only once fewer than
``pool.size`` stragglers are running.  The service engine and the
batch path (:func:`run_jobs`, which calls one function per argument
tuple, inline or on a pool) both read results through it; the engine
first waits (:meth:`WorkerPool.wait_started`) until a worker takes the
job, so time spent in the heap behind other requests never counts.

Every inline batch run loads this module, so the service workers import
their subsystem — the attack gallery, the interpreter — on first call,
and the process executor is imported only when built.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from concurrent.futures import TimeoutError as FutureTimeout
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..analysis import AnalysisReport, Finding, Severity, analyze_source, run_tool_suite
from ..errors import ApiMisuseError, LayoutError, SimulatedProcessError

if TYPE_CHECKING:
    from ..attacks.base import AttackResult

#: Seconds a job's result is waited for when its caller names no deadline.
DEFAULT_TIMEOUT = 60.0
#: Seconds a thread worker sleeps after each job, so that threads
#: waiting for the GIL get a turn (:meth:`WorkerPool._settle`).
_YIELD_SECONDS = 1e-4


class JobFailed(RuntimeError):
    """A job's function raised, or its result did not arrive in time."""


def _jsonify(value):
    """Coerce arbitrary detail values into JSON-able shapes."""
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- result serialization --------------------------------------------------


def report_payload(report: AnalysisReport, label: str = "") -> dict:
    """An :class:`AnalysisReport` as a deterministic dict."""
    return {
        "label": label,
        "tool": report.tool,
        "flagged": report.flagged,
        "findings": [
            {
                "rule": finding.rule,
                "severity": finding.severity.label(),
                "message": finding.message,
                "line": finding.line,
                "function": finding.function,
            }
            for finding in sorted(
                report.findings,
                key=lambda f: (f.line, f.rule, f.function, f.message),
            )
        ],
    }


def report_from_payload(payload: dict) -> AnalysisReport:
    """Rebuild a report object so CLI rendering matches the direct path."""
    report = AnalysisReport(tool=payload["tool"])
    for entry in payload["findings"]:
        report.add(
            Finding(
                rule=entry["rule"],
                severity=Severity[entry["severity"].upper()],
                message=entry["message"],
                line=entry["line"],
                function=entry["function"],
                tool=payload["tool"],
            )
        )
    return report


def attack_payload(result: AttackResult) -> dict:
    """An :class:`AttackResult` as a JSON-able dict."""
    from ..matrix.sweep import cell_summary

    return {
        "name": result.name,
        "paper_ref": result.paper_ref,
        "environment": result.environment,
        "succeeded": result.succeeded,
        "detected_by": result.detected_by,
        "crashed": result.crashed,
        "detail": _jsonify(result.detail),
        "events": [str(event) for event in result.events],
        "summary": cell_summary(
            result.succeeded, result.detected_by, result.crashed
        ),
    }


# -- worker functions ------------------------------------------------------


def run_analyze(payload: dict) -> dict:
    """Worker for :class:`AnalyzeJob`."""
    report = analyze_source(payload["source"])
    result = report_payload(report, label=payload.get("label", ""))
    if payload.get("legacy"):
        result["legacy"] = [
            report_payload(legacy_report)
            for _, legacy_report in run_tool_suite(payload["source"])
        ]
    return result


def run_attack(payload: dict) -> dict:
    """Worker for :class:`AttackJob`."""
    from ..attacks import attack_by_name, environment_by_label

    scenario = attack_by_name(payload["attack"])
    env = environment_by_label(payload["env"])
    return attack_payload(scenario.run(env))


def run_exec(payload: dict) -> dict:
    """Worker for :class:`ExecJob`.

    A program the interpreter refuses to run — it calls an undefined
    function, reads an undeclared variable or field or more stdin than
    it was given — is ``{"refused": message}``, not a simulated death.
    """
    from ..execution import run_source
    from ..runtime import CanaryPolicy, Machine, MachineConfig

    canary = CanaryPolicy.RANDOM if payload.get("canary") else CanaryPolicy.NONE
    machine = Machine(MachineConfig(canary_policy=canary))
    try:
        interpreter, outcome = run_source(
            payload["source"],
            entry=payload.get("entry", "main"),
            args=tuple(payload.get("args") or ()),
            machine=machine,
            stdin=tuple(payload.get("stdin") or ()),
        )
    except (ApiMisuseError, LayoutError) as error:
        return {"refused": str(error)}
    except SimulatedProcessError as error:
        return {
            "died": True,
            "error": str(error),
            "error_type": type(error).__name__,
            "events": [str(event) for event in machine.events],
        }
    frame_exit = outcome.frame_exit
    hijacked = frame_exit is not None and frame_exit.hijacked
    return {
        "died": False,
        "return_value": _jsonify(outcome.return_value),
        "steps": outcome.steps,
        "hijacked": hijacked,
        "hijack_target": frame_exit.returned_to if hijacked else None,
        "outputs": [str(output) for output in interpreter.outputs],
        "events": [str(event) for event in machine.events],
        "placements": [
            {
                "type": record.type_name,
                "size": record.size,
                "address": record.address,
                "arena_size": record.arena_size,
                "overflow": record.overflows_arena,
            }
            for record in machine.placement_log.records
        ],
    }


class WorkerPool:
    """A sized pool of job executors over threads or processes."""

    def __init__(self, max_workers: int = 4, backend: str = "thread"):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError("backend must be 'thread' or 'process'")
        self.size = max_workers
        self.backend = backend
        self._lock = threading.Lock()
        #: Notified each time a job leaves the heap (:meth:`wait_started`).
        self._moved = threading.Condition(self._lock)
        self._stragglers: list = []
        #: Jobs not yet handed to the executor, a heap by (priority,
        #: submission order), and how many the executor holds.
        self._held: list = []
        self._order = itertools.count()
        self._handed = 0
        if backend == "process":
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=max_workers)
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-worker"
            )

    def submit(self, function: Callable, *args, priority: int = 0) -> Future:
        """Queue ``function(*args)``; lower ``priority`` runs first, then
        the earlier submission.  Its future stays cancellable until it
        starts.

        The pool hands the executor at most ``size`` jobs at a time and
        holds the rest, in order: the process executor marks a job
        running as soon as it enters its call queue, before a worker is
        free, and an executor's queue is first in, first out.
        """
        future: Future = Future()
        with self._lock:
            heapq.heappush(
                self._held, (priority, next(self._order), future, function, args)
            )
        self._hand_over()
        return future

    def _hand_over(self) -> None:
        """Give held jobs to the executor while it has a free worker."""
        while True:
            with self._lock:
                if self._handed >= self.size or not self._held:
                    return
                _, _, future, function, args = heapq.heappop(self._held)
                self._moved.notify_all()
                if not future.set_running_or_notify_cancel():
                    continue
                self._handed += 1
            try:
                handed = self._executor.submit(function, *args)
            except Exception as error:  # a shut-down or broken executor
                self._settle(future, error=error)
            else:
                handed.add_done_callback(
                    lambda done, future=future: self._settle(future, done=done)
                )

    def _settle(self, future: Future, done: Optional[Future] = None, error=None) -> None:
        """Pass a handed job's outcome (or ``error``) on to its future."""
        with self._lock:
            self._handed -= 1
        if done is not None:
            error = done.exception()
        if error is None:
            future.set_result(done.result())
        else:
            future.set_exception(error)
        if self.backend == "thread":
            # A thread worker would go straight on to its next job and
            # keep every other thread (an HTTP request's included)
            # waiting out the GIL's switch interval: yield it first.
            time.sleep(_YIELD_SECONDS)
        self._hand_over()

    def _running_stragglers(self) -> list:
        with self._lock:
            self._stragglers = [job for job in self._stragglers if not job.done()]
            return list(self._stragglers)

    @property
    def stragglers(self) -> int:
        """Jobs past their deadline whose workers are still running."""
        return len(self._running_stragglers())

    def wait_started(self, future: Future) -> None:
        """Block until a submitted job has left the heap: a worker has
        taken it, or it is done or cancelled."""
        with self._moved:
            self._moved.wait_for(lambda: future.running() or future.done())

    def wait(self, future: Future, timeout: float) -> bool:
        """Wait for a submitted job; ``False`` when it blew its deadline.

        The ``timeout`` clock starts once a worker is free for the job:
        while ``size`` stragglers still hold every worker, the wait is
        for them.  A job past its deadline that never started is
        cancelled; one that is running becomes a straggler.
        """
        while not future.done():
            running = self._running_stragglers()
            if len(running) < self.size:
                break
            wait_futures([future, *running], return_when=FIRST_COMPLETED)
        try:
            future.exception(timeout=timeout)
        except FutureTimeout:
            if not future.cancel():
                with self._lock:
                    self._stragglers.append(future)
            return False
        return True

    def shutdown(self, wait: bool = True) -> None:
        if wait:
            # Jobs still held here run first, as an executor's queue does.
            with self._lock:
                held = [entry[2] for entry in self._held]
            wait_futures(held)
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class _Handle:
    """One call of a batch, run in the reading thread with no future.
    An ``Exception`` it raises, or a blown deadline on the pool
    (:meth:`WorkerPool.wait`), raises :class:`JobFailed`.
    """

    def __init__(self, function, args, index, future=None, timeout=0.0, pool=None):
        self._function = function
        self._args = args
        self._index = index
        self._future = future
        self._timeout = timeout
        self._pool = pool

    def result(self) -> dict:
        future = self._future
        if future is not None and not self._pool.wait(future, self._timeout):
            raise JobFailed(f"job {self._name()} timed-out: no result within {self._timeout}s")
        try:
            return self._function(*self._args) if future is None else future.result()
        except Exception as error:
            raise JobFailed(
                f"job {self._name()} failed: {type(error).__name__}: {error}"
            ) from error

    def _name(self) -> str:
        return f"{self._function.__name__}#{self._index}"


def run_jobs(
    function: Callable,
    arguments: Iterable[tuple],
    pool: Optional[WorkerPool] = None,
    timeout: float = DEFAULT_TIMEOUT,
):
    """One handle per argument tuple, in order, for every batch workload.

    With no pool each handle calls ``function(*args)`` inline when
    read, so both paths run the same function and fail alike.  With a
    pool at most ``2 × pool.size`` calls are submitted ahead of the
    reader, so a long batch never holds every argument and result at
    once.
    """
    if pool is None:
        for index, args in enumerate(arguments):
            yield _Handle(function, args, index)
        return
    pending: deque = deque()
    for index, args in enumerate(arguments):
        if len(pending) == 2 * pool.size:
            yield pending.popleft()
        future = pool.submit(function, *args)
        pending.append(_Handle(function, args, index, future, timeout, pool))
    yield from pending

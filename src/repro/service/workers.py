"""Worker functions and the executor pool that runs them.

Each job kind maps to a module-level function taking the job's payload
dict and returning a JSON-able result dict — module-level so the
process backend can pickle references into child interpreters.  The
dict-in/dict-out contract is what makes results cacheable on disk and
transportable over the HTTP API without a second serialization layer.

``WorkerPool`` wraps a :mod:`concurrent.futures` executor.  The thread
backend is the default (cheap startup, shares the warm interpreter);
the process backend buys real CPU parallelism for big sweeps on
multi-core hosts.  Custom job kinds registered at runtime via
:func:`register_worker` are visible to the thread backend only — child
processes import this module fresh and see just the built-in registry.

A worker runs once per job: whatever it raises fails the job, and a
worker still running at the job's deadline is abandoned by the
scheduler.  Batch workloads skip the scheduler: :func:`run_jobs` runs
their jobs inline or submits them straight to a pool, where a job past
its deadline keeps its worker until it returns.

Every inline batch run (``--jobs 0``) loads this module, so workers
import their subsystem — the matrix, the fuzzer, the score registry —
on first call, and the process executor is imported only when built.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, Iterable, Optional

from ..analysis import AnalysisReport, Finding, Severity, analyze_source, run_tool_suite
from ..attacks import attack_by_name, environment_by_label
from ..attacks.base import AttackResult
from ..errors import ApiMisuseError, LayoutError, SimulatedProcessError

#: Seconds a job's result is waited for when its caller names no deadline.
DEFAULT_TIMEOUT = 60.0


class JobFailed(RuntimeError):
    """A job's worker raised, or its result did not arrive in time."""


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
    scenario = attack_by_name(payload["attack"])
    env = environment_by_label(payload.get("env", "unprotected"))
    return attack_payload(scenario.run(env))


def run_matrix_cell(payload: dict) -> dict:
    """Worker for :class:`MatrixCellJob` (one sweep cell)."""
    from ..matrix.sweep import evaluate_cell

    return evaluate_cell(payload)


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


def run_fuzz_campaign(payload: dict) -> dict:
    """Worker for :class:`FuzzCampaignJob` (one deterministic batch).

    Imported lazily so the service layer does not pull the fuzzing
    stack in at import time (and ``repro.fuzz`` can import the service
    layer for its campaign driver without a cycle).
    """
    from ..fuzz.campaign import run_batch

    return run_batch(payload)


def run_regress_replay(payload: dict) -> dict:
    """Worker for :class:`RegressReplayJob` (one chunk of bundles).

    The bundles travel *in* the payload as canonical JSON, so the
    worker never touches the store directory — pure and process-safe.
    Lazily imported for the same reason as the fuzz worker.
    """
    from ..regress.replay import replay_bundle_json

    check_versions = payload.get("check_versions", True)
    return {
        "results": [
            replay_bundle_json(document, check_versions=check_versions)
            for document in payload.get("bundles", ())
        ]
    }


def run_score(payload: dict) -> dict:
    """Worker for :class:`ScoreJob`: one package's risk dicts.

    Propagation needs the whole graph and stays in
    :func:`repro.score.score_graph`; the worker does only the
    per-package half (parse + detect + registry mapping), which is the
    expensive part.  Lazily imported so process
    workers don't pay for the registry until they score.
    """
    from ..score.propagate import analyze_package_source

    return {
        "label": payload.get("label", ""),
        "risks": analyze_package_source(
            payload["source"], payload.get("label", "")
        ),
    }


#: Kind → worker function.  Extensible at runtime (thread backend only).
WORKER_REGISTRY: dict = {
    "analyze": run_analyze,
    "attack": run_attack,
    "matrix-cell": run_matrix_cell,
    "exec": run_exec,
    "fuzz-campaign": run_fuzz_campaign,
    "regress-replay": run_regress_replay,
    "score": run_score,
}


def register_worker(kind: str, fn: Callable[[dict], dict]) -> None:
    """Register (or replace) the worker for a job kind."""
    WORKER_REGISTRY[kind] = fn


def execute_job(kind: str, payload: dict) -> dict:
    """Dispatch one job payload to its worker (picklable entry point)."""
    try:
        worker = WORKER_REGISTRY[kind]
    except KeyError:
        raise KeyError(f"no worker registered for job kind '{kind}'")
    return worker(payload)


class WorkerPool:
    """A sized pool of job executors over threads or processes."""

    def __init__(self, max_workers: int = 4, backend: str = "thread"):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError("backend must be 'thread' or 'process'")
        self.size = max_workers
        self.backend = backend
        self._resize_lock = threading.Lock()
        self._extra_workers = 0
        if backend == "process":
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=max_workers)
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-worker"
            )

    def submit(self, kind: str, payload: dict) -> Future:
        """Queue one job on the underlying executor."""
        return self._executor.submit(execute_job, kind, payload)

    # -- capacity repair ---------------------------------------------------

    @property
    def extra_workers(self) -> int:
        """Replacement workers currently covering abandoned slots."""
        with self._resize_lock:
            return self._extra_workers

    def expand(self, count: int = 1) -> bool:
        """Grow capacity by ``count`` to cover an abandoned (hung) worker.

        Thread backend only: the executor's worker budget is raised so
        the next ``submit`` spawns a replacement thread instead of
        queueing behind the hung one.  Returns ``False`` when the
        backend cannot be resized (process pools re-fork on their own).
        """
        executor = self._executor
        if self.backend != "thread" or not hasattr(executor, "_max_workers"):
            return False
        with self._resize_lock:
            executor._max_workers += count
            self._extra_workers += count
        return True

    def shrink(self, count: int = 1) -> None:
        """Give back replacement capacity once an abandoned worker ends.

        The budget drops immediately; a surplus idle thread (the
        recovered straggler) dies with the pool rather than being
        reaped, which is the usual ThreadPoolExecutor behavior.
        """
        executor = self._executor
        if self.backend != "thread" or not hasattr(executor, "_max_workers"):
            return
        with self._resize_lock:
            count = min(count, self._extra_workers)
            if count > 0:
                executor._max_workers -= count
                self._extra_workers -= count

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class _Handle:
    """One batch job.  With no future its worker runs in the reading
    thread and any exception propagates as is; with one, a failure
    raises :class:`JobFailed`.

    The deadline runs from when a worker is free for the job.  A job
    that outlives its deadline is reported failed but keeps its worker
    until it returns (a running worker cannot be stopped), so the jobs
    queued behind it start their clocks only once fewer than
    ``pool.size`` such stragglers are still running.
    """

    def __init__(self, job, future=None, timeout=0.0, pool=None, stragglers=None):
        self.job = job
        self._future = future
        self._timeout = timeout
        self._pool = pool
        self._stragglers = stragglers

    def result(self) -> dict:
        future = self._future
        if future is None:
            return execute_job(self.job.KIND, self.job.payload())
        stragglers = self._stragglers
        while not future.done():
            stragglers[:] = [running for running in stragglers if not running.done()]
            if len(stragglers) < self._pool.size:
                break
            wait(stragglers, return_when=FIRST_COMPLETED)
        try:
            error = future.exception(timeout=self._timeout)
        except FutureTimeout:
            if not future.cancel():  # a job that never started does not run late
                stragglers.append(future)
            raise JobFailed(
                f"job {self.job.key()} timed-out: no result within {self._timeout}s"
            ) from None
        if error is not None:
            raise JobFailed(
                f"job {self.job.key()} failed: {type(error).__name__}: {error}"
            )
        return future.result()


def run_jobs(
    jobs: Iterable, pool: Optional[WorkerPool] = None, timeout: float = DEFAULT_TIMEOUT
):
    """One handle per job, in job order, for every batch workload.

    With no pool each handle runs its job's worker inline when read —
    the same function the pool runs — so ``--jobs 0`` and ``--jobs N``
    share one code path.  With a pool at most ``2 × pool.size`` jobs are
    submitted ahead of the reader, so a long batch never holds every
    payload and result at once.
    """
    if pool is None:
        yield from map(_Handle, jobs)
        return
    pending: deque = deque()
    stragglers: list = []
    for job in jobs:
        if len(pending) == 2 * pool.size:
            yield pending.popleft()
        future = pool.submit(job.KIND, job.payload())
        pending.append(_Handle(job, future, timeout, pool, stragglers))
    yield from pending

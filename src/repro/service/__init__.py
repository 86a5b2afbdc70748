"""The service layer: concurrent, cached analysis/attack job execution.

The repo's first concurrency, caching, and networking subsystem.  Jobs
(:mod:`jobs`) are content-addressed work specs; the scheduler
(:mod:`scheduler`) runs them on a worker pool (:mod:`workers`) behind a
result cache (:mod:`cache`) with full metrics accounting
(:mod:`metrics`); :mod:`server`/:mod:`client` expose everything over a
stdlib JSON API, and :class:`~repro.service.engine.ServiceEngine` ties
the lifecycle together.  Batch workloads skip the scheduler and hand
their jobs straight to a pool (:func:`~repro.service.workers.run_jobs`).
See ``docs/SERVICE.md``.
"""

import importlib

#: Public name -> the submodule that defines it.  Loaded on first
#: access (PEP 562), so a batch command that runs its jobs inline never
#: imports the HTTP server, the client or the engine.
_EXPORTS = {
    **dict.fromkeys(("ResultCache", "default_cache_version"), "cache"),
    **dict.fromkeys(
        ("ServiceClient", "ServiceError", "ServiceUnavailable", "backoff_delay"),
        "client",
    ),
    "ServiceEngine": "engine",
    **dict.fromkeys(
        (
            "HIGH_PRIORITY",
            "LOW_PRIORITY",
            "NORMAL_PRIORITY",
            "AnalyzeJob",
            "AttackJob",
            "ExecJob",
            "Job",
            "RegressReplayJob",
        ),
        "jobs",
    ),
    **dict.fromkeys(
        ("Counter", "Gauge", "Histogram", "MetricsRegistry", "render_prometheus"),
        "metrics",
    ),
    **dict.fromkeys(
        ("JobHandle", "JobOutcome", "JobStatus", "QueueFull", "Scheduler"),
        "scheduler",
    ),
    **dict.fromkeys(("ServiceHTTPServer", "create_server"), "server"),
    **dict.fromkeys(("JobTrace", "TraceBuffer", "TraceSpan"), "tracing"),
    **dict.fromkeys(
        (
            "JobFailed",
            "WorkerPool",
            "execute_job",
            "register_worker",
            "report_from_payload",
            "report_payload",
            "run_jobs",
        ),
        "workers",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

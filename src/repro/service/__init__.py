"""The service layer: concurrent, cached analysis/attack job execution.

The repo's first concurrency, caching, and networking subsystem.  Jobs
(:mod:`jobs`) are content-addressed work specs;
:class:`~repro.service.engine.ServiceEngine` runs them on a worker pool
(:mod:`workers`) behind a result cache (:mod:`cache`) with full metrics
accounting (:mod:`metrics`), and :mod:`server`/:mod:`client` expose
everything over a stdlib JSON API.  Batch workloads build no jobs: they
run a function over its argument tuples inline, or on a process pool
(:func:`~repro.service.workers.run_jobs`).
See ``docs/SERVICE.md``.
"""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it.  Loaded on first
#: access (see :mod:`repro._exports`), so a batch command that runs its
#: jobs inline never imports the HTTP server, the client or the engine.
_EXPORTS = {
    **dict.fromkeys(("ResultCache", "default_cache_version"), "cache"),
    **dict.fromkeys(
        ("ServiceClient", "ServiceError", "ServiceUnavailable", "backoff_delay"),
        "client",
    ),
    **dict.fromkeys(("QueueFull", "ServiceEngine"), "engine"),
    **dict.fromkeys(("AnalyzeJob", "AttackJob", "ExecJob", "Job"), "jobs"),
    **dict.fromkeys(
        ("Counter", "Gauge", "Histogram", "MetricsRegistry", "render_prometheus"),
        "metrics",
    ),
    **dict.fromkeys(("ServiceHTTPServer", "create_server"), "server"),
    **dict.fromkeys(("JobTrace", "TraceBuffer"), "tracing"),
    **dict.fromkeys(
        (
            "JobFailed",
            "WorkerPool",
            "report_from_payload",
            "report_payload",
            "run_jobs",
        ),
        "workers",
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

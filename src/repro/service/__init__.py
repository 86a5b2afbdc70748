"""The service layer: concurrent, cached analysis/attack job execution.

The repo's first concurrency, caching, and networking subsystem.  Jobs
(:mod:`jobs`) are content-addressed work specs; the scheduler
(:mod:`scheduler`) runs them on a worker pool (:mod:`workers`) behind a
result cache (:mod:`cache`) with full metrics accounting
(:mod:`metrics`); :mod:`server`/:mod:`client` expose everything over a
stdlib JSON API, and :class:`~repro.service.engine.ServiceEngine` ties
the lifecycle together.  See ``docs/SERVICE.md``.
"""

from .cache import ResultCache, default_cache_version
from .client import ServiceClient, ServiceError, ServiceUnavailable, backoff_delay
from .engine import ServiceEngine
from .jobs import (
    HIGH_PRIORITY,
    LOW_PRIORITY,
    NORMAL_PRIORITY,
    AnalyzeJob,
    AttackJob,
    ExecJob,
    Job,
    RegressReplayJob,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, render_prometheus
from .scheduler import (
    JobFailed,
    JobHandle,
    JobOutcome,
    JobStatus,
    QueueFull,
    Scheduler,
)
from .server import ServiceHTTPServer, create_server
from .tracing import JobTrace, TraceBuffer, TraceSpan
from .workers import (
    WorkerPool,
    execute_job,
    register_worker,
    report_from_payload,
    report_payload,
)

__all__ = [
    "AnalyzeJob",
    "AttackJob",
    "Counter",
    "ExecJob",
    "Gauge",
    "HIGH_PRIORITY",
    "Histogram",
    "Job",
    "JobFailed",
    "JobHandle",
    "JobOutcome",
    "JobStatus",
    "JobTrace",
    "LOW_PRIORITY",
    "MetricsRegistry",
    "NORMAL_PRIORITY",
    "QueueFull",
    "RegressReplayJob",
    "ResultCache",
    "Scheduler",
    "ServiceClient",
    "ServiceEngine",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceUnavailable",
    "TraceBuffer",
    "TraceSpan",
    "WorkerPool",
    "backoff_delay",
    "create_server",
    "default_cache_version",
    "execute_job",
    "register_worker",
    "render_prometheus",
    "report_from_payload",
    "report_payload",
]

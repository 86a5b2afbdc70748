"""End-to-end job tracing: per-stage spans in a bounded ring buffer.

Every job submitted to the scheduler gets a trace id and a
:class:`JobTrace` that records one :class:`TraceSpan` per lifecycle
stage — ``submitted``, ``queued`` (or ``cache-hit``), ``dispatched``,
``attempt``, and a terminal ``resolved`` — each stamped with the
elapsed seconds since submission.  The finished span list rides on
:attr:`~repro.service.scheduler.JobOutcome.trace` and stays queryable
after the fact through the scheduler's :class:`TraceBuffer`, which the
HTTP server exposes as ``GET /trace/<key>``.

The buffer is a fixed-capacity ring keyed by job key (a re-submitted
job replaces its older trace), so tracing is always on without growing
without bound under sustained load.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass
class TraceSpan:
    """One lifecycle stage: name, seconds since submit, free-form detail."""

    stage: str
    at: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        span = {"stage": self.stage, "at": self.at}
        if self.detail:
            span["detail"] = self.detail
        return span


class JobTrace:
    """The ordered span record for one submitted job."""

    def __init__(
        self,
        trace_id: str,
        key: str,
        kind: str,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.trace_id = trace_id
        self.key = key
        self.kind = kind
        self._clock = clock
        self._started = clock()
        self._spans: List[TraceSpan] = []
        self._lock = threading.Lock()

    def record(self, stage: str, **detail) -> None:
        """Append one span stamped with the elapsed time since submit."""
        span = TraceSpan(
            stage=stage,
            at=round(self._clock() - self._started, 6),
            detail={k: v for k, v in detail.items() if v is not None},
        )
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> List[TraceSpan]:
        with self._lock:
            return list(self._spans)

    def stages(self) -> List[str]:
        """Just the stage names, in order (handy for assertions)."""
        return [span.stage for span in self.spans]

    def to_dict(self) -> dict:
        """JSON-able shape served by ``GET /trace/<key>``."""
        return {
            "trace_id": self.trace_id,
            "key": self.key,
            "kind": self.kind,
            "spans": [span.to_dict() for span in self.spans],
        }


class TraceBuffer:
    """Fixed-capacity ring of the most recent trace per job key."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._traces: dict = {}  # key -> JobTrace, insertion-ordered
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.evicted = 0

    def start(self, key: str, kind: str) -> JobTrace:
        """Open (and retain) a fresh trace for one submission of ``key``."""
        trace = JobTrace(f"t{next(self._ids):06d}-{key[:18]}", key, kind)
        with self._lock:
            self._traces.pop(key, None)  # re-submit replaces the old trace
            self._traces[key] = trace
            while len(self._traces) > self.capacity:
                oldest = next(iter(self._traces))
                del self._traces[oldest]
                self.evicted += 1
        return trace

    def get(self, key: str) -> Optional[JobTrace]:
        with self._lock:
            return self._traces.get(key)

    def keys(self) -> List[str]:
        """Traced job keys, oldest first."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

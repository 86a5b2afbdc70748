"""End-to-end job tracing: per-stage spans in a bounded ring buffer.

Every job a :class:`~repro.service.engine.ServiceEngine` request
submits gets a trace id and a :class:`JobTrace` that records one span
per lifecycle stage — ``submitted``, then
``cache-hit`` or ``attempt``, then ``failed``, ``timed-out``,
``cached`` or ``cache-write-error`` as they happen, and a terminal
``resolved`` — each stamped with the elapsed seconds since submission.
The engine's :class:`TraceBuffer` keeps the span list queryable after
the fact; the HTTP server exposes it as ``GET /trace/<key>``.

The buffer is a fixed-capacity ring keyed by job key (a re-submitted
job replaces its older trace), so tracing is always on without growing
without bound under sustained load.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import List, Optional


class JobTrace:
    """The ordered span record for one submitted job: each span is
    ``{stage, at}`` (seconds since submission) plus its ``detail``, if
    any."""

    def __init__(self, trace_id: str, key: str, kind: str):
        self.trace_id = trace_id
        self.key = key
        self.kind = kind
        self._started = time.monotonic()
        self._spans: List[dict] = []
        self._lock = threading.Lock()

    def record(self, stage: str, **detail) -> None:
        """Append one span stamped with the elapsed time since submit."""
        span = {"stage": stage, "at": round(time.monotonic() - self._started, 6)}
        detail = {name: value for name, value in detail.items() if value is not None}
        if detail:
            span["detail"] = detail
        with self._lock:
            self._spans.append(span)

    def to_dict(self) -> dict:
        """JSON-able shape served by ``GET /trace/<key>``."""
        with self._lock:
            spans = list(self._spans)
        return {
            "trace_id": self.trace_id,
            "key": self.key,
            "kind": self.kind,
            "spans": spans,
        }


class TraceBuffer:
    """Fixed-capacity ring of the most recent trace per job key."""

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._traces: dict = {}  # key -> JobTrace, insertion-ordered
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def start(self, key: str, kind: str) -> JobTrace:
        """Open (and retain) a fresh trace for one submission of ``key``."""
        trace = JobTrace(f"t{next(self._ids):06d}-{key[:18]}", key, kind)
        with self._lock:
            self._traces.pop(key, None)  # re-submit replaces the old trace
            self._traces[key] = trace
            while len(self._traces) > self.capacity:
                del self._traces[next(iter(self._traces))]
        return trace

    def get(self, key: str) -> Optional[JobTrace]:
        with self._lock:
            return self._traces.get(key)

    def keys(self) -> List[str]:
        """Traced job keys, oldest first."""
        with self._lock:
            return list(self._traces)

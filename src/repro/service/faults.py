"""Deterministic fault injection for the service layer.

The paper's DoS experiments (Section 4.4) weaponize overflows into
denial of service; this module lets us turn the same hostility on our
own scheduler, cache and worker stack and prove every induced fault still
resolves to a terminal :class:`~repro.service.scheduler.JobStatus`.

A :class:`FaultPlan` is a small, thread-safe list of :class:`FaultRule`
entries.  Components that own a fault *seam* (the worker pool, the
result cache, the scheduler's dispatch path) call
:meth:`FaultPlan.activate` with the fault kinds they know how to honor;
the plan returns the first matching rule (decrementing its remaining
activation budget) or ``None``.  The seam — not the plan — interprets
the rule, so this module imports nothing from its siblings and the
injection points stay visible in the production code instead of hiding
behind monkeypatches.

Seam ownership:

- ``workers.py`` honors :data:`WORKER_FAULTS` (``crash``, ``hang``) —
  a crash raises :class:`FaultInjected`; a hang sleeps ``rule.delay``
  seconds before completing, long enough to blow a job deadline.
- ``scheduler.py`` honors :data:`DISPATCH_FAULTS` (``transient``) —
  a burst of retryable :class:`~repro.service.workers.TransientWorkerError`
  raised before dispatch, exercising the retry/backoff machinery.
- ``cache.py`` honors :data:`CACHE_FAULTS` (``unwritable-disk``,
  ``slow-disk``, ``corrupt-cache``) at the disk-write seam.

Every :class:`FaultKind` belongs to exactly one of these seams, so a
plan that parses is a plan whose every rule can fire.

Plans are deterministic: rules fire in order, each at most ``times``
times (``None`` = unlimited), so a test or a ``repro-serve
--fault-plan`` demo produces the same fault sequence on every run.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple


class FaultInjected(RuntimeError):
    """A non-retryable failure injected by a fault plan (worker crash)."""


class FaultKind(str, enum.Enum):
    """Every fault the service's seams know how to inject."""

    CRASH = "crash"  # worker raises FaultInjected (terminal FAILED)
    HANG = "hang"  # worker sleeps past the job deadline (TIMED_OUT)
    TRANSIENT = "transient"  # retryable TransientWorkerError burst
    UNWRITABLE_DISK = "unwritable-disk"  # cache write raises OSError
    SLOW_DISK = "slow-disk"  # cache write sleeps rule.delay seconds
    CORRUPT_CACHE = "corrupt-cache"  # cache writes an unparseable entry


#: Kinds honored by the :class:`~repro.service.workers.WorkerPool` seam.
WORKER_FAULTS: Tuple[FaultKind, ...] = (FaultKind.CRASH, FaultKind.HANG)
#: Kinds honored by the scheduler's pre-dispatch seam.
DISPATCH_FAULTS: Tuple[FaultKind, ...] = (FaultKind.TRANSIENT,)
#: Kinds honored by the result cache's disk-write seam.
CACHE_FAULTS: Tuple[FaultKind, ...] = (
    FaultKind.UNWRITABLE_DISK,
    FaultKind.SLOW_DISK,
    FaultKind.CORRUPT_CACHE,
)


@dataclass
class FaultRule:
    """One injectable fault: what, where, how often, how long."""

    kind: FaultKind
    #: ``"*"`` matches every job; otherwise matched against the job kind
    #: (``"analyze"``) or as a prefix of the job/cache key
    #: (``"analyze-3f2b..."`` keys start with their kind).
    selector: str = "*"
    #: Remaining activations; ``None`` = unlimited.
    times: Optional[int] = 1
    #: Sleep duration for ``hang`` / ``slow-disk`` rules.
    delay: float = 0.25

    def matches(self, job_kind: str, key: str) -> bool:
        if self.selector == "*":
            return True
        if job_kind and self.selector == job_kind:
            return True
        return bool(key) and key.startswith(self.selector)


@dataclass
class FaultPlan:
    """An ordered, thread-safe set of fault rules with hit accounting."""

    rules: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self.injected: dict = {kind.value: 0 for kind in FaultKind}

    # -- construction ------------------------------------------------------

    def add(
        self,
        kind: "FaultKind | str",
        selector: str = "*",
        times: Optional[int] = 1,
        delay: float = 0.25,
    ) -> "FaultPlan":
        """Append one rule; chainable (``plan.add(...).add(...)``)."""
        self.rules.append(
            FaultRule(FaultKind(kind), selector=selector, times=times, delay=delay)
        )
        return self

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI spec.

        The spec is comma-separated ``kind[:selector[:times[:delay]]]``
        clauses, e.g. ``"crash:analyze:2,hang:*:1:0.5,transient"``.
        ``times`` of ``*`` (or ``inf``) means unlimited.  Raises
        :class:`ValueError` on unknown kinds or malformed clauses.
        """
        plan = cls()
        for clause in filter(None, (part.strip() for part in spec.split(","))):
            fields = clause.split(":")
            if len(fields) > 4:
                raise ValueError(f"malformed fault clause '{clause}'")
            try:
                kind = FaultKind(fields[0])
            except ValueError:
                known = ", ".join(k.value for k in FaultKind)
                raise ValueError(
                    f"unknown fault kind '{fields[0]}' (known: {known})"
                ) from None
            selector = fields[1] if len(fields) > 1 and fields[1] else "*"
            times: Optional[int] = 1
            if len(fields) > 2 and fields[2]:
                times = None if fields[2] in ("*", "inf") else int(fields[2])
            delay = float(fields[3]) if len(fields) > 3 and fields[3] else 0.25
            plan.add(kind, selector=selector, times=times, delay=delay)
        return plan

    # -- the seam entry point ----------------------------------------------

    def activate(
        self,
        kinds: Sequence["FaultKind | str"],
        job_kind: str = "",
        key: str = "",
    ) -> Optional[FaultRule]:
        """The first live rule matching this seam's kinds, or ``None``.

        A returned rule has already been charged one activation; the
        caller is responsible for carrying out the fault.
        """
        wanted = {FaultKind(kind) for kind in kinds}
        with self._lock:
            for rule in self.rules:
                if rule.kind not in wanted or rule.times == 0:
                    continue
                if not rule.matches(job_kind, key):
                    continue
                if rule.times is not None:
                    rule.times -= 1
                self.injected[rule.kind.value] += 1
                return rule
        return None

    # -- introspection -----------------------------------------------------

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def stats(self) -> dict:
        """Accounting snapshot folded into the metrics endpoint."""
        with self._lock:
            live = sum(1 for rule in self.rules if rule.times != 0)
            return {
                "enabled": True,
                "rules": len(self.rules),
                "rules_live": live,
                "injected_total": sum(self.injected.values()),
                "injected": dict(self.injected),
            }

    def describe(self) -> str:
        """One-line summary for the ``repro-serve`` startup banner."""
        return ", ".join(
            f"{rule.kind.value}:{rule.selector}"
            + ("" if rule.times is None else f"x{rule.times}")
            for rule in self.rules
        )


def fault_plan_from(spec: "FaultPlan | str | Iterable | None") -> Optional[FaultPlan]:
    """Coerce a plan, spec string, or rule iterable into a plan (or None)."""
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, str):
        return FaultPlan.parse(spec)
    plan = FaultPlan()
    for rule in spec:
        plan.rules.append(rule)
    return plan

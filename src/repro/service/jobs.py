"""Typed job specifications for the service layer.

A job is a frozen, content-addressed description of one unit of
service work: analyzing a source file, running an attack under a
defense environment, evaluating one attack × defense matrix cell, or
executing a program on the simulated machine.  Each job class names
the worker function that runs it (``run``, called with
:meth:`Job.payload`).  Two jobs with the same payload have the same
:meth:`Job.key`, which is what the result cache and ``/trace`` key
on — the hash covers the job kind plus every payload field,
canonically JSON-encoded, so it is stable across processes and
interpreter runs.

Batch workloads build no jobs: they hand their own function straight
to :func:`~repro.service.workers.run_jobs`.
"""

from __future__ import annotations

import hashlib

from .._record import asdict, record
from ..fileio import canonical_json
from ..attacks.base import UNPROTECTED
from ..defenses.base import ALL_DEFENSES
from ..fuzz.vocabulary import DEFAULT_STEP_BUDGET
from ..matrix.sweep import evaluate_cell
from .workers import run_analyze, run_attack, run_exec

@record(frozen=True)
class Job:
    """Base class: a hashable, cacheable unit of service work.

    A subclass sets ``run = staticmethod(worker)``: the function the
    engine runs on its pool with :meth:`payload`.  It must be
    module-level for the process backend to pickle it.
    """

    #: Names the job in keys, traces and metrics.
    KIND = "job"
    #: Whether results may be served from the result cache.  Jobs whose
    #: outcome depends on randomized machine state (ASLR, random
    #: canaries) should disable this.
    CACHEABLE = True

    def payload(self) -> dict:
        """The JSON-able argument dict handed to the worker function."""
        return asdict(self)

    def key(self) -> str:
        """Deterministic content-hash identity for cache/dedup lookups."""
        digest = hashlib.sha256(
            (self.KIND + "\n" + canonical_json(self.payload())).encode()
        ).hexdigest()
        return f"{self.KIND}-{digest[:20]}"


@record(frozen=True)
class AnalyzeJob(Job):
    """Run the placement-new detector over one MiniC++ source."""

    source: str
    label: str = ""
    legacy: bool = False

    KIND = "analyze"
    run = staticmethod(run_analyze)


@record(frozen=True)
class AttackJob(Job):
    """Run one gallery attack under one defense environment."""

    attack: str
    env: str = UNPROTECTED.label

    KIND = "attack"
    run = staticmethod(run_attack)


@record(frozen=True)
class MatrixCellJob(Job):
    """Evaluate one sweep cell: a row (gallery attack or runnable
    program) under one defense.

    Cacheable: the evaluation is pure — fresh machine, seeded canaries,
    fixed stdin — so a cell's outcome is a function of its payload and
    the code version the cache already keys on.
    """

    row_kind: str = "attack"  # "attack" | "seed" | "regress"
    row_id: str = ""
    source: str = ""
    stdin: tuple = ()
    defense: str = ALL_DEFENSES[0].name  # the unprotected baseline
    step_budget: int = DEFAULT_STEP_BUDGET

    KIND = "matrix-cell"
    run = staticmethod(evaluate_cell)


@record(frozen=True)
class ExecJob(Job):
    """Execute MiniC++ source on a fresh simulated machine.

    Not cacheable: random canaries and accumulated machine entropy make
    repeated executions legitimately observable as distinct runs.
    """

    source: str
    entry: str = "main"
    args: tuple = ()
    stdin: tuple = ()
    canary: bool = False

    KIND = "exec"
    CACHEABLE = False
    run = staticmethod(run_exec)

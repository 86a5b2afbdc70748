"""Attack-scenario scaffolding: environments, results, classification.

Every attack from Sections 3–4 is an :class:`AttackScenario` that runs
against an :class:`~repro.defenses.base.Environment` — one defense's
hardening (canary policy, NX, a placement discipline, an armed runtime
check).  The unprotected environment reproduces the paper's Ubuntu
10.04 results; the protected ones populate the attack × defense matrix
of experiment E14.  Environments and :func:`classify_failure` come from
the defense roster (:mod:`repro.defenses.base`); this module names its
environments for scenarios and examples.
"""

from __future__ import annotations

import abc
from typing import Any, Optional

from .._record import field, record
from ..defenses.base import (
    ALL_ENVIRONMENTS,
    Environment,
    classify_failure,
    disarm_on_exit,
    environment_by_label,
)
from ..errors import SimulatedProcessError
from ..runtime.machine import Machine

__all__ = [
    "ALL_ENVIRONMENTS",
    "CHECKED_PLACEMENT",
    "MEMORY_TAGGING",
    "NX_STACK",
    "SANITIZE",
    "SHADOW_MEMORY",
    "SHADOW_RETURN_STACK",
    "STACKGUARD",
    "UNPROTECTED",
    "VRT_BOUNDS",
    "VTABLE_INTEGRITY",
    "AttackResult",
    "AttackScenario",
    "Environment",
    "classify_failure",
    "environment_by_label",
]

#: The roster's environments (the E14 matrix columns), in roster order.
(
    UNPROTECTED,
    STACKGUARD,
    CHECKED_PLACEMENT,
    SHADOW_MEMORY,
    NX_STACK,
    SANITIZE,
    SHADOW_RETURN_STACK,
    VTABLE_INTEGRITY,
    VRT_BOUNDS,
    MEMORY_TAGGING,
) = ALL_ENVIRONMENTS


@record
class AttackResult:
    """The outcome of one scenario under one environment."""

    name: str
    paper_ref: str
    environment: str
    succeeded: bool
    detected_by: Optional[str] = None
    crashed: bool = False
    detail: dict = field(default_factory=dict)
    events: tuple = ()

    def describe(self) -> str:
        """One line for harness tables."""
        if self.succeeded:
            status = "SUCCEEDED"
        elif self.detected_by:
            status = f"DETECTED by {self.detected_by}"
        elif self.crashed:
            status = "CRASHED"
        else:
            status = "PREVENTED"
        return f"{self.name} [{self.environment}]: {status}"


class AttackScenario(abc.ABC):
    """Base class: one paper attack, runnable under any environment."""

    #: Short identifier used in harness tables.
    name: str = "attack"
    #: Where in the paper this attack appears.
    paper_ref: str = ""
    #: One-line description.
    description: str = ""

    @abc.abstractmethod
    def execute(self, env: Environment) -> AttackResult:
        """Run the attack; implementations may let simulated-process
        errors escape — :meth:`run` classifies them."""

    def run(self, env: Optional[Environment] = None) -> AttackResult:
        """Run under ``env`` (default: unprotected), classifying defenses
        and crashes into the result; the machines the run built are
        disarmed when it ends (:func:`disarm_on_exit`)."""
        active = env or UNPROTECTED
        try:
            with disarm_on_exit():
                return self.execute(active)
        except SimulatedProcessError as exc:
            # A defense that raised keeps the exception, whose traceback
            # holds the run's frames: dropped, no cycle keeps the machine
            # alive until the next full collection.
            exc.with_traceback(None)
            detected_by, crashed = classify_failure(exc)
            return AttackResult(
                name=self.name,
                paper_ref=self.paper_ref,
                environment=active.label,
                succeeded=False,
                detected_by=detected_by,
                crashed=crashed,
                detail={"error": str(exc)},
            )

    def result(
        self,
        env: Environment,
        succeeded: bool,
        machine: Optional[Machine] = None,
        **detail: Any,
    ) -> AttackResult:
        """Convenience constructor stamping name/ref/environment."""
        return AttackResult(
            name=self.name,
            paper_ref=self.paper_ref,
            environment=env.label,
            succeeded=succeeded,
            detail=detail,
            events=tuple(machine.events) if machine is not None else (),
        )

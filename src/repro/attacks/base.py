"""Attack-scenario scaffolding: environments, results, classification.

Every attack from Sections 3–4 is an :class:`AttackScenario` that runs
against an :class:`Environment` — a bundle of hardening choices (canary
policy, NX, checked placement, shadow memory, sanitize-on-reuse).  The
unprotected environment reproduces the paper's Ubuntu 10.04 results; the
protected ones populate the attack × defense matrix of experiment E14.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Optional

from .._record import field, record, replace
from ..core.checked import checked_placement_new, checked_placement_new_array
from ..core.placement import placement_new, placement_new_array
from ..core.sanitize import sanitize
from ..cxx.classdef import ClassDef
from ..cxx.object_model import CArrayView, Instance
from ..cxx.types import CType
from ..defenses.shadow_stack import ReturnAddressTampering
from ..defenses.shadow_stack import protect_machine as protect_returns
from ..defenses.tagging import TagMismatchFault
from ..defenses.tagging import protect_machine as protect_tags
from ..defenses.vrt import VrtBoundsViolation
from ..defenses.vrt import protect_machine as protect_bounds
from ..defenses.vtable_integrity import VtableIntegrityViolation
from ..defenses.vtable_integrity import protect_machine as protect_vtables
from ..errors import (
    BoundsCheckViolation,
    NonExecutableMemory,
    OutOfMemory,
    RedZoneViolation,
    SegmentationFault,
    SimulatedProcessError,
    SimulatedTimeout,
    StackSmashingDetected,
)
from ..memory.pool import CheckedMemoryPool, MemoryPool
from ..memory.shadow import ShadowMemory
from ..runtime.canary import CanaryPolicy
from ..runtime.machine import Machine, MachineConfig


@record(frozen=True)
class Environment:
    """One hardening configuration a scenario runs under."""

    label: str = "unprotected"
    machine_config: MachineConfig = field(default_factory=MachineConfig)
    checked_placement: bool = False
    shadow_redzones: bool = False
    sanitize_on_reuse: bool = False
    checked_pools: bool = False
    shadow_return_stack: bool = False
    vtable_integrity: bool = False
    vrt: bool = False
    memory_tagging: bool = False

    # -- machine construction ---------------------------------------------

    def make_machine(self) -> Machine:
        """Build the victim process for this environment."""
        machine = Machine(self.machine_config)
        if self.shadow_redzones:
            shadow = ShadowMemory(machine.space)
            machine.shadow = shadow  # type: ignore[attr-defined]
            shadow.arm()
        if self.shadow_return_stack:
            machine.return_shadow = protect_returns(machine)  # type: ignore[attr-defined]
        if self.vtable_integrity:
            machine.vtable_guard = protect_vtables(machine)  # type: ignore[attr-defined]
        if self.vrt:
            protect_bounds(machine)
        if self.memory_tagging:
            protect_tags(machine)
        built = _BUILT.get()
        if built is not None:
            built.append(machine)
        return machine

    # -- placement dispatch (the Section 5.1 hook point) -----------------------

    def place(
        self,
        machine: Machine,
        target: Any,
        class_def: ClassDef,
        *args: Any,
        arena_size: Optional[int] = None,
    ) -> Instance:
        """Placement new through this environment's discipline."""
        if self.sanitize_on_reuse:
            self._sanitize_target(machine, target, arena_size)
        if self.checked_placement:
            return checked_placement_new(
                machine, target, class_def, *args, arena_size=arena_size
            )
        return placement_new(machine, target, class_def, *args)

    def place_array(
        self,
        machine: Machine,
        target: Any,
        element: CType,
        count: int,
        arena_size: Optional[int] = None,
    ) -> CArrayView:
        """Array placement through this environment's discipline."""
        if self.sanitize_on_reuse:
            self._sanitize_target(machine, target, arena_size)
        if self.checked_placement:
            return checked_placement_new_array(
                machine, target, element, count, arena_size=arena_size
            )
        return placement_new_array(machine, target, element, count)

    def _sanitize_target(
        self, machine: Machine, target: Any, arena_size: Optional[int]
    ) -> None:
        from ..core.placement import resolve_target

        address, inferred = resolve_target(target)
        size = arena_size if arena_size is not None else inferred
        if size:
            sanitize(machine.space, address, size)

    # -- pools ---------------------------------------------------------------

    def make_pool(
        self, machine: Machine, base: int, capacity: int, name: str = "pool"
    ) -> MemoryPool:
        """A pool under this environment's discipline."""
        cls = CheckedMemoryPool if self.checked_pools else MemoryPool
        return cls(machine.space, base, capacity, name=name)

    # -- shadow --------------------------------------------------------------

    def protect(self, machine: Machine, address: int, size: int) -> None:
        """Register a victim arena with the shadow sanitizer (no-op when
        red zones are disabled)."""
        shadow = getattr(machine, "shadow", None)
        if shadow is not None:
            shadow.disarm()
            shadow.protect_arena(address, size)
            shadow.arm()


#: The machines :meth:`Environment.make_machine` built inside the
#: innermost open :func:`disarm_on_exit` block, if one is open.
_BUILT: ContextVar[Optional[list]] = ContextVar("built_machines", default=None)


def disarm(machine: Machine) -> None:
    """Undo :meth:`Environment.make_machine`'s hardening: unhook every
    defense it armed, drop it from the machine and put back the
    ``virtual_call`` vtable integrity wrapped.  The machine and its
    defenses then no longer refer to each other, so they free without
    the cyclic collector."""
    attached = vars(machine)
    for name in ("shadow", "vrt", "memory_tags"):
        defense = attached.pop(name, None)
        if defense is not None:
            defense.disarm()
    guard = attached.pop("vtable_guard", None)
    if guard is not None:
        guard.detach()


@contextmanager
def disarm_on_exit():
    """Disarm every machine built inside the block when it closes,
    however it closes (see :func:`disarm`)."""
    built: list = []
    token = _BUILT.set(built)
    try:
        yield
    finally:
        _BUILT.reset(token)
        for machine in built:
            disarm(machine)


# Canonical environments (the E14 matrix columns).

UNPROTECTED = Environment(label="unprotected")

STACKGUARD = Environment(
    label="stackguard",
    machine_config=MachineConfig(
        canary_policy=CanaryPolicy.RANDOM, save_frame_pointer=True
    ),
)

CHECKED_PLACEMENT = Environment(
    label="checked-placement",
    checked_placement=True,
    checked_pools=True,
)

SHADOW_MEMORY = Environment(label="shadow-memory", shadow_redzones=True)

NX_STACK = Environment(
    label="nx",
    machine_config=MachineConfig(nx_stack=True, nx_heap=True),
)

SANITIZE = Environment(label="sanitize-on-reuse", sanitize_on_reuse=True)

SHADOW_RETURN_STACK = Environment(
    label="shadow-return-stack", shadow_return_stack=True
)

VTABLE_INTEGRITY = Environment(label="vtable-integrity", vtable_integrity=True)

VRT_BOUNDS = Environment(label="vrt", vrt=True)

MEMORY_TAGGING = Environment(label="memory-tagging", memory_tagging=True)

ALL_ENVIRONMENTS = (
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
)


def environment_by_label(label: str) -> Environment:
    """Look an environment up by its ``label`` attribute."""
    for env in ALL_ENVIRONMENTS:
        if env.label == label:
            return env
    choices = ", ".join(env.label for env in ALL_ENVIRONMENTS)
    raise KeyError(f"unknown environment '{label}' (choose from: {choices})")


def environment_with(base: Environment, **overrides: Any) -> Environment:
    """Derive a variant environment (a ``replace`` wrapper)."""
    return replace(base, **overrides)


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

    @property
    def prevented(self) -> bool:
        """True when a defense stopped the attack (detected or crashed
        before reaching its goal)."""
        return not self.succeeded

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


#: Every ``detected_by`` label :func:`classify_failure` can produce.
#: The threat registry's coverage check reads this, so adding a defense
#: exception here without mapping its label there fails the
#: completeness test instead of shipping an unscoreable outcome.
ALL_DETECTION_LABELS = (
    "shadow-return-stack",
    "vtable-integrity",
    "vrt",
    "memory-tagging",
    "stackguard",
    "bounds-check",
    "shadow-memory",
    "nx",
)

#: Mapping from defense-raised exceptions to the defense's name.
_DETECTION_NAMES = (
    (StackSmashingDetected, "stackguard"),
    (BoundsCheckViolation, "bounds-check"),
    (RedZoneViolation, "shadow-memory"),
    (NonExecutableMemory, "nx"),
)


def classify_failure(exc: SimulatedProcessError) -> tuple[Optional[str], bool]:
    """(detected_by, crashed) for an exception that stopped an attack."""
    if isinstance(exc, ReturnAddressTampering):
        return "shadow-return-stack", False
    if isinstance(exc, VtableIntegrityViolation):
        return "vtable-integrity", False
    if isinstance(exc, VrtBoundsViolation):
        return "vrt", False
    if isinstance(exc, TagMismatchFault):
        return "memory-tagging", False
    for exc_type, name in _DETECTION_NAMES:
        if isinstance(exc, exc_type):
            return name, False
    if isinstance(exc, (SegmentationFault, OutOfMemory, SimulatedTimeout)):
        return None, True
    return None, True


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

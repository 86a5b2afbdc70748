"""The defense roster: every protection the E14 matrix evaluates, once.

Section 5 of the paper surveys protections for modifiable and legacy
software; this repo adds the modern ones an attack meets today (the
shadow call stack, arXiv 2412.16343; the variable record table, arXiv
1909.07821; memory tagging).  Each is one :class:`Defense` entry in
:data:`ALL_DEFENSES`, and nothing else in the package names it: the
entry carries its matrix column name, its ``--env`` label, the paper's
claims about it, the CWE ids it mitigates, the exceptions it raises with
their ``detected_by`` label, and its :class:`Environment` — the
mechanical hardening a scenario runs under (a :class:`MachineConfig`, a
:class:`Placement` discipline and one ``arm(machine)`` hook).

To add a defense, append one entry: give its environment an ``arm``
hook returning an object whose ``disarm()`` unhooks it, list what it
raises, and name it in :mod:`repro.attacks.base`'s constants (the
unpacking there fails until it is).  :mod:`repro.matrix` then sweeps it,
:func:`classify_failure` credits it, and the scorer knows its outcomes.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Optional

from .._record import field, record, replace
from ..core.checked import checked_placement_new, checked_placement_new_array
from ..core.placement import placement_new, placement_new_array, resolve_target
from ..core.sanitize import sanitize
from ..cxx.classdef import ClassDef
from ..cxx.object_model import CArrayView, Instance
from ..cxx.types import CType
from ..errors import (
    BoundsCheckViolation,
    NonExecutableMemory,
    RedZoneViolation,
    SimulatedProcessError,
    StackSmashingDetected,
)
from ..memory.shadow import ShadowMemory
from ..runtime.canary import CanaryPolicy
from ..runtime.machine import Machine, MachineConfig
from . import shadow_stack, tagging, vrt, vtable_integrity


class Placement(enum.Enum):
    """How an environment runs placement new (the §5.1 hook point)."""

    #: The standard's placement new: it constructs wherever it is told.
    PLAIN = "plain"
    #: §5.1 correct coding: the arena's ``sizeof()`` bounds the object.
    CHECKED = "checked"
    #: §5.1 information leaks: the arena is zeroed before it is reused.
    SANITIZED = "sanitized"


@record(frozen=True)
class Environment:
    """One hardening configuration a scenario runs under."""

    label: str = "unprotected"
    machine_config: MachineConfig = field(default_factory=MachineConfig)
    placement: Placement = Placement.PLAIN
    #: Arms a defense on a new machine and returns it; its ``disarm()``
    #: unhooks it again (see :func:`disarm`).
    arm: Optional[Callable[[Machine], Any]] = None

    # -- machine construction ---------------------------------------------

    def make_machine(self) -> Machine:
        """Build the victim process for this environment."""
        machine = Machine(self.machine_config)
        if self.arm is not None:
            machine.defense = self.arm(machine)  # type: ignore[attr-defined]
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
        if self.placement is Placement.SANITIZED:
            _sanitize_target(machine, target, arena_size)
        elif self.placement is Placement.CHECKED:
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
        if self.placement is Placement.SANITIZED:
            _sanitize_target(machine, target, arena_size)
        elif self.placement is Placement.CHECKED:
            return checked_placement_new_array(
                machine, target, element, count, arena_size=arena_size
            )
        return placement_new_array(machine, target, element, count)

    # -- shadow --------------------------------------------------------------

    def protect(self, machine: Machine, address: int, size: int) -> None:
        """Register a victim arena with the shadow sanitizer (no-op when
        the machine carries no red zones)."""
        shadow = getattr(machine, "defense", None)
        if isinstance(shadow, ShadowMemory):
            shadow.disarm()
            shadow.protect_arena(address, size)
            shadow.arm()


def _sanitize_target(machine: Machine, target: Any, arena_size: Optional[int]) -> None:
    address, inferred = resolve_target(target)
    size = arena_size if arena_size is not None else inferred
    if size:
        sanitize(machine.space, address, size)


def _arm_shadow_memory(machine: Machine) -> ShadowMemory:
    shadow = ShadowMemory(machine.space)
    shadow.arm()
    return shadow


#: The machines :meth:`Environment.make_machine` built inside the
#: innermost open :func:`disarm_on_exit` block, if one is open.
_BUILT: ContextVar[Optional[list]] = ContextVar("built_machines", default=None)


def disarm(machine: Machine) -> None:
    """Undo :meth:`Environment.make_machine`'s hardening: drop the armed
    defense from the machine and unhook it.  The machine and its defense
    then no longer refer to each other, so they free without the cyclic
    collector."""
    defense = vars(machine).pop("defense", None)
    if defense is not None:
        defense.disarm()


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


@record(frozen=True)
class Defense:
    """One protection technique under evaluation: a matrix column."""

    #: The matrix column name (``repro-matrix run --defenses``).
    name: str
    #: The hardening itself; its ``label`` is the ``--env`` name.
    environment: Environment
    paper_ref: str = ""
    deployment: str = "modifiable"  # "modifiable" | "legacy" | "none"
    notes: str = ""
    #: CWE ids the defense mitigates.
    mitigates: tuple = ()
    #: The exceptions the defense raises when it stops an attack.
    raises: tuple = ()
    #: What :func:`classify_failure` reports for them, when it is not
    #: the environment label.
    detection_label: str = ""

    @property
    def detected_by(self) -> str:
        """The ``detected_by`` label of every exception in :attr:`raises`."""
        return self.detection_label or self.environment.label

    def fresh_environment(self) -> Environment:
        """A per-run copy of the environment (fresh ``machine_config``
        too), so no state can bleed between matrix cells."""
        return replace(
            self.environment, machine_config=replace(self.environment.machine_config)
        )


#: The E14 matrix columns, in report order.
ALL_DEFENSES: tuple[Defense, ...] = (
    Defense(
        name="none",
        environment=Environment(label="unprotected"),
        paper_ref="§1 (the paper's testbed)",
        deployment="none",
        notes="unprotected gcc 4.4.3-style build",
    ),
    Defense(
        name="stackguard",
        environment=Environment(
            label="stackguard",
            machine_config=MachineConfig(
                canary_policy=CanaryPolicy.RANDOM, save_frame_pointer=True
            ),
        ),
        paper_ref="§5.2 [8]",
        deployment="legacy",
        notes="random canary checked in the epilogue; selective overwrites evade it",
        mitigates=(121,),
        raises=(StackSmashingDetected,),
    ),
    Defense(
        name="checked-placement",
        environment=Environment(label="checked-placement", placement=Placement.CHECKED),
        paper_ref="§5.1",
        deployment="modifiable",
        notes="sizeof()-based bounds check at every placement site",
        mitigates=(119, 787),
        raises=(BoundsCheckViolation,),
        detection_label="bounds-check",
    ),
    Defense(
        name="shadow-memory",
        environment=Environment(label="shadow-memory", arm=_arm_shadow_memory),
        paper_ref="§5.2 (runtime prevention schemes)",
        deployment="legacy",
        notes="red zones around victim arenas; catches stray writes",
        mitigates=(119, 787),
        raises=(RedZoneViolation,),
    ),
    Defense(
        name="nx-stack",
        environment=Environment(
            label="nx", machine_config=MachineConfig(nx_stack=True, nx_heap=True)
        ),
        paper_ref="§5.2 (non-executable stacks)",
        deployment="legacy",
        notes="stops code injection only; arc injection unaffected",
        mitigates=(94, 95),
        raises=(NonExecutableMemory,),
    ),
    Defense(
        name="sanitize-on-reuse",
        environment=Environment(label="sanitize-on-reuse", placement=Placement.SANITIZED),
        paper_ref="§5.1 (information leaks)",
        deployment="modifiable",
        notes="memset before arena reuse; stops information leakage",
        mitigates=(200, 226, 244),
    ),
    Defense(
        name="shadow-ret-stack",
        environment=Environment(
            label="shadow-return-stack", arm=shadow_stack.protect_machine
        ),
        paper_ref="§5.2 [27][20] (return address stack)",
        deployment="legacy",
        notes="machine-integrated shadow call stack; survives longjmp teardown",
        mitigates=(121, 788),
        raises=(shadow_stack.ReturnAddressTampering,),
    ),
    Defense(
        name="vtable-integrity",
        environment=Environment(
            label="vtable-integrity", arm=vtable_integrity.protect_machine
        ),
        paper_ref="§3.8.2 countermeasure (forward-edge CFI)",
        deployment="legacy",
        notes="every virtual dispatch validates the vptr against emitted vtables",
        mitigates=(822, 843),
        raises=(vtable_integrity.VtableIntegrityViolation,),
    ),
    Defense(
        name="vrt",
        environment=Environment(label="vrt", arm=vrt.protect_machine),
        paper_ref="§5.2 rebuttal (arXiv 1909.07821 variable record table)",
        deployment="legacy",
        notes="runtime per-variable bounds table consulted at placements and accesses",
        mitigates=(119, 125, 787, 788),
        raises=(vrt.VrtBoundsViolation,),
    ),
    Defense(
        name="memory-tagging",
        environment=Environment(label="memory-tagging", arm=tagging.protect_machine),
        paper_ref="§5.2 rebuttal (GANDALF/MTE tag-checked segments)",
        deployment="legacy",
        notes="4-bit allocation colours; cross-colour stores and typed accesses fault",
        mitigates=(119, 125, 787, 788),
        raises=(tagging.TagMismatchFault,),
    ),
)

#: Every roster environment, in roster order (``repro-attacks --list``).
ALL_ENVIRONMENTS = tuple(defense.environment for defense in ALL_DEFENSES)

#: Defense-raised exception type -> the ``detected_by`` label it earns.
DETECTED_BY = {
    raised: defense.detected_by for defense in ALL_DEFENSES for raised in defense.raises
}


def defense_by_name(name: str) -> Defense:
    """Look a defense up by its ``name`` attribute."""
    for defense in ALL_DEFENSES:
        if defense.name == name:
            return defense
    choices = ", ".join(defense.name for defense in ALL_DEFENSES)
    raise KeyError(f"no defense named '{name}' (choose from: {choices})")


def environment_by_label(label: str) -> Environment:
    """Look an environment up by its ``label`` attribute."""
    for env in ALL_ENVIRONMENTS:
        if env.label == label:
            return env
    choices = ", ".join(env.label for env in ALL_ENVIRONMENTS)
    raise KeyError(f"unknown environment '{label}' (choose from: {choices})")


def classify_failure(exc: SimulatedProcessError) -> tuple[Optional[str], bool]:
    """(detected_by, crashed) for an exception that stopped an attack:
    a roster defense's exception is a detection, anything else a crash."""
    for cls in type(exc).__mro__:
        label = DETECTED_BY.get(cls)
        if label is not None:
            return label, False
    return None, True

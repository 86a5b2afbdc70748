"""The attack gallery: every Sections 3–4 scenario, in matrix row order.

``ATTACK_FACTORIES`` is the canonical gallery used by the E14 attack ×
defense matrix and the CLI; ``attack_by_name`` looks scenarios up for
ad-hoc runs.
"""

from __future__ import annotations

from typing import Callable

from .array_overflow import BssArrayOverflowAttack, StackArrayOverflowAttack
from .base import AttackScenario
from .data_bss import DataBssOverflowAttack
from .dos import AuthBypassAttack, DosLoopAttack, ResourceExhaustionAttack
from .heap import HeapOverflowAttack
from .info_leak import ArrayInfoLeakAttack, ObjectInfoLeakAttack
from .injection import ArcInjectionAttack, CodeInjectionAttack
from .member_vars import InternalOverflowAttack, MemberVariableAttack
from .memory_leak import MemoryLeakAttack, TrackedLeakMeasurement
from .object_overflow import (
    ConstructionOverflowAttack,
    CopyConstructorOverflowAttack,
    IndirectConstructionOverflowAttack,
    RemoteObjectOverflowAttack,
)
from .pointers import FunctionPointerAttack, VariablePointerAttack
from .stack_smash import ReturnAddressAttack
from .variables import DataVariableAttack, StackLocalVariableAttack
from .vtable_subterfuge import (
    VtableSubterfugeDataAttack,
    VtableSubterfugeStackAttack,
)

#: Factories for the full gallery (fresh scenario per call so parameters
#: and any accumulated state never leak between runs).
ATTACK_FACTORIES: tuple[Callable[[], AttackScenario], ...] = (
    ConstructionOverflowAttack,
    RemoteObjectOverflowAttack,
    CopyConstructorOverflowAttack,
    IndirectConstructionOverflowAttack,
    InternalOverflowAttack,
    DataBssOverflowAttack,
    HeapOverflowAttack,
    ReturnAddressAttack,
    ArcInjectionAttack,
    CodeInjectionAttack,
    DataVariableAttack,
    StackLocalVariableAttack,
    MemberVariableAttack,
    VtableSubterfugeDataAttack,
    VtableSubterfugeStackAttack,
    FunctionPointerAttack,
    VariablePointerAttack,
    StackArrayOverflowAttack,
    BssArrayOverflowAttack,
    ArrayInfoLeakAttack,
    ObjectInfoLeakAttack,
    DosLoopAttack,
    AuthBypassAttack,
    ResourceExhaustionAttack,
    MemoryLeakAttack,
    TrackedLeakMeasurement,
)


def all_attacks() -> list[AttackScenario]:
    """Fresh instances of the full gallery."""
    return [factory() for factory in ATTACK_FACTORIES]


def attack_by_name(name: str) -> AttackScenario:
    """Look a scenario up by its ``name`` attribute."""
    for scenario in all_attacks():
        if scenario.name == name:
            return scenario
    raise KeyError(f"no attack named '{name}'")

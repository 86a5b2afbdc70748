"""Protection techniques (paper Section 5) and their evaluation."""

from .base import (
    ALL_DEFENSES,
    BASELINE,
    CORRECT_CODING,
    NX_DEFENSE,
    SANITIZE_DEFENSE,
    SHADOW_DEFENSE,
    SHADOW_STACK_DEFENSE,
    STACKGUARD_DEFENSE,
    TAGGING_DEFENSE,
    VRT_DEFENSE,
    VTABLE_INTEGRITY_DEFENSE,
    Defense,
    defense_by_name,
)
from .aslr import StaleAddressAttack, aslr_machine, run_aslr_comparison
from .leak_discipline import LeakOutcome, run_leak_comparison
from .libsafe import InterceptionRecord, LibSafePlacementGuard
from .shadow_stack import ReturnAddressTampering, ShadowCallStack, ShadowReturnStack
from .tagging import MemoryTagging, TagMismatchFault
from .vrt import VariableRecordTable, VrtBoundsViolation
from .vtable_integrity import VtableIntegrityGuard, VtableIntegrityViolation

__all__ = [
    "ALL_DEFENSES",
    "BASELINE",
    "CORRECT_CODING",
    "Defense",
    "InterceptionRecord",
    "LeakOutcome",
    "LibSafePlacementGuard",
    "MemoryTagging",
    "NX_DEFENSE",
    "SANITIZE_DEFENSE",
    "SHADOW_DEFENSE",
    "SHADOW_STACK_DEFENSE",
    "STACKGUARD_DEFENSE",
    "TAGGING_DEFENSE",
    "VRT_DEFENSE",
    "VTABLE_INTEGRITY_DEFENSE",
    "ReturnAddressTampering",
    "ShadowCallStack",
    "ShadowReturnStack",
    "StaleAddressAttack",
    "TagMismatchFault",
    "VariableRecordTable",
    "VrtBoundsViolation",
    "aslr_machine",
    "run_aslr_comparison",
    "VtableIntegrityGuard",
    "VtableIntegrityViolation",
    "defense_by_name",
    "run_leak_comparison",
]

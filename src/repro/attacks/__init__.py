"""Every attack from the paper's Sections 3–4, as runnable scenarios.

``ATTACK_FACTORIES`` (:mod:`gallery`) is the canonical gallery used by
the E14 attack × defense matrix and the CLI; ``attack_by_name`` looks
scenarios up for ad-hoc runs.  Each scenario is independent: it builds its own victim machine,
scripts the attacker, and reports an :class:`AttackResult`.
"""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(("BssArrayOverflowAttack", "StackArrayOverflowAttack"), "array_overflow"),
    **dict.fromkeys(
        (
            "ALL_ENVIRONMENTS",
            "AttackResult",
            "AttackScenario",
            "CHECKED_PLACEMENT",
            "Environment",
            "NX_STACK",
            "SANITIZE",
            "SHADOW_MEMORY",
            "SHADOW_RETURN_STACK",
            "STACKGUARD",
            "UNPROTECTED",
            "VTABLE_INTEGRITY",
            "classify_failure",
            "environment_by_label",
        ),
        "base",
    ),
    "DataBssOverflowAttack": "data_bss",
    **dict.fromkeys(("AuthBypassAttack", "DosLoopAttack", "ResourceExhaustionAttack"), "dos"),
    **dict.fromkeys(("ATTACK_FACTORIES", "all_attacks", "attack_by_name"), "gallery"),
    "HeapOverflowAttack": "heap",
    **dict.fromkeys(("ArrayInfoLeakAttack", "ObjectInfoLeakAttack"), "info_leak"),
    **dict.fromkeys(("ArcInjectionAttack", "CodeInjectionAttack"), "injection"),
    **dict.fromkeys(("InternalOverflowAttack", "MemberVariableAttack"), "member_vars"),
    **dict.fromkeys(("MemoryLeakAttack", "TrackedLeakMeasurement"), "memory_leak"),
    **dict.fromkeys(
        (
            "ConstructionOverflowAttack",
            "CopyConstructorOverflowAttack",
            "IndirectConstructionOverflowAttack",
            "RemoteObjectOverflowAttack",
        ),
        "object_overflow",
    ),
    **dict.fromkeys(("FunctionPointerAttack", "VariablePointerAttack"), "pointers"),
    **dict.fromkeys(
        ("CanarySkipExperiment", "ReturnAddressAttack", "naive_smash", "selective_overwrite"),
        "stack_smash",
    ),
    **dict.fromkeys(("DataVariableAttack", "StackLocalVariableAttack"), "variables"),
    **dict.fromkeys(
        ("VtableSubterfugeDataAttack", "VtableSubterfugeStackAttack"),
        "vtable_subterfuge",
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

"""Protection techniques (paper Section 5) and their evaluation."""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(("StaleAddressAttack", "aslr_machine", "run_aslr_comparison"), "aslr"),
    **dict.fromkeys(("ALL_DEFENSES", "Defense", "defense_by_name"), "base"),
    **dict.fromkeys(("LeakOutcome", "run_leak_comparison"), "leak_discipline"),
    **dict.fromkeys(("InterceptionRecord", "LibSafePlacementGuard"), "libsafe"),
    **dict.fromkeys(("ReturnAddressTampering", "ShadowCallStack"), "shadow_stack"),
    **dict.fromkeys(("MemoryTagging", "TagMismatchFault"), "tagging"),
    **dict.fromkeys(("VariableRecordTable", "VrtBoundsViolation"), "vrt"),
    **dict.fromkeys(("VtableIntegrityGuard", "VtableIntegrityViolation"), "vtable_integrity"),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

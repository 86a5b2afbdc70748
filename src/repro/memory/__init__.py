"""Byte-accurate simulated process memory.

This package is the foundation substrate: a 32-bit little-endian address
space with ELF-style segments, a boundary-tag heap, a downward-growing
stack, memory pools, shadow memory and allocation tracking.  Everything
above it (the C++ object model, placement new, the attacks) manipulates
bytes exclusively through these primitives.
"""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(("AddressSpace", "DEFAULT_LAYOUT"), "address_space"),
    **dict.fromkeys(
        ("align_down", "align_up", "is_aligned", "is_power_of_two"),
        "alignment",
    ),
    **dict.fromkeys(
        (
            "BOOL_SIZE",
            "CHAR_SIZE",
            "DOUBLE_ALIGN",
            "DOUBLE_SIZE",
            "FLOAT_SIZE",
            "INT_SIZE",
            "LONG_LONG_SIZE",
            "POINTER_SIZE",
            "SHORT_SIZE",
            "decode_double",
            "decode_float",
            "decode_int",
            "decode_pointer",
            "encode_c_string",
            "encode_double",
            "encode_float",
            "encode_int",
            "encode_pointer",
        ),
        "encoding",
    ),
    "MemoryEventTap": "events",
    **dict.fromkeys(("BlockInfo", "HEADER_SIZE", "HeapAllocator"), "heap"),
    **dict.fromkeys(("MemoryPool", "PoolStats"), "pool"),
    **dict.fromkeys(("DEFAULT_PERMISSIONS", "Permissions", "Segment", "SegmentKind"), "segments"),
    "ShadowMemory": "shadow",
    **dict.fromkeys(("StackAllocation", "StackRegion"), "stack"),
    **dict.fromkeys(("AllocationTracker", "ArenaOrigin", "ArenaRecord"), "tracker"),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

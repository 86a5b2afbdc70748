"""Byte-accurate simulated process memory.

This package is the foundation substrate: a 32-bit little-endian address
space with ELF-style segments, a boundary-tag heap, a downward-growing
stack, memory pools, shadow memory and allocation tracking.  Everything
above it (the C++ object model, placement new, the attacks) manipulates
bytes exclusively through these primitives.
"""

from .address_space import DEFAULT_LAYOUT, AddressSpace
from .alignment import align_down, align_up, is_aligned, is_power_of_two, padding_for
from .encoding import (
    BOOL_SIZE,
    CHAR_SIZE,
    DOUBLE_ALIGN,
    DOUBLE_SIZE,
    FLOAT_SIZE,
    INT_SIZE,
    LONG_LONG_SIZE,
    POINTER_SIZE,
    SHORT_SIZE,
    decode_c_string,
    decode_double,
    decode_float,
    decode_int,
    decode_pointer,
    encode_c_string,
    encode_double,
    encode_float,
    encode_int,
    encode_pointer,
)
from .events import MemoryEventTap
from .heap import HEADER_SIZE, BlockInfo, HeapAllocator
from .pool import CheckedMemoryPool, MemoryPool, PoolStats
from .segments import DEFAULT_PERMISSIONS, Permissions, Segment, SegmentKind
from .shadow import RedZonePair, ShadowMemory, ShadowState
from .stack import StackAllocation, StackRegion
from .tracker import AllocationTracker, ArenaOrigin, ArenaRecord
from .watchpoints import WatchHit, WatchpointManager

__all__ = [
    "AddressSpace",
    "DEFAULT_LAYOUT",
    "DEFAULT_PERMISSIONS",
    "AllocationTracker",
    "ArenaOrigin",
    "ArenaRecord",
    "BlockInfo",
    "BOOL_SIZE",
    "CHAR_SIZE",
    "CheckedMemoryPool",
    "DOUBLE_ALIGN",
    "DOUBLE_SIZE",
    "FLOAT_SIZE",
    "HEADER_SIZE",
    "HeapAllocator",
    "INT_SIZE",
    "LONG_LONG_SIZE",
    "MemoryEventTap",
    "MemoryPool",
    "Permissions",
    "POINTER_SIZE",
    "PoolStats",
    "RedZonePair",
    "Segment",
    "SegmentKind",
    "ShadowMemory",
    "ShadowState",
    "SHORT_SIZE",
    "StackAllocation",
    "StackRegion",
    "WatchHit",
    "WatchpointManager",
    "align_down",
    "align_up",
    "decode_c_string",
    "decode_double",
    "decode_float",
    "decode_int",
    "decode_pointer",
    "encode_c_string",
    "encode_double",
    "encode_float",
    "encode_int",
    "encode_pointer",
    "is_aligned",
    "is_power_of_two",
    "padding_for",
]

"""Little-endian scalar encoding for the simulated 32-bit process.

The paper's experiments ran on 32-bit Ubuntu 10.04 (gcc 4.4.3):
``sizeof(int) == sizeof(void*) == 4`` and ``sizeof(double) == 8``.  This
module is the single place where Python values become bytes in the
simulated address space and back, so every overflow writes exactly the
byte pattern a real process would see.
"""

from __future__ import annotations

import struct

from ..errors import ApiMisuseError

# Scalar widths for the simulated ILP32 target.
CHAR_SIZE = 1
SHORT_SIZE = 2
INT_SIZE = 4
LONG_SIZE = 4
LONG_LONG_SIZE = 8
FLOAT_SIZE = 4
DOUBLE_SIZE = 8
POINTER_SIZE = 4
BOOL_SIZE = 1

# Natural alignments (match gcc on 32-bit Linux, where double is
# 8-aligned inside structs under -malign-double semantics used by the
# paper's layout narrative; see DESIGN.md section 4).
DOUBLE_ALIGN = 8


def _check_width(width: int) -> None:
    if width not in (1, 2, 4, 8):
        raise ApiMisuseError(f"unsupported scalar width {width}")


def encode_int(value: int, width: int = INT_SIZE, signed: bool = True) -> bytes:
    """Encode an integer as ``width`` little-endian bytes.

    Values are wrapped modulo ``2**(8*width)`` first, mirroring C's
    implementation-defined narrowing rather than raising — attacks rely on
    being able to store e.g. an address into an ``int`` member.  The
    wrapped bit pattern is the same whether the target is read back as
    signed (two's complement) or unsigned, so ``signed`` does not change
    the bytes.
    """
    _check_width(width)
    return (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")


def decode_int(data: bytes, signed: bool = True) -> int:
    """Decode little-endian bytes as an integer of ``len(data)`` width."""
    _check_width(len(data))
    return int.from_bytes(data, "little", signed=signed)


def encode_double(value: float) -> bytes:
    """Encode an IEEE-754 binary64 value (8 bytes, little-endian)."""
    return struct.pack("<d", value)


def decode_double(data: bytes) -> float:
    """Decode 8 little-endian bytes as an IEEE-754 binary64 value."""
    if len(data) != DOUBLE_SIZE:
        raise ApiMisuseError(f"double requires {DOUBLE_SIZE} bytes, got {len(data)}")
    return struct.unpack("<d", bytes(data))[0]


def encode_float(value: float) -> bytes:
    """Encode an IEEE-754 binary32 value (4 bytes, little-endian)."""
    return struct.pack("<f", value)


def decode_float(data: bytes) -> float:
    """Decode 4 little-endian bytes as an IEEE-754 binary32 value."""
    if len(data) != FLOAT_SIZE:
        raise ApiMisuseError(f"float requires {FLOAT_SIZE} bytes, got {len(data)}")
    return struct.unpack("<f", bytes(data))[0]


def encode_pointer(address: int) -> bytes:
    """Encode a 32-bit pointer (unsigned, little-endian)."""
    return encode_int(address, POINTER_SIZE, signed=False)


def decode_pointer(data: bytes) -> int:
    """Decode a 32-bit pointer."""
    if len(data) != POINTER_SIZE:
        raise ApiMisuseError(
            f"pointer requires {POINTER_SIZE} bytes, got {len(data)}"
        )
    return decode_int(data, signed=False)


def encode_c_string(text: str, buffer_size: int | None = None) -> bytes:
    """Encode ``text`` as a NUL-terminated byte string.

    If ``buffer_size`` is given, the result is truncated/zero-padded to
    exactly that many bytes (the terminator may be lost on truncation,
    mirroring ``strncpy`` semantics).
    """
    raw = text.encode("latin-1", errors="replace") + b"\x00"
    if buffer_size is None:
        return raw
    if buffer_size < 0:
        raise ApiMisuseError(f"negative buffer size {buffer_size}")
    if len(raw) >= buffer_size:
        return raw[:buffer_size]
    return raw.ljust(buffer_size, b"\x00")

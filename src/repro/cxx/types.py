"""The simulated C++ scalar, pointer and array types.

Each :class:`CType` knows its size, natural alignment and byte encoding
on the 32-bit little-endian target.  Class types are described separately
by :class:`~repro.cxx.classdef.ClassDef` plus a computed
:class:`~repro.cxx.layout.RecordLayout`; this module covers everything
below them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ApiMisuseError
from ..memory import encoding


@dataclass(frozen=True)
class CType:
    """Base class for value types in the simulated language."""

    name: str
    size: int
    alignment: int

    def encode(self, value: Any) -> bytes:
        """Turn a Python value into this type's byte representation."""
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        """Turn bytes back into a Python value."""
        raise NotImplementedError

    def zero(self) -> bytes:
        """The all-zero (default-initialized) representation."""
        return b"\x00" * self.size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class IntType(CType):
    """A fixed-width two's-complement integer."""

    signed: bool = True

    def encode(self, value: Any) -> bytes:
        return encoding.encode_int(int(value), self.size, signed=self.signed)

    def decode(self, data: bytes) -> int:
        return encoding.decode_int(data, signed=self.signed)


@dataclass(frozen=True)
class CharType(CType):
    """One byte; accepts single-character strings or small ints."""

    def encode(self, value: Any) -> bytes:
        if isinstance(value, str):
            if len(value) != 1:
                raise ApiMisuseError(f"char expects one character, got {value!r}")
            return value.encode("latin-1")
        return encoding.encode_int(int(value), 1, signed=False)

    def decode(self, data: bytes) -> str:
        return bytes(data[:1]).decode("latin-1")


@dataclass(frozen=True)
class BoolType(CType):
    """C++ bool: one byte, nonzero is true."""

    def encode(self, value: Any) -> bytes:
        return b"\x01" if value else b"\x00"

    def decode(self, data: bytes) -> bool:
        return data[0] != 0


@dataclass(frozen=True)
class DoubleType(CType):
    """IEEE-754 binary64."""

    def encode(self, value: Any) -> bytes:
        return encoding.encode_double(float(value))

    def decode(self, data: bytes) -> float:
        return encoding.decode_double(data)


@dataclass(frozen=True)
class FloatType(CType):
    """IEEE-754 binary32."""

    def encode(self, value: Any) -> bytes:
        return encoding.encode_float(float(value))

    def decode(self, data: bytes) -> float:
        return encoding.decode_float(data)


@dataclass(frozen=True)
class PointerType(CType):
    """A 32-bit pointer; ``pointee_name`` is informational only."""

    pointee_name: str = "void"

    def encode(self, value: Any) -> bytes:
        return encoding.encode_pointer(int(value))

    def decode(self, data: bytes) -> int:
        return encoding.decode_pointer(data)


@dataclass(frozen=True)
class ArrayType(CType):
    """A fixed-length array of a scalar element type.

    ``size`` and ``alignment`` are derived; construct via
    :func:`array_of` rather than directly.
    """

    element: CType = None  # type: ignore[assignment]
    count: int = 0

    def encode(self, value: Any) -> bytes:
        items = list(value)
        if len(items) > self.count:
            raise ApiMisuseError(
                f"{self.name} holds {self.count} elements, got {len(items)}"
            )
        data = b"".join(self.element.encode(item) for item in items)
        return data + b"\x00" * (self.size - len(data))

    def decode(self, data: bytes) -> list:
        step = self.element.size
        return [
            self.element.decode(data[i * step : (i + 1) * step])
            for i in range(self.count)
        ]


def array_of(element: CType, count: int) -> ArrayType:
    """Build ``element[count]`` with C array size/alignment rules."""
    if count <= 0:
        raise ApiMisuseError(f"array length must be positive, got {count}")
    return ArrayType(
        name=f"{element.name}[{count}]",
        size=element.size * count,
        alignment=element.alignment,
        element=element,
        count=count,
    )


# Canonical instances for the ILP32 target the paper assumes.
CHAR = CharType("char", encoding.CHAR_SIZE, 1)
BOOL = BoolType("bool", encoding.BOOL_SIZE, 1)
SHORT = IntType("short", encoding.SHORT_SIZE, 2, signed=True)
INT = IntType("int", encoding.INT_SIZE, 4, signed=True)
UINT = IntType("unsigned int", encoding.INT_SIZE, 4, signed=False)
LONG_LONG = IntType("long long", encoding.LONG_LONG_SIZE, 8, signed=True)
FLOAT = FloatType("float", encoding.FLOAT_SIZE, 4)
DOUBLE = DoubleType("double", encoding.DOUBLE_SIZE, encoding.DOUBLE_ALIGN)
VOID_PTR = PointerType("void*", encoding.POINTER_SIZE, 4, pointee_name="void")
CHAR_PTR = PointerType("char*", encoding.POINTER_SIZE, 4, pointee_name="char")
FUNC_PTR = PointerType("(*fn)()", encoding.POINTER_SIZE, 4, pointee_name="function")

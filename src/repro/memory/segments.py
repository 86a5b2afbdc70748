"""Segments of the simulated process image.

The paper's attacks are classified by which segment the overflowed arena
lives in — stack, heap, or data/bss (Section 3.5: *"instances stud1 and
stud2 are allocated in data/bss area (ELF format)"*).  A
:class:`Segment` is a contiguous virtual-address range backed by a
``bytearray``, with read/write/execute permissions so that NX-stack
defenses (Section 5.2) can be modelled.
"""

from __future__ import annotations

import enum

from .._record import field, record
from ..errors import ApiMisuseError, SegmentationFault


class SegmentKind(enum.Enum):
    """The ELF-style segment classes the paper refers to."""

    TEXT = "text"
    DATA = "data"
    BSS = "bss"
    HEAP = "heap"
    STACK = "stack"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@record(frozen=True)
class Permissions:
    """Read/write/execute permission bits for a segment."""

    read: bool = True
    write: bool = True
    execute: bool = False

    def describe(self) -> str:
        """Render like the ``/proc/<pid>/maps`` permission column."""
        return (
            ("r" if self.read else "-")
            + ("w" if self.write else "-")
            + ("x" if self.execute else "-")
        )


#: Conventional permissions per segment kind for a classic (pre-NX) process,
#: matching the paper's Ubuntu 10.04 testbed where code injection on the
#: stack was meaningful.
DEFAULT_PERMISSIONS = {
    SegmentKind.TEXT: Permissions(read=True, write=False, execute=True),
    SegmentKind.DATA: Permissions(read=True, write=True, execute=False),
    SegmentKind.BSS: Permissions(read=True, write=True, execute=False),
    SegmentKind.HEAP: Permissions(read=True, write=True, execute=True),
    SegmentKind.STACK: Permissions(read=True, write=True, execute=True),
}


@record
class Segment:
    """A contiguous, byte-addressable region of the simulated image."""

    kind: SegmentKind
    base: int
    size: int
    permissions: Permissions = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ApiMisuseError(f"segment size must be positive, got {self.size}")
        if self.base < 0:
            raise ApiMisuseError(f"segment base must be non-negative, got {self.base}")
        if self.permissions is None:
            self.permissions = DEFAULT_PERMISSIONS[self.kind]
        self._data = bytearray(self.size)
        # Persistent view: lets read() hand out bytes with a single copy
        # instead of slice-copy + bytes()-copy.  Segments never resize,
        # so keeping the buffer exported is safe.
        self._view = memoryview(self._data)
        # Hot-path precomputations.  Segment geometry and permissions are
        # immutable after construction (NX variants are chosen at
        # AddressSpace construction), so `end` and the permission bits
        # can be plain attributes instead of per-access property chains.
        self.end = self.base + self.size
        self._readable = self.permissions.read
        self._writable = self.permissions.write

    def contains(self, address: int, length: int = 1) -> bool:
        """True if ``[address, address+length)`` lies fully inside."""
        return self.base <= address and address + length <= self.end

    def _offset(self, address: int, length: int, access: str) -> int:
        if not self.contains(address, length):
            raise SegmentationFault(
                address, access, f"outside {self.kind.value} segment"
            )
        return address - self.base

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes; faults if unreadable or out of range."""
        if not self._readable:
            raise SegmentationFault(address, "read", "segment is not readable")
        offset = address - self.base
        stop = offset + length
        if offset < 0 or stop > self.size:
            raise SegmentationFault(
                address, "read", f"outside {self.kind.value} segment"
            )
        # One copy: slicing the memoryview is free, bytes() materializes.
        return bytes(self._view[offset:stop])

    def write(self, address: int, data: bytes) -> None:
        """Write ``data``; faults if unwritable or out of range."""
        if not self._writable:
            raise SegmentationFault(address, "write", "segment is not writable")
        offset = address - self.base
        stop = offset + len(data)
        if offset < 0 or stop > self.size:
            raise SegmentationFault(
                address, "write", f"outside {self.kind.value} segment"
            )
        self._data[offset:stop] = data

    def fill(self, address: int, length: int, byte: int = 0) -> None:
        """memset-style fill, used by memory sanitization (Section 5.1).

        One slice assignment on the backing ``bytearray`` — large
        sanitization fills must not build intermediate per-byte lists.
        """
        if not 0 <= byte <= 0xFF:
            raise ApiMisuseError(f"fill byte out of range: {byte}")
        if not self._writable:
            raise SegmentationFault(address, "write", "segment is not writable")
        offset = self._offset(address, max(length, 0), "write")
        if length > 0:
            self._data[offset : offset + length] = (
                bytes(length) if byte == 0 else bytes((byte,)) * length
            )

    def find_byte(self, byte: int, address: int, span: int) -> int:
        """Offset-free scan: the address of the first ``byte`` in
        ``[address, address+span)``, or -1.  Bounds are the caller's
        problem (the fast path has already checked them); the scan runs
        at C speed on the backing ``bytearray``."""
        offset = address - self.base
        found = self._data.find(byte, offset, offset + span)
        return -1 if found < 0 else self.base + found

    def snapshot(self) -> bytes:
        """Copy of the whole segment's contents (for forensics/diffs)."""
        return bytes(self._data)

    def describe(self) -> str:
        """One line in the style of ``/proc/<pid>/maps``."""
        return (
            f"{self.base:08x}-{self.end:08x} {self.permissions.describe()} "
            f"{self.kind.value}"
        )

"""The text segment image: function entry points and vtables.

A real compiler emits machine code for each function and constant vtables
into the text/rodata sections; attacks like arc injection (Section 3.6.2)
and vtable subterfuge (Section 3.8.2) work because those are *addresses*
an overflow can redirect control to.  :class:`TextImage` gives every
simulated function a genuine address inside the text segment (marked with
a recognizable stub) and emits vtables as arrays of those addresses, so
attacker-written pointer values resolve exactly the way the paper
describes: a valid function address → that function runs; garbage → a
fault.
"""

from __future__ import annotations

from typing import Callable, Optional

from .._record import record
from ..errors import ApiMisuseError
from ..memory.address_space import AddressSpace
from ..memory.alignment import align_up
from ..memory.encoding import POINTER_SIZE
from ..memory.segments import SegmentKind

#: Marker byte sequence at every native function entry ("NATV").
NATIVE_STUB_MAGIC = b"NATV"
#: Bytes reserved per function entry.
FUNCTION_STUB_SIZE = 16


@record(frozen=True)
class FunctionEntry:
    """A simulated function living at a text-segment address."""

    name: str
    address: int
    callable: Callable
    privileged: bool = False
    description: str = ""


@record(frozen=True)
class EmittedVTable:
    """A vtable emitted into the text image."""

    class_name: str
    address: int
    slots: tuple[tuple[str, int], ...]  # (method name, entry address)

class TextImage:
    """Allocates text-segment space for functions and vtables."""

    def __init__(self, space: AddressSpace) -> None:
        self._space = space
        segment = space.segment(SegmentKind.TEXT)
        self._cursor = segment.base
        self._end = segment.end
        self._functions_by_name: dict[str, FunctionEntry] = {}
        self._functions_by_address: dict[int, FunctionEntry] = {}
        self._vtables_by_class: dict[str, EmittedVTable] = {}
        self._vtables_by_address: dict[int, EmittedVTable] = {}

    def _reserve(self, size: int, alignment: int = 4) -> int:
        address = align_up(self._cursor, alignment)
        if address + size > self._end:
            raise ApiMisuseError("text segment exhausted")
        self._cursor = address + size
        return address

    # -- functions ----------------------------------------------------------

    def register_function(
        self,
        name: str,
        callable_: Callable,
        privileged: bool = False,
        description: str = "",
    ) -> FunctionEntry:
        """Give ``callable_`` a text address; idempotent per name."""
        existing = self._functions_by_name.get(name)
        if existing is not None:
            return existing
        address = self._reserve(FUNCTION_STUB_SIZE, alignment=16)
        index = len(self._functions_by_name)
        stub = NATIVE_STUB_MAGIC + index.to_bytes(4, "little")
        # Segments are created non-writable for text; write via the raw
        # backing to emit the stub (the "loader" is allowed to).
        segment = self._space.segment(SegmentKind.TEXT)
        segment._data[address - segment.base : address - segment.base + len(stub)] = stub
        entry = FunctionEntry(
            name=name,
            address=address,
            callable=callable_,
            privileged=privileged,
            description=description,
        )
        self._functions_by_name[name] = entry
        self._functions_by_address[address] = entry
        return entry

    def function_named(self, name: str) -> Optional[FunctionEntry]:
        """Look a function up by symbol name."""
        return self._functions_by_name.get(name)

    def function_at(self, address: int) -> Optional[FunctionEntry]:
        """Look a function up by entry address (exact match only —
        jumping into the middle of a function is a fault, as on x86 it
        would decode garbage)."""
        return self._functions_by_address.get(address)

    # -- vtables ---------------------------------------------------------------

    def emit_vtable(
        self, class_name: str, slots: list[tuple[str, int]]
    ) -> EmittedVTable:
        """Write a vtable (array of function addresses) into text."""
        existing = self._vtables_by_class.get(class_name)
        if existing is not None:
            return existing
        size = max(len(slots), 1) * POINTER_SIZE
        address = self._reserve(size, alignment=POINTER_SIZE)
        segment = self._space.segment(SegmentKind.TEXT)
        for index, (_, entry_address) in enumerate(slots):
            offset = address - segment.base + index * POINTER_SIZE
            segment._data[offset : offset + POINTER_SIZE] = entry_address.to_bytes(
                POINTER_SIZE, "little"
            )
        table = EmittedVTable(
            class_name=class_name, address=address, slots=tuple(slots)
        )
        self._vtables_by_class[class_name] = table
        self._vtables_by_address[address] = table
        return table

    def vtable_at(self, address: int) -> Optional[EmittedVTable]:
        """Reverse lookup by vtable base address."""
        return self._vtables_by_address.get(address)

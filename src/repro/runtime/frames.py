"""Call frames laid out in simulated stack memory.

The frame picture (addresses grow downward on the page, stack grows
toward the bottom)::

        higher addresses
        +------------------------+
        | return address         |   <- what Listing 13 rewrites
        +------------------------+
        | saved frame pointer    |   (if the machine saves FP)
        +------------------------+
        | canary                 |   (if stack protector is on)
        +------------------------+
        | local #1 (first decl.) |   <- gcc places earlier locals higher
        | local #2               |
        | ...                    |
        +------------------------+
        lower addresses

so an object local overflowing *upward* marches through later padding,
the canary, the saved FP and finally the return address — producing the
paper's exact index arithmetic (ssn[0] → ret with neither FP nor canary;
ssn[1] → ret with FP; ssn[2] → ret with canary and FP).
"""

from __future__ import annotations

from typing import Any, Optional

from .._record import record
from ..cxx.classdef import ClassDef
from ..cxx.object_model import CArrayView, Instance
from ..cxx.types import CType
from ..errors import ApiMisuseError
from ..memory.encoding import POINTER_SIZE
from ..memory.stack import StackAllocation

#: Value written as the "saved frame pointer" of the outermost frame.
INITIAL_FRAME_POINTER = 0xBFFFFFF0


@record(frozen=True)
class FrameSlots:
    """Addresses of the frame's fixed (non-local) words."""

    return_slot: int
    fp_slot: Optional[int]
    canary_slot: Optional[int]

    def lowest_fixed(self) -> int:
        """Address of the lowest fixed word — locals start below this."""
        candidates = [self.return_slot]
        if self.fp_slot is not None:
            candidates.append(self.fp_slot)
        if self.canary_slot is not None:
            candidates.append(self.canary_slot)
        return min(candidates)


class CallFrame:
    """One live activation record.

    Created by :meth:`repro.runtime.machine.Machine.push_frame`; locals
    are declared through :meth:`local_object` / :meth:`local_scalar` /
    :meth:`local_array` in source order, which fixes their relative
    addresses the way gcc 4.4 did.
    """

    def __init__(
        self,
        machine: Any,
        name: str,
        slots: FrameSlots,
        original_return: int,
        saved_fp: int,
        saved_sp: int,
        canary_value: Optional[int],
    ) -> None:
        self._machine = machine
        self.name = name
        self.slots = slots
        self.original_return = original_return
        self.saved_fp = saved_fp
        self.saved_sp = saved_sp
        self.canary_value = canary_value
        self._locals: list[StackAllocation] = []
        self._tracked_arenas: list[int] = []
        self.closed = False

    # -- local declaration --------------------------------------------------

    def _declare(self, name: str, size: int, alignment: int) -> int:
        if self.closed:
            raise ApiMisuseError(f"frame {self.name} already popped")
        if any(existing.name == name for existing in self._locals):
            raise ApiMisuseError(f"duplicate local '{name}' in {self.name}")
        address = self._machine.stack.push_region(size, alignment)
        self._locals.append(
            StackAllocation(name=name, address=address, size=size, alignment=alignment)
        )
        return address

    def local_object(self, class_def: ClassDef, name: str) -> Instance:
        """Declare ``ClassName name;`` — raw storage, not constructed.

        The arena is registered with the allocation tracker for its
        lifetime (popped with the frame), so placements into it — even
        through pointers handed to callees — can be audited against its
        true extent.
        """
        from ..memory.tracker import ArenaOrigin

        layout = self._machine.layouts.layout_of(class_def)
        address = self._declare(name, layout.size, layout.alignment)
        self._machine.tracker.record(
            address, layout.size, ArenaOrigin.STACK, label=name
        )
        self._tracked_arenas.append(address)
        return Instance(self._machine, class_def, address)

    def local_scalar(self, ctype: CType, name: str, init: Any = None) -> int:
        """Declare a scalar local; returns its address."""
        address = self._declare(name, ctype.size, ctype.alignment)
        if init is not None:
            self._machine.space.write(address, ctype.encode(init))
        return address

    def local_array(self, element: CType, count: int, name: str) -> CArrayView:
        """Declare ``elem name[count];`` on the stack."""
        if count <= 0:
            raise ApiMisuseError(f"array length must be positive, got {count}")
        address = self._declare(name, element.size * count, element.alignment)
        return CArrayView(self._machine, element, count, address)

    # -- queries --------------------------------------------------------------

    @property
    def locals(self) -> tuple[StackAllocation, ...]:
        """Declared locals in declaration order."""
        return tuple(self._locals)

    def gap_above(self, name: str) -> int:
        """Padding bytes between local ``name`` and whatever sits above it
        (the previous local, or the lowest fixed slot).

        Quantifies the paper's Listing 15 alignment analysis.
        """
        for index, allocation in enumerate(self._locals):
            if allocation.name == name:
                if index == 0:
                    upper = self.slots.lowest_fixed()
                else:
                    upper = self._locals[index - 1].address
                return upper - allocation.end
        raise ApiMisuseError(f"no local '{name}' in frame {self.name}")

    # -- raw slot access (used by tests and forensics) ---------------------

    def read_return_address(self) -> int:
        """Current value of the return-address word."""
        return self._machine.space.read_pointer(self.slots.return_slot)

    def read_saved_fp(self) -> Optional[int]:
        """Current value of the saved-FP word (None if not saved)."""
        if self.slots.fp_slot is None:
            return None
        return self._machine.space.read_pointer(self.slots.fp_slot)

    def read_canary(self) -> Optional[int]:
        """Current value of the canary word (None if absent)."""
        if self.slots.canary_slot is None:
            return None
        return self._machine.space.read_int(
            self.slots.canary_slot, width=POINTER_SIZE, signed=False
        )

"""The downward-growing call-stack region.

This module manages raw stack *space*; the frame discipline (saved frame
pointer, return address, canary — the targets of Listing 13) lives in
:mod:`repro.runtime.frames` and is built on top of these primitives.

Stack layout conventions follow 32-bit x86/gcc: the stack grows toward
lower addresses, a callee's locals sit *below* its return address, and a
local declared *earlier* in the source is placed at a *higher* address
than one declared later (gcc 4.x without ``-fstack-protector-strong``
reordering).  That convention is what makes the paper's Listing 15 work:
``int n`` (declared first) sits above ``Student stud``, so overflowing
``stud`` upward reaches ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ApiMisuseError, StackOverflowError_
from .address_space import AddressSpace
from .alignment import align_down
from .segments import SegmentKind


@dataclass(frozen=True)
class StackAllocation:
    """One variable's reservation inside a frame's local area."""

    name: str
    address: int
    size: int
    alignment: int

    @property
    def end(self) -> int:
        """One past the last byte of the reservation."""
        return self.address + self.size


class StackRegion:
    """Bump management of the stack segment (grows downward)."""

    #: Bytes reserved at the very top for argv/envp/auxv, as the kernel
    #: does — so writes slightly past the outermost frame land in mapped
    #: memory instead of instantly faulting (real overflows trash the
    #: environment block first).
    ENVIRONMENT_AREA = 256

    def __init__(self, space: AddressSpace) -> None:
        self._space = space
        segment = space.segment(SegmentKind.STACK)
        self._lowest = segment.base
        self._top_of_stack = segment.end - self.ENVIRONMENT_AREA
        # The current stack pointer; starts at the top (highest address).
        self._sp = self._top_of_stack

    @property
    def stack_pointer(self) -> int:
        """The current simulated %esp."""
        return self._sp

    @property
    def bytes_used(self) -> int:
        """Distance between the top of the segment and %esp."""
        return self._top_of_stack - self._sp

    @property
    def bytes_free(self) -> int:
        """Remaining stack space before overflow."""
        return self._sp - self._lowest

    def push_region(self, size: int, alignment: int = 4) -> int:
        """Reserve ``size`` bytes below the current stack pointer.

        Returns the (aligned) base address of the reservation.  Raises
        :class:`StackOverflowError_` if the stack segment is exhausted.
        """
        if size < 0:
            raise ApiMisuseError(f"negative stack reservation {size}")
        new_sp = align_down(self._sp - size, alignment)
        if new_sp < self._lowest:
            raise StackOverflowError_(
                f"stack exhausted reserving {size} bytes "
                f"({self.bytes_free} free)"
            )
        self._sp = new_sp
        return new_sp

    def reserve_to(self, address: int) -> None:
        """Move the stack pointer down to ``address`` (frame planners
        compute local addresses first, then commit the space here)."""
        if address > self._sp:
            raise ApiMisuseError(
                f"reserve_to target {address:#010x} is above sp {self._sp:#010x}"
            )
        if address < self._lowest:
            raise StackOverflowError_(
                f"stack exhausted reserving down to {address:#010x}"
            )
        self._sp = address

    def pop_to(self, saved_sp: int) -> None:
        """Restore the stack pointer to a previously captured value."""
        if not self._lowest <= saved_sp <= self._top_of_stack:
            raise ApiMisuseError(f"cannot pop stack to {saved_sp:#010x}")
        if saved_sp < self._sp:
            raise ApiMisuseError(
                f"pop target {saved_sp:#010x} is below current sp {self._sp:#010x}"
            )
        self._sp = saved_sp

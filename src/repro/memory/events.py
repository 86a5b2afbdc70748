"""Coarse memory-event taps for coverage-style observers.

The fuzzer (and any other observer that wants a cheap behavioral
signature of a run) does not need the full access stream — it needs a
small, bounded set of *event kinds*: which segments were written,
whether an installed vtable pointer slot was later overwritten, and so
on.  :class:`MemoryEventTap` is an :data:`AccessHook` that folds raw
accesses into such kinds as they happen, so a run's signature is just a
set of short strings.

Writers that legitimately (re)install a vptr announce the slot first
via :meth:`MemoryEventTap.vptr_installed`; any later write that touches
the slot without storing the expected table address counts as a
``vtable-slot-overwritten`` event — the paper's §4.2 subterfuge seam.
"""

from __future__ import annotations

from .address_space import AddressSpace
from .encoding import POINTER_SIZE


class MemoryEventTap:
    """Fold raw memory accesses into a bounded set of event kinds.

    Attach with ``space.add_access_hook(tap)`` (and detach with
    ``remove_access_hook``).  Observed kinds accumulate in
    :attr:`kinds`; they are deterministic for a deterministic run.
    """

    #: :attr:`kinds` is a set, so a repeated access adds nothing new.  A
    #: write to an announced vptr slot is also judged by its bytes (is it
    #: the install?), so a repeat that stores a different value counts
    #: only if no non-install write has landed there before.  Two loop
    #: iterations that store different values settle that for every
    #: later iteration; two that store the same ones repeat exactly.
    repeat_safe = True

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self.kinds: set = set()
        #: vptr slot address → expected vtable address (the installer's).
        self._vptr_slots: dict = {}

    # -- writer announcements ----------------------------------------------

    def vptr_installed(self, address: int, table_address: int) -> None:
        """Register a vptr slot *before* the installing write lands, so
        the install itself is not misread as an overwrite."""
        self._vptr_slots[address] = table_address

    # -- the AccessHook protocol ---------------------------------------------

    def __call__(self, address: int, data: bytes, is_write: bool) -> None:
        if not is_write:
            return
        segment = self.space.find_segment(address)
        if segment is not None:
            self.kinds.add(f"write:{segment.kind.value}")
        if not self._vptr_slots:
            return
        end = address + len(data)
        for slot, expected in self._vptr_slots.items():
            if address >= slot + POINTER_SIZE or end <= slot:
                continue
            is_install = (
                address == slot
                and len(data) == POINTER_SIZE
                and int.from_bytes(data, "little") == expected
            )
            if not is_install:
                self.kinds.add("vtable-slot-overwritten")

    def sorted_kinds(self) -> tuple:
        """The observed kinds as a deterministic tuple."""
        return tuple(sorted(self.kinds))

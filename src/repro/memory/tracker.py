"""Allocation tracking and leak accounting.

Section 4.5 of the paper shows placement new causing *memory leaks*: a
``GradStudent``-sized arena is re-labelled as a smaller ``Student`` and
the difference is never reclaimed — *"the amount of memory leaked per
iteration is the difference in the size"*.  The tracker provides the
ground truth for experiment E12: it records every live arena together
with the size the program *currently believes* it has, so leaked bytes
are measurable per iteration.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from .._record import field, record


class ArenaOrigin(enum.Enum):
    """How an arena came to exist."""

    HEAP_NEW = "heap-new"
    PLACEMENT = "placement"
    STACK = "stack"
    STATIC = "static"


@record
class ArenaRecord:
    """One tracked arena: where it is, how big it really is, and how big
    the program currently thinks it is."""

    address: int
    true_size: int
    believed_size: int
    origin: ArenaOrigin
    label: str = ""
    freed: bool = False
    history: list[str] = field(default_factory=list)

    @property
    def leaked_bytes(self) -> int:
        """Bytes unreachable if the arena were freed at its believed size."""
        if self.freed:
            return max(self.true_size - self.believed_size, 0)
        return 0


#: Signature of an allocation-lifecycle observer.  ``event`` is one of
#: ``"record"`` / ``"relabel"`` / ``"forget"`` / ``"freed"``; runtime
#: defenses (the VRT bounds table, memory tagging) subscribe here so they
#: see every arena the moment the allocator does.  Observers run *after*
#: the tracker's own bookkeeping and may raise — a relabel that exceeds
#: the recorded bounds is exactly where the VRT faults.
AllocationObserver = Callable[[str, "ArenaRecord"], None]


class AllocationTracker:
    """Registry of arenas with leak accounting."""

    def __init__(self) -> None:
        self._records: dict[int, ArenaRecord] = {}
        self._freed_records: list[ArenaRecord] = []
        self._observers: list[AllocationObserver] = []

    # -- observers ----------------------------------------------------------

    def add_observer(self, observer: AllocationObserver) -> None:
        """Subscribe to arena lifecycle events."""
        self._observers.append(observer)

    def remove_observer(self, observer: AllocationObserver) -> None:
        """Unsubscribe a previously added observer."""
        self._observers.remove(observer)

    def _notify(self, event: str, record: ArenaRecord) -> None:
        for observer in self._observers:
            observer(event, record)

    def record(
        self,
        address: int,
        size: int,
        origin: ArenaOrigin,
        label: str = "",
    ) -> ArenaRecord:
        """Register a new arena (or re-register an address after free)."""
        record = ArenaRecord(
            address=address,
            true_size=size,
            believed_size=size,
            origin=origin,
            label=label,
        )
        record.history.append(f"allocated {size}B as {label or origin.value}")
        self._records[address] = record
        if self._observers:
            self._notify("record", record)
        return record

    def relabel(self, address: int, new_size: int, label: str = "") -> Optional[ArenaRecord]:
        """A placement new re-used ``address`` for a ``new_size`` object.

        The arena's *believed* size shrinks (or grows) while its true size
        is unchanged — the Listing 23 leak mechanism.
        """
        record = self._records.get(address)
        if record is None:
            return None
        record.believed_size = new_size
        record.history.append(f"relabelled to {new_size}B ({label})")
        if self._observers:
            self._notify("relabel", record)
        return record

    def forget(self, address: int) -> Optional[ArenaRecord]:
        """Remove a live record *without* leak accounting.

        Used when storage ceases to exist by scope exit (stack locals at
        frame pop) rather than by an explicit free — no deallocation
        happened, so Listing 23's believed-size arithmetic must not run.
        """
        record = self._records.pop(address, None)
        if record is not None and self._observers:
            self._notify("forget", record)
        return record

    def mark_freed(self, address: int) -> Optional[ArenaRecord]:
        """The program released the arena *at its believed size*."""
        record = self._records.pop(address, None)
        if record is None:
            return None
        record.freed = True
        record.history.append(
            f"freed at believed size {record.believed_size}B "
            f"(true {record.true_size}B)"
        )
        self._freed_records.append(record)
        if self._observers:
            self._notify("freed", record)
        return record

    # -- accounting ---------------------------------------------------------

    @property
    def live_records(self) -> tuple[ArenaRecord, ...]:
        """Arenas not yet freed."""
        return tuple(self._records.values())

    @property
    def leaked_bytes(self) -> int:
        """Bytes stranded by free-at-smaller-size (Listing 23)."""
        return sum(record.leaked_bytes for record in self._freed_records)

    def lookup(self, address: int) -> Optional[ArenaRecord]:
        """The live record at ``address``, if any."""
        return self._records.get(address)

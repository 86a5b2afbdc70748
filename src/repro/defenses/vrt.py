"""Variable Record Table — run-time per-allocation bounds (arXiv 1909.07821).

The paper's §5.2 pessimism about runtime bounds checking — *"placement
new just operates on an address, not on a lexically declared array"* —
is exactly what a VRT answers: the runtime keeps its own table mapping
every variable's base address to its recorded extent, so an address
*can* be resolved back to bounds without lexical information and without
recompiling the placement sites.

The table is fed from three channels:

* the :class:`~repro.memory.tracker.AllocationTracker` — every heap
  ``new``, pool suballocation, stack object and static object enters the
  table the moment it is allocated;
* the :class:`~repro.core.placement.PlacementAuditLog` — placements at
  lexically-known arenas the tracker never saw (a local ``char[]``, a
  bss array) contribute their arena bounds at the placement itself;
* and it is *consulted* at every placement (``relabel``) — an object
  larger than the arena's recorded extent faults before its constructor
  runs — and on every access: bulk reads/writes through the address
  space are checked by containment, typed field/element accesses by
  referent, so ``*(st->courseid + i)`` is checked against ``st``'s
  bounds even when ``i`` walks into a neighbouring allocation.

Because the feed is the allocator/tracker substrate rather than
``Environment.place``, the VRT also covers interpreted programs (the
``repro.execution`` interpreter does its placement internally), which the
§5.1 checked-placement *source fix* cannot reach.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from ..core.placement import PlacementRecord
from ..errors import SimulatedProcessError
from ..memory.tracker import ArenaRecord
from ..runtime.machine import Machine


class VrtBoundsViolation(SimulatedProcessError):
    """An access or placement exceeded a variable's recorded bounds."""

    def __init__(
        self, address: int, size: int, base: int, bounds: int, operation: str
    ) -> None:
        self.address = address
        self.size = size
        self.base = base
        self.bounds = bounds
        self.operation = operation
        super().__init__(
            f"VRT: {operation} of {size}B at {address:#010x} exceeds the "
            f"{bounds}B record of variable {base:#010x}"
        )


@dataclass
class _VrtEntry:
    """One table row: the variable's true extent and what the program
    currently believes lives there (shrunk/grown by placements)."""

    base: int
    true_size: int
    believed_size: int


@dataclass
class VariableRecordTable:
    """The runtime bounds table plus its enforcement hooks."""

    #: A repeated access passes or faults exactly as it did the first
    #: time: the verdict depends on the address and length only, and the
    #: table changes only through the tracker and placement feeds.
    repeat_safe = True

    machine: Machine
    violations: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._entries: dict[int, _VrtEntry] = {}
        self._bases: list[int] = []
        self._dirty = False
        self._armed = False

    # -- feeds --------------------------------------------------------------

    def _put(self, base: int, true_size: int, believed_size: int) -> None:
        if base not in self._entries:
            self._dirty = True
        self._entries[base] = _VrtEntry(
            base=base, true_size=true_size, believed_size=believed_size
        )

    def _drop(self, base: int) -> None:
        if self._entries.pop(base, None) is not None:
            self._dirty = True

    def _on_arena_event(self, event: str, record: ArenaRecord) -> None:
        if event == "record":
            self._put(record.address, record.true_size, record.believed_size)
        elif event == "relabel":
            entry = self._entries.get(record.address)
            if entry is None:
                self._put(record.address, record.true_size, record.believed_size)
                entry = self._entries[record.address]
            entry.believed_size = record.believed_size
            if record.believed_size > entry.true_size:
                self._fail(
                    record.address,
                    record.believed_size,
                    entry.base,
                    entry.true_size,
                    "placement",
                )
        elif event in ("forget", "freed"):
            self._drop(record.address)

    def _on_placement(self, record: PlacementRecord) -> None:
        entry = self._entries.get(record.address)
        if entry is None:
            if record.arena_size is None:
                return  # bare pointer, no recorded variable: unresolvable
            self._put(record.address, record.arena_size, record.size)
            entry = self._entries[record.address]
        if record.size > entry.true_size:
            self._fail(
                record.address, record.size, entry.base, entry.true_size, "placement"
            )
        entry.believed_size = record.size

    # -- lookup -------------------------------------------------------------

    def _reindex(self) -> None:
        self._bases = sorted(self._entries)
        self._dirty = False

    def _entry_containing(self, address: int) -> Optional[_VrtEntry]:
        """The record whose *true* extent contains ``address``, if any
        (innermost wins when placements created nested records)."""
        if self._dirty:
            self._reindex()
        i = bisect_right(self._bases, address) - 1
        if i < 0:
            return None
        entry = self._entries[self._bases[i]]
        if address < entry.base + entry.true_size:
            return entry
        return None

    def lookup(self, address: int) -> Optional[_VrtEntry]:
        """Public containment lookup (diagnostics and tests)."""
        return self._entry_containing(address)

    @property
    def live_entries(self) -> int:
        """Number of variables currently in the table."""
        return len(self._entries)

    # -- enforcement --------------------------------------------------------

    def _fail(
        self, address: int, size: int, base: int, bounds: int, operation: str
    ) -> None:
        violation = VrtBoundsViolation(address, size, base, bounds, operation)
        self.violations.append(violation)
        raise violation

    def _on_access(self, address: int, data: bytes, is_write: bool) -> None:
        entry = self._entry_containing(address)
        if entry is None:
            return
        if address + len(data) > entry.base + entry.believed_size:
            self._fail(
                address,
                len(data),
                entry.base,
                entry.believed_size,
                "write" if is_write else "read",
            )

    def _on_typed_access(
        self, base: int, address: int, length: int, is_write: bool
    ) -> None:
        entry = self._entries.get(base)
        if entry is None:
            return
        if address < entry.base or address + length > entry.base + entry.believed_size:
            self._fail(
                address,
                length,
                entry.base,
                entry.believed_size,
                "write" if is_write else "read",
            )

    # -- lifecycle ----------------------------------------------------------

    def arm(self) -> None:
        """Subscribe to every feed and start enforcing."""
        if self._armed:
            return
        # Adopt arenas that existed before the table was attached.
        for record in self.machine.tracker.live_records:
            self._put(record.address, record.true_size, record.believed_size)
        self.machine.tracker.add_observer(self._on_arena_event)
        self.machine.placement_log.add_observer(self._on_placement)
        self.machine.space.add_access_hook(self._on_access)
        self.machine.space.add_typed_guard(self._on_typed_access)
        self._armed = True

    def disarm(self) -> None:
        """Stop enforcing and detach from the machine."""
        if not self._armed:
            return
        self.machine.tracker.remove_observer(self._on_arena_event)
        self.machine.placement_log.remove_observer(self._on_placement)
        self.machine.space.remove_access_hook(self._on_access)
        self.machine.space.remove_typed_guard(self._on_typed_access)
        self._armed = False


def protect_machine(machine: Machine) -> VariableRecordTable:
    """Attach an armed VRT to ``machine`` and return it."""
    vrt = VariableRecordTable(machine)
    vrt.arm()
    machine.vrt = vrt  # type: ignore[attr-defined]
    return vrt

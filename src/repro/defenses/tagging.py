"""Tag-checked memory segments — GANDALF-style allocation colouring.

Every allocation the tracker sees is coloured with a small tag (4 bits,
values 1–15, the zero tag meaning "untagged", exactly the ARM MTE /
GANDALF economy).  Pointers inherit the colour of the allocation they
were derived from; a store or typed load whose target bytes carry a
different colour than the pointer's provenance faults.

Two checks implement that:

* **span uniformity** (raw store path): a bulk write must land entirely
  inside one coloured allocation or entirely in uncoloured memory — a
  ``strcpy`` that starts in allocation A and runs into allocation B
  crosses a tag boundary mid-copy and faults at the store.
* **provenance equality** (typed path): field/element accesses carry the
  referent object's base address, so ``st->courseid[i]`` faults when the
  computed element address lands in memory whose tag differs from
  ``st``'s — even though the store itself never *crosses* a boundary.

Honest limits are kept honest: tags are allocation-granular, so
intra-allocation overflows (the paper's E7 internal overflow) pass; the
4-bit space recycles, so the 16th concurrently-live allocation shares a
colour with the 1st and a lucky overflow between same-coloured
neighbours is invisible; and freed memory is simply uncoloured rather
than recoloured, so this models bounds isolation, not use-after-free
detection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from .._record import field, record
from ..errors import SimulatedProcessError
from ..memory.tracker import ArenaRecord
from ..runtime.machine import Machine

#: 4-bit tag space; 0 is reserved for untagged memory.
TAG_VALUES = 15


class TagMismatchFault(SimulatedProcessError):
    """A store or typed access hit memory of a different colour."""

    def __init__(
        self, address: int, size: int, expected_tag: int, found_tag: int, operation: str
    ) -> None:
        self.address = address
        self.size = size
        self.expected_tag = expected_tag
        self.found_tag = found_tag
        self.operation = operation
        super().__init__(
            f"tag mismatch: {operation} of {size}B at {address:#010x} "
            f"expected colour {expected_tag}, memory holds {found_tag}"
        )


@record
class _TaggedRange:
    """One coloured allocation: [base, base+size) painted ``tag``."""

    base: int
    size: int
    tag: int

    @property
    def end(self) -> int:
        return self.base + self.size


@record
class MemoryTagging:
    """Allocation-granular tag map plus its enforcement hooks."""

    #: A repeated access passes or faults exactly as it did the first
    #: time: the verdict depends on the address and length only, and the
    #: colours change only through the tracker feed.
    repeat_safe = True

    #: The raw hook checks stores only (see :meth:`_on_access`), so
    #: reads are never delivered to it.
    observes_reads = False

    machine: Machine
    faults: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ranges: dict[int, _TaggedRange] = {}
        self._bases: list[int] = []
        self._dirty = False
        self._next_tag = 0
        self._armed = False

    # -- colouring ----------------------------------------------------------

    def _paint(self, base: int, size: int) -> None:
        self._next_tag += 1
        tag = 1 + (self._next_tag - 1) % TAG_VALUES
        if base not in self._ranges:
            self._dirty = True
        self._ranges[base] = _TaggedRange(base=base, size=size, tag=tag)

    def _clear(self, base: int) -> None:
        if self._ranges.pop(base, None) is not None:
            self._dirty = True

    def _on_arena_event(self, event: str, record: ArenaRecord) -> None:
        if event == "record":
            # Colour follows the *allocation*, never the placement: a
            # placement-new reuses the arena's memory, so relabels keep
            # the existing colour (MTE retags on malloc/free, not casts).
            self._paint(record.address, record.true_size)
        elif event in ("forget", "freed"):
            self._clear(record.address)

    # -- lookup -------------------------------------------------------------

    def _reindex(self) -> None:
        self._bases = sorted(self._ranges)
        self._dirty = False

    def _range_containing(self, address: int) -> Optional[_TaggedRange]:
        if self._dirty:
            self._reindex()
        i = bisect_right(self._bases, address) - 1
        if i < 0:
            return None
        rng = self._ranges[self._bases[i]]
        if address < rng.end:
            return rng
        return None

    def tag_at(self, address: int) -> int:
        """The colour of one byte (0 = untagged)."""
        rng = self._range_containing(address)
        return rng.tag if rng is not None else 0

    @property
    def live_ranges(self) -> int:
        """Number of coloured allocations."""
        return len(self._ranges)

    # -- enforcement --------------------------------------------------------

    def _fail(
        self, address: int, size: int, expected: int, found: int, operation: str
    ) -> None:
        fault = TagMismatchFault(address, size, expected, found, operation)
        self.faults.append(fault)
        raise fault

    def _check_span(self, address: int, length: int, operation: str) -> None:
        """The span [address, address+length) must be uniformly coloured."""
        if self._dirty:
            self._reindex()
        rng = self._range_containing(address)
        if rng is not None:
            if address + length > rng.end:
                # Runs off the end of its allocation into whatever is next.
                self._fail(
                    address, length, rng.tag, self.tag_at(rng.end), operation
                )
            return
        # Starts in untagged memory: it must not run into a coloured range.
        i = bisect_left(self._bases, address)
        if i < len(self._bases) and self._bases[i] < address + length:
            crossed = self._ranges[self._bases[i]]
            self._fail(address, length, 0, crossed.tag, operation)

    def _on_access(self, address: int, data: bytes, is_write: bool) -> None:
        # Store-side checking only on the raw path: bulk loads (string
        # scans) legitimately sweep across segment boundaries; typed
        # loads are covered by the provenance check below.
        if not is_write:
            return
        self._check_span(address, len(data), "write")

    def _on_typed_access(
        self, base: int, address: int, length: int, is_write: bool
    ) -> None:
        expected = self.tag_at(base)
        found = self.tag_at(address)
        if expected != found:
            self._fail(
                address, length, expected, found, "write" if is_write else "read"
            )

    # -- lifecycle ----------------------------------------------------------

    def arm(self) -> None:
        """Colour existing allocations, subscribe, start enforcing."""
        if self._armed:
            return
        for record in self.machine.tracker.live_records:
            self._paint(record.address, record.true_size)
        self.machine.tracker.add_observer(self._on_arena_event)
        self.machine.space.add_access_hook(self._on_access)
        self.machine.space.add_typed_guard(self._on_typed_access)
        self._armed = True

    def disarm(self) -> None:
        """Stop enforcing and detach from the machine."""
        if not self._armed:
            return
        self.machine.tracker.remove_observer(self._on_arena_event)
        self.machine.space.remove_access_hook(self._on_access)
        self.machine.space.remove_typed_guard(self._on_typed_access)
        self._armed = False


def protect_machine(machine: Machine) -> MemoryTagging:
    """Attach an armed tag map to ``machine`` and return it."""
    tagging = MemoryTagging(machine)
    tagging.arm()
    return tagging

"""Post-mortem forensics: snapshots, diffs, and address annotation.

The reproduction's equivalent of the paper's "Before Attack / After
Attack" printouts, generalized: snapshot the whole image, run the
attack, diff — every changed byte range comes back annotated with what
lives there (which global, which heap block, which frame slot), so a
report reads like a debugger session rather than a hex soup.
"""

from __future__ import annotations

from typing import Optional

from ._record import field, record
from .memory.segments import SegmentKind
from .runtime.frames import CallFrame
from .runtime.machine import Machine


@record(frozen=True)
class ChangedRange:
    """One contiguous run of bytes that differ between snapshots."""

    address: int
    before: bytes
    after: bytes
    segment: SegmentKind
    annotation: str = ""

    @property
    def length(self) -> int:
        return len(self.before)

    def describe(self) -> str:
        note = f"  ({self.annotation})" if self.annotation else ""
        return (
            f"{self.address:#010x} +{self.length:<4d} [{self.segment.value:5s}] "
            f"{self.before.hex()} -> {self.after.hex()}{note}"
        )


class MemorySnapshot:
    """A full copy of every segment's bytes at one instant."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._segments = {
            segment.kind: segment.snapshot() for segment in machine.space.segments
        }
        self._bases = {
            segment.kind: segment.base for segment in machine.space.segments
        }

    def diff(self, other: "MemorySnapshot") -> list[ChangedRange]:
        """Changed ranges from this snapshot to ``other`` (same machine)."""
        changes: list[ChangedRange] = []
        for kind, before in self._segments.items():
            after = other._segments.get(kind)
            if after is None or before == after:
                continue
            base = self._bases[kind]
            start: Optional[int] = None
            for index in range(len(before) + 1):
                differs = index < len(before) and before[index] != after[index]
                if differs and start is None:
                    start = index
                elif not differs and start is not None:
                    changes.append(
                        ChangedRange(
                            address=base + start,
                            before=bytes(before[start:index]),
                            after=bytes(after[start:index]),
                            segment=kind,
                        )
                    )
                    start = None
        return changes


def annotate_address(
    machine: Machine, address: int, frame: Optional[CallFrame] = None
) -> str:
    """Human-readable description of what lives at ``address``."""
    # Frame slots first: the most security-relevant locations.
    if frame is not None:
        if address == frame.slots.return_slot:
            return f"return address of {frame.name}()"
        if frame.slots.fp_slot is not None and address == frame.slots.fp_slot:
            return f"saved frame pointer of {frame.name}()"
        if (
            frame.slots.canary_slot is not None
            and address == frame.slots.canary_slot
        ):
            return f"stack canary of {frame.name}()"
        for allocation in frame.locals:
            if allocation.address <= address < allocation.end:
                offset = address - allocation.address
                return f"local '{allocation.name}'+{offset} in {frame.name}()"
    # Globals.
    for name in _global_names(machine):
        var = machine.global_var(name)
        if var.address <= address < var.address + var.size:
            return f"global '{name}'+{address - var.address}"
    # Heap blocks.
    segment = machine.space.find_segment(address)
    if segment is None:
        return "unmapped"
    if segment.kind is SegmentKind.HEAP:
        for block in machine.heap.blocks():
            if block.corrupted:
                break
            if block.header_address <= address < block.payload_address:
                return "heap block header (allocator metadata)"
            if (
                block.payload_address
                <= address
                < block.payload_address + block.payload_size
            ):
                record = machine.tracker.lookup(block.payload_address)
                label = record.label if record else "anonymous"
                return f"heap payload '{label}'+{address - block.payload_address}"
    if segment.kind is SegmentKind.TEXT:
        entry = machine.text.function_at(address)
        if entry is not None:
            return f"function entry {entry.name}()"
        table = machine.text.vtable_at(address)
        if table is not None:
            return f"vtable of {table.class_name}"
        return "text"
    return segment.kind.value


def _global_names(machine: Machine) -> tuple:
    return tuple(machine._globals)  # noqa: SLF001 - forensics is privileged


@record
class AttackForensics:
    """Snapshot-diff harness around an attack run."""

    machine: Machine
    frame: Optional[CallFrame] = None
    _before: Optional[MemorySnapshot] = None
    changes: list = field(default_factory=list)

    def begin(self) -> None:
        """Capture the pre-attack state."""
        self._before = MemorySnapshot(self.machine)

    def end(self) -> list[ChangedRange]:
        """Capture the post-attack state and compute annotated changes."""
        if self._before is None:
            raise RuntimeError("begin() was not called")
        after = MemorySnapshot(self.machine)
        annotated: list[ChangedRange] = []
        for change in self._before.diff(after):
            annotated.append(
                ChangedRange(
                    address=change.address,
                    before=change.before,
                    after=change.after,
                    segment=change.segment,
                    annotation=annotate_address(
                        self.machine, change.address, self.frame
                    ),
                )
            )
        self.changes = annotated
        return annotated

    def report(self) -> str:
        """The full annotated diff."""
        if not self.changes:
            return "no memory changes recorded"
        return "\n".join(change.describe() for change in self.changes)

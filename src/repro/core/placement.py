"""Placement new — the paper's vulnerable primitive, reproduced faithfully.

C++ defines placement new as nothing more than::

    void *operator new (size_t, void *p) throw() { return p; }
    void *operator new[] (size_t, void *p) throw() { return p; }

It returns the supplied pointer and runs the constructor there.  The
security-relevant properties (paper Section 2.5) are all reproduced:

1. **any address** allocated to the process is accepted;
2. **no bounds checking**, compile-time or runtime;
3. **no type checking** between the arena's former occupant and the new
   object;
4. **no alignment enforcement** (we *report* misalignment but never
   block it);
5. **no sanitization** of the arena's previous contents (the Listing
   21/22 information-leak precondition) and no automatic deallocation
   bookkeeping (the Listing 23 leak).

The checked counterpart recommended by Section 5.1 lives in
:mod:`repro.core.checked`.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from .._record import record
from ..cxx.classdef import ClassDef
from ..cxx.object_model import CArrayView, Instance
from ..cxx.types import CType
from ..errors import ApiMisuseError
from ..memory.alignment import is_aligned
from .new_expr import NewContext, construct

#: Things that can serve as the placement address argument.
PlacementTarget = Union[int, Instance, CArrayView]


@record(frozen=True)
class PlacementRecord:
    """Audit record of one placement (consumed by defenses and tests)."""

    address: int
    size: int
    type_name: str
    misaligned: bool
    arena_size: Optional[int]

    @property
    def overflows_arena(self) -> Optional[bool]:
        """True/False when the arena size is known, None otherwise.

        ``None`` is the common — and dangerous — case: placement new is
        handed a bare pointer and nobody knows the arena's extent
        (Section 5.2: *"placement new just operates on an address, not on
        a lexically declared array"*).
        """
        if self.arena_size is None:
            return None
        return self.size > self.arena_size


def resolve_target(target: PlacementTarget) -> tuple[int, Optional[int]]:
    """Normalize a placement target to (address, known-arena-size).

    A raw ``int`` address has *unknown* extent; an Instance/array view
    contributes its static size.  Pool suballocation is a separate
    expression in the source program: callers reserve from a
    :class:`~repro.memory.pool.MemoryPool` and place at the address.
    """
    if isinstance(target, Instance):
        return target.address, target.size
    if isinstance(target, CArrayView):
        return target.address, target.size
    if isinstance(target, int):
        if target == 0:
            raise ApiMisuseError("placement address must be non-null")
        return target, None
    raise ApiMisuseError(f"cannot place at {target!r}")


class PlacementAuditLog:
    """Accumulates :class:`PlacementRecord` entries per context."""

    def __init__(self) -> None:
        self._records: list[PlacementRecord] = []
        self._observers: list = []

    def add_observer(self, observer) -> None:
        """Subscribe to placement events.

        Observers see each :class:`PlacementRecord` as it is audited —
        including placements at lexically-known arenas the allocation
        tracker never saw (a local ``char[]``, a bss array).  The VRT
        bounds table consults here; observers may raise to abort the
        placement the way a run-time bounds check would.
        """
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Unsubscribe a previously added observer."""
        self._observers.remove(observer)

    def add(self, record: PlacementRecord) -> None:
        """Append one placement event."""
        self._records.append(record)
        for observer in self._observers:
            observer(record)

    @property
    def records(self) -> tuple[PlacementRecord, ...]:
        """All placements, in order."""
        return tuple(self._records)

    def overflowing(self) -> tuple[PlacementRecord, ...]:
        """Placements *known* to exceed their arena."""
        return tuple(r for r in self._records if r.overflows_arena)


def _audit(ctx: NewContext, record: PlacementRecord) -> None:
    log = getattr(ctx, "placement_log", None)
    if log is not None:
        log.add(record)


def placement_new(
    ctx: NewContext,
    target: PlacementTarget,
    class_def: ClassDef,
    *args: Any,
) -> Instance:
    """``new (target) T(args...)`` — **unchecked**, per the standard.

    Whatever the relative sizes of the new object and the arena, the
    constructor runs and its writes land at ``target .. target+sizeof(T)``.
    If ``sizeof(T)`` exceeds the arena, the surplus writes fall onto the
    arena's neighbours: the object overflow of Section 3.
    """
    address, arena_size = resolve_target(target)
    layout = ctx.layouts.layout_of(class_def)
    misaligned = not is_aligned(address, layout.alignment)
    _audit(
        ctx,
        PlacementRecord(
            address=address,
            size=layout.size,
            type_name=class_def.name,
            misaligned=misaligned,
            arena_size=arena_size,
        ),
    )
    # Leak bookkeeping: if the address is a tracked arena, the program
    # now believes the arena is only sizeof(T) big (Listing 23).
    ctx.tracker.relabel(address, layout.size, label=class_def.name)
    return construct(ctx, class_def, address, *args)


def placement_new_array(
    ctx: NewContext,
    target: PlacementTarget,
    element: CType,
    count: int,
) -> CArrayView:
    """``new (target) T[count]`` — unchecked array placement.

    Note that C++ zero-initializes nothing here and neither do we: the
    arena's previous bytes remain readable through the new view, which is
    the Listing 21 information leak.
    """
    if count <= 0:
        raise ApiMisuseError(f"placement new[] length must be positive, got {count}")
    address, arena_size = resolve_target(target)
    size = element.size * count
    misaligned = not is_aligned(address, element.alignment)
    _audit(
        ctx,
        PlacementRecord(
            address=address,
            size=size,
            type_name=f"{element.name}[{count}]",
            misaligned=misaligned,
            arena_size=arena_size,
        ),
    )
    ctx.tracker.relabel(address, size, label=f"{element.name}[{count}]")
    return CArrayView(ctx, element, count, address)


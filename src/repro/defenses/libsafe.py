"""Library-interception defense ("libsafe"/"libverify") — Section 5.2.

The paper suggests library-based protection *"can be updated
appropriately to intercept dynamic invocations to placement new and
carry out bounds checking.  However ... bounds checking may not be as
easy here because placement new just operates on an address, not on a
lexically declared array."*

:class:`LibSafePlacementGuard` implements exactly that: it intercepts
placements and checks them against the allocation tracker's knowledge of
the arena at that address.  The measurable limitation is faithful too —
a placement at a *raw interior address* the tracker never saw passes
unchecked, which :func:`coverage_report` quantifies.
"""

from __future__ import annotations

from typing import Any, Optional

from .._record import field, record
from ..cxx.classdef import ClassDef
from ..cxx.object_model import Instance
from ..core.placement import placement_new, resolve_target
from ..errors import BoundsCheckViolation
from ..runtime.machine import Machine


@record
class InterceptionRecord:
    """One intercepted placement and what the guard knew about it."""

    address: int
    object_size: int
    arena_known: bool
    arena_size: Optional[int]
    blocked: bool


@record
class LibSafePlacementGuard:
    """Intercepts placement new, enforcing bounds where bounds are known."""

    machine: Machine
    records: list[InterceptionRecord] = field(default_factory=list)

    def place(
        self, target: Any, class_def: ClassDef, *args: Any
    ) -> Instance:
        """The intercepted ``new (target) T(...)``.

        If the tracker knows the arena at the target address, enforce the
        Section 5.1 size rule; otherwise fall through unchecked — the
        library has no lexical array to measure against.
        """
        address, declared = resolve_target(target)
        record = self.machine.tracker.lookup(address)
        arena_size: Optional[int] = None
        arena_known = False
        if record is not None:
            arena_known = True
            arena_size = record.true_size
        elif declared is not None:
            arena_known = True
            arena_size = declared
        object_size = self.machine.layouts.sizeof(class_def)
        blocked = arena_known and object_size > (arena_size or 0)
        self.records.append(
            InterceptionRecord(
                address=address,
                object_size=object_size,
                arena_known=arena_known,
                arena_size=arena_size,
                blocked=blocked,
            )
        )
        if blocked:
            raise BoundsCheckViolation(
                arena_size=arena_size or 0,
                object_size=object_size,
                detail="libsafe interception",
            )
        return placement_new(self.machine, target, class_def, *args)

    def coverage_report(self) -> dict:
        """How much of the placement traffic the guard could judge —
        the paper's 'not as easy' gap, quantified."""
        total = len(self.records)
        known = sum(1 for r in self.records if r.arena_known)
        blocked = sum(1 for r in self.records if r.blocked)
        return {
            "placements": total,
            "arena_known": known,
            "blind_spots": total - known,
            "blocked": blocked,
            "coverage": known / total if total else 1.0,
        }

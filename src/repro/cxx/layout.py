"""Record layout: turning a :class:`ClassDef` into offsets and sizes.

This is the simulated compiler's layout pass, following the Itanium C++
ABI in the respects the paper's attacks depend on:

* the vtable pointer is the **first entry** of a polymorphic object
  (Section 3.8.2: *"The C++ compiler adds a pointer to the virtual table
  in each instance as the first entry"*);
* a derived class shares the vptr of its primary (first, polymorphic)
  base; with multiple inheritance, non-primary polymorphic bases keep
  their own vptr, so *"there are more than one vtable pointers in a given
  instance"*;
* base subobjects come first, then the derived class's own members, each
  aligned naturally, with tail padding rounding the size up to the
  object's alignment.

The numbers this pass produces for the paper's classes are the ground
truth in DESIGN.md section 4 (``sizeof(Student) == 16``,
``sizeof(GradStudent) == 32``), and every attack offset derives from
them.

Deliberate simplification: no empty-base optimization (an empty base
occupies its 1 byte).  None of the paper's classes are empty, so this
does not affect any reproduced result.
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from ..errors import LayoutError
from ..memory.alignment import align_up
from ..memory.encoding import POINTER_SIZE
from .classdef import ClassDef
from .types import CType


@record(frozen=True)
class FieldSlot:
    """A field resolved to an absolute offset within the object."""

    name: str
    offset: int
    ctype: CType
    declaring_class: str


@record(frozen=True)
class RecordLayout:
    """The computed memory layout of one class."""

    class_def: ClassDef
    size: int
    alignment: int
    field_slots: tuple[FieldSlot, ...]
    vptr_offsets: tuple[int, ...]

    @property
    def has_vptr(self) -> bool:
        """True if the object carries at least one vtable pointer."""
        return bool(self.vptr_offsets)

    @property
    def primary_vptr_offset(self) -> int:
        """Offset of the main vptr (0 for polymorphic classes)."""
        if not self.vptr_offsets:
            raise LayoutError(f"class {self.class_def.name} is not polymorphic")
        return self.vptr_offsets[0]

    def slot(self, field_name: str) -> FieldSlot:
        """Look up a field (own or inherited) by name.

        When a derived class shadows a base field name, the most-derived
        declaration wins, matching C++ name lookup.
        """
        for field_slot in reversed(self.field_slots):
            if field_slot.name == field_name:
                return field_slot
        raise LayoutError(f"class {self.class_def.name} has no field '{field_name}'")


@record(frozen=True)
class ClassType(CType):
    """A class used as a *member type* (e.g. Listing 10's
    ``Student stud1, stud2;`` inside ``MobilePlayer``).

    Size and alignment are computed from the class's record layout at
    construction time via :func:`class_type`.  Values are raw bytes —
    member objects are manipulated through
    :meth:`~repro.cxx.object_model.Instance.nested`, not decode().
    """

    class_def: "ClassDef" = None  # type: ignore[assignment]

    def encode(self, value) -> bytes:
        data = bytes(value)
        if len(data) != self.size:
            raise LayoutError(
                f"raw init of {self.name} needs {self.size} bytes, got {len(data)}"
            )
        return data

    def decode(self, data: bytes):
        return bytes(data)


def class_type(class_def: ClassDef, engine: "LayoutEngine" = None) -> ClassType:
    """Build a member-type adapter for ``class_def``.

    Layout is deterministic, so any engine gives the same numbers; a
    throwaway one is used when none is supplied.
    """
    layout = (engine or LayoutEngine()).layout_of(class_def)
    return ClassType(
        name=class_def.name,
        size=layout.size,
        alignment=layout.alignment,
        class_def=class_def,
    )


class LayoutEngine:
    """Computes and caches :class:`RecordLayout` objects."""

    def __init__(self) -> None:
        self._cache: dict[str, RecordLayout] = {}

    def layout_of(self, class_def: ClassDef) -> RecordLayout:
        """The layout of ``class_def`` (memoized by class name)."""
        cached = self._cache.get(class_def.name)
        if cached is not None and cached.class_def is class_def:
            return cached
        computed = self._compute(class_def)
        self._cache[class_def.name] = computed
        return computed

    def _compute(self, class_def: ClassDef) -> RecordLayout:
        cursor = 0
        alignment = 1
        field_slots: list[FieldSlot] = []
        vptr_offsets: list[int] = []

        polymorphic = class_def.is_polymorphic()
        primary_base: Optional[ClassDef] = None
        if class_def.bases and class_def.bases[0].is_polymorphic():
            primary_base = class_def.bases[0]

        if polymorphic and primary_base is None:
            # This class introduces the vptr itself, as the first entry.
            vptr_offsets.append(0)
            cursor = POINTER_SIZE
            alignment = max(alignment, POINTER_SIZE)

        for base in class_def.bases:
            base_layout = self.layout_of(base)
            offset = align_up(cursor, base_layout.alignment)
            for slot in base_layout.field_slots:
                field_slots.append(
                    FieldSlot(
                        name=slot.name,
                        offset=offset + slot.offset,
                        ctype=slot.ctype,
                        declaring_class=slot.declaring_class,
                    )
                )
            for vptr in base_layout.vptr_offsets:
                vptr_offsets.append(offset + vptr)
            cursor = offset + base_layout.size
            alignment = max(alignment, base_layout.alignment)

        for member in class_def.fields:
            offset = align_up(cursor, member.ctype.alignment)
            field_slots.append(
                FieldSlot(
                    name=member.name,
                    offset=offset,
                    ctype=member.ctype,
                    declaring_class=class_def.name,
                )
            )
            cursor = offset + member.ctype.size
            alignment = max(alignment, member.ctype.alignment)

        size = align_up(max(cursor, 1), alignment)
        return RecordLayout(
            class_def=class_def,
            size=size,
            alignment=alignment,
            field_slots=tuple(field_slots),
            vptr_offsets=tuple(sorted(set(vptr_offsets))),
        )

    def sizeof(self, class_def: ClassDef) -> int:
        """C++ ``sizeof`` for a class type."""
        return self.layout_of(class_def).size

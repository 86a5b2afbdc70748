"""Typed views over raw simulated memory: instances and arrays.

An :class:`Instance` is a (class definition, address) pair interpreted
through the layout engine — precisely what a C++ object *is*.  There is
deliberately **no** containment check between the instance's extent and
whatever arena it was placed into: once constructed, field writes go to
``address + offset`` no matter what lives there.  That fidelity is the
point — every attack in the paper is "field write whose offset exceeds
the arena".

Array element accessors follow C semantics too: ``get_element(i)``
computes ``base + i*sizeof(elem)`` without comparing ``i`` against the
declared length, mirroring the paper's Listing 6
(``*(st->courseid + i) = ...``).
"""

from __future__ import annotations

from typing import Any, Protocol

from ..errors import ApiMisuseError, LayoutError
from .classdef import ClassDef
from .layout import FieldSlot, RecordLayout
from .types import ArrayType, CType


class ObjectContext(Protocol):
    """What an :class:`Instance` needs from its environment: ``space``
    (the address space) and ``layouts`` (the layout engine).

    The runtime :class:`~repro.runtime.machine.Machine` satisfies this;
    tests may supply any object with the two attributes.
    """


class Instance:
    """A typed window onto ``layout.size`` bytes at ``address``."""

    def __init__(self, ctx: ObjectContext, class_def: ClassDef, address: int) -> None:
        self._ctx = ctx
        self._class_def = class_def
        self._address = address
        # Cached reference to the space's typed-guard list (mutated in
        # place by add/remove, so the cache never goes stale); None for
        # minimal test stubs.  Empty list == no guards == zero-cost path.
        self._guards = getattr(ctx.space, "_typed_guards", None)

    # -- identity ----------------------------------------------------------

    @property
    def address(self) -> int:
        """The object's base address (``this``)."""
        return self._address

    @property
    def class_def(self) -> ClassDef:
        """The static type this window interprets memory as."""
        return self._class_def

    @property
    def layout(self) -> RecordLayout:
        """The computed record layout."""
        return self._ctx.layouts.layout_of(self._class_def)

    @property
    def size(self) -> int:
        """``sizeof`` the static type."""
        return self.layout.size

    @property
    def end(self) -> int:
        """One past the object's last byte."""
        return self._address + self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self._class_def.name} @ {self._address:#010x}>"

    # -- field access -----------------------------------------------------

    def _slot(self, name: str) -> FieldSlot:
        return self.layout.slot(name)

    def _check_strict_alignment(self, address: int, ctype: CType) -> None:
        """On strict-alignment targets (§2.5 item 4), a scalar access at
        a misaligned address is a bus error — the delayed 'program
        termination' a misaligned placement earns."""
        if (
            getattr(self._ctx.space, "strict_alignment", False)
            and ctype.alignment > 1
            and address % ctype.alignment != 0
        ):
            from ..errors import BusError

            raise BusError(address, ctype.alignment, "access")

    def get(self, name: str) -> Any:
        """Read a field's current value from memory."""
        slot = self._slot(name)
        address = self._address + slot.offset
        self._check_strict_alignment(address, slot.ctype)
        if self._guards:
            self._ctx.space.check_typed_access(
                self._address, address, slot.ctype.size, False
            )
        data = self._ctx.space.read(address, slot.ctype.size)
        return slot.ctype.decode(data)

    def set(self, name: str, value: Any) -> None:
        """Write a field.  The write is bounded only by the *field's*
        size — if the field itself extends past the arena the object was
        placed in, this is the overflow."""
        slot = self._slot(name)
        address = self._address + slot.offset
        self._check_strict_alignment(address, slot.ctype)
        if self._guards:
            self._ctx.space.check_typed_access(
                self._address, address, slot.ctype.size, True
            )
        self._ctx.space.write(address, slot.ctype.encode(value))

    def nested(self, name: str) -> "Instance":
        """A typed view of a class-type member (``this->stud1``).

        Requires the field to have been declared with a
        :class:`~repro.cxx.layout.ClassType`.
        """
        slot = self._slot(name)
        member_class = getattr(slot.ctype, "class_def", None)
        if member_class is None:
            raise ApiMisuseError(f"field '{name}' is not a class-type member")
        return Instance(self._ctx, member_class, self._address + slot.offset)

    # -- array-member access (C pointer arithmetic, unchecked) ------------

    def _array_slot(self, name: str) -> tuple[FieldSlot, ArrayType]:
        slot = self._slot(name)
        if not isinstance(slot.ctype, ArrayType):
            raise ApiMisuseError(f"field '{name}' is not an array")
        return slot, slot.ctype

    def element_address(self, name: str, index: int) -> int:
        """``&field[index]`` — computed without any bounds check."""
        slot, array_type = self._array_slot(name)
        return self._address + slot.offset + index * array_type.element.size

    def get_element(self, name: str, index: int) -> Any:
        """Read ``field[index]`` (unchecked, like C)."""
        _, array_type = self._array_slot(name)
        address = self.element_address(name, index)
        if self._guards:
            self._ctx.space.check_typed_access(
                self._address, address, array_type.element.size, False
            )
        data = self._ctx.space.read(address, array_type.element.size)
        return array_type.element.decode(data)

    def set_element(self, name: str, index: int, value: Any) -> None:
        """Write ``field[index]`` (unchecked, like C).

        With ``index`` past the declared length this writes beyond the
        field — and past the object, and past the arena — which is the
        mechanism behind Listings 6, 11, 12, 13 and friends.
        """
        _, array_type = self._array_slot(name)
        address = self.element_address(name, index)
        if self._guards:
            self._ctx.space.check_typed_access(
                self._address, address, array_type.element.size, True
            )
        self._ctx.space.write(address, array_type.element.encode(value))

    # -- vptr access ------------------------------------------------------

    def read_vptr(self) -> int:
        """The vtable pointer currently stored in the object."""
        layout = self.layout
        if not layout.has_vptr:
            raise LayoutError(f"{self._class_def.name} has no vptr")
        return self._ctx.space.read_pointer(
            self._address + layout.primary_vptr_offset
        )

    # -- whole-object helpers ------------------------------------------------

    def as_type(self, other: ClassDef) -> "Instance":
        """Reinterpret the same memory as another class (a C++ cast —
        no conversion, no check: the weak typing the paper leans on)."""
        return Instance(self._ctx, other, self._address)

    def field_values(self) -> dict:
        """All named fields decoded (diagnostics and tests)."""
        return {slot.name: self.get(slot.name) for slot in self.layout.field_slots}


class CArrayView:
    """A typed window onto a raw C array (not a class member)."""

    def __init__(
        self, ctx: ObjectContext, element: CType, count: int, address: int
    ) -> None:
        if count <= 0:
            raise ApiMisuseError(f"array length must be positive, got {count}")
        self._element = element
        self._count = count
        self._address = address

    @property
    def address(self) -> int:
        """Base address of element 0."""
        return self._address

    @property
    def size(self) -> int:
        """Declared extent in bytes."""
        return self._count * self._element.size

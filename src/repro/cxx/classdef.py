"""Class definitions for the simulated C++ object model.

A :class:`ClassDef` captures what a C++ compiler sees in a class
declaration: base classes, non-static data members, virtual methods, and
constructors.  Sizes and offsets are *not* stored here — they are
computed by :mod:`repro.cxx.layout`, the same separation a compiler
maintains between the AST and the record-layout pass.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .._record import record
from ..errors import ApiMisuseError
from .types import CType


@record(frozen=True)
class Field:
    """One non-static data member."""

    name: str
    ctype: CType


@record(frozen=True)
class VirtualMethod:
    """Declaration of a virtual method (implementation bound per class).

    ``implementation`` is a Python callable ``(machine, this_instance,
    *args) -> value`` standing in for the compiled method body.
    """

    name: str
    implementation: Optional[Callable] = None


#: A constructor body: ``(machine, instance, *args) -> None``.
Constructor = Callable[..., None]


@record
class ClassDef:
    """A simulated C++ class declaration."""

    name: str
    bases: tuple["ClassDef", ...] = ()
    fields: tuple[Field, ...] = ()
    virtual_methods: tuple[VirtualMethod, ...] = ()
    constructor: Optional[Constructor] = None

    def __post_init__(self) -> None:
        seen = set()
        for member in self.fields:
            if member.name in seen:
                raise ApiMisuseError(
                    f"duplicate field '{member.name}' in class {self.name}"
                )
            seen.add(member.name)

    # -- queries -------------------------------------------------------------

    def is_polymorphic(self) -> bool:
        """True if this class or any base declares a virtual method."""
        if self.virtual_methods:
            return True
        return any(base.is_polymorphic() for base in self.bases)

    def virtual_slot_order(self) -> tuple[str, ...]:
        """The vtable slot order: inherited slots first, then new ones.

        Follows the Itanium ABI rule that a derived class appends its new
        virtual functions after the (overridden-in-place) base slots.
        """
        order: list[str] = []
        for base in self.bases:
            for slot in base.virtual_slot_order():
                if slot not in order:
                    order.append(slot)
        for method in self.virtual_methods:
            if method.name not in order:
                order.append(method.name)
        return tuple(order)

    def resolve_virtual(self, name: str) -> Optional[Callable]:
        """The most-derived implementation of virtual ``name`` for this
        class (C++ override semantics)."""
        for method in self.virtual_methods:
            if method.name == name and method.implementation is not None:
                return method.implementation
        for base in self.bases:
            found = base.resolve_virtual(name)
            if found is not None:
                return found
        return None


def make_class(
    name: str,
    fields: Sequence[tuple[str, CType]] = (),
    bases: Sequence[ClassDef] = (),
    virtuals: Sequence[VirtualMethod] = (),
    constructor: Optional[Constructor] = None,
) -> ClassDef:
    """Convenience factory used throughout tests and workloads."""
    return ClassDef(
        name=name,
        bases=tuple(bases),
        fields=tuple(Field(fname, ftype) for fname, ftype in fields),
        virtual_methods=tuple(virtuals),
        constructor=constructor,
    )

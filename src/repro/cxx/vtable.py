"""VTable construction for polymorphic classes.

For every polymorphic class the builder registers each virtual method's
most-derived implementation as a text-segment function and emits the
vtable — an array of those entry addresses — into the text image.
Objects then carry only a *pointer* to this table (written by the
constructor), which is the single word the Section 3.8.2 subterfuge
overwrites.
"""

from __future__ import annotations

from ..errors import ApiMisuseError
from .classdef import ClassDef
from .text import EmittedVTable, TextImage


class VTableBuilder:
    """Builds and caches vtables for classes in one text image."""

    def __init__(self, text: TextImage) -> None:
        self._text = text
        self._by_class: dict[str, EmittedVTable] = {}

    def ensure(self, class_def: ClassDef) -> EmittedVTable:
        """Emit (or fetch) the vtable for ``class_def``."""
        cached = self._by_class.get(class_def.name)
        if cached is not None:
            return cached
        if not class_def.is_polymorphic():
            raise ApiMisuseError(
                f"class {class_def.name} has no virtual methods"
            )
        slots: list[tuple[str, int]] = []
        for slot_name in class_def.virtual_slot_order():
            implementation = class_def.resolve_virtual(slot_name)
            if implementation is None:
                # Pure virtual: emit the classic abort stub.
                implementation = _pure_virtual_called
            symbol = f"{class_def.name}::{slot_name}"
            entry = self._text.register_function(
                symbol,
                implementation,
                description=f"virtual {slot_name} for {class_def.name}",
            )
            slots.append((slot_name, entry.address))
        table = self._text.emit_vtable(class_def.name, slots)
        self._by_class[class_def.name] = table
        return table

    def slot_index(self, class_def: ClassDef, method_name: str) -> int:
        """The vtable slot index the compiler would use for a call
        through a ``class_def`` pointer."""
        order = class_def.virtual_slot_order()
        try:
            return order.index(method_name)
        except ValueError:
            raise ApiMisuseError(
                f"{class_def.name} has no virtual method '{method_name}'"
            ) from None


def _pure_virtual_called(machine, instance, *args):  # pragma: no cover - stub
    """Stand-in for libstdc++'s ``__cxa_pure_virtual`` abort."""
    raise ApiMisuseError("pure virtual method called")

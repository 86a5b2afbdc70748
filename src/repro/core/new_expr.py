"""The non-placement ``new`` / ``new[]`` expressions.

These allocate from the simulated heap and then run *construction* —
writing vptrs and invoking the class's constructor body.  Construction is
shared with placement new (:mod:`repro.core.placement`); the only
difference between the two expressions is where the storage comes from,
exactly as in C++.
"""

from __future__ import annotations

from typing import Any, Protocol

from ..cxx.classdef import ClassDef
from ..cxx.object_model import CArrayView, Instance
from ..cxx.types import CType
from ..errors import ApiMisuseError
from ..memory.tracker import ArenaOrigin


class NewContext(Protocol):
    """Environment required by the allocation expressions: an object with
    ``space``, ``layouts``, ``heap``, ``tracker`` and ``vtables``.

    :class:`repro.runtime.machine.Machine` satisfies this protocol.
    """


def construct(ctx: NewContext, class_def: ClassDef, address: int, *args: Any) -> Instance:
    """Run construction of ``class_def`` at ``address``.

    Mirrors a compiled constructor: install the vtable pointer(s) first,
    then execute the constructor body.  No storage checks of any kind —
    callers (``new`` vs placement new) differ only in where ``address``
    came from.
    """
    layout = ctx.layouts.layout_of(class_def)
    instance = Instance(ctx, class_def, address)
    if layout.has_vptr:
        table = ctx.vtables.ensure(class_def)
        for vptr_offset in layout.vptr_offsets:
            ctx.space.write_pointer(address + vptr_offset, table.address)
    body = class_def.constructor
    if body is not None:
        body(ctx, instance, *args)
    elif args:
        raise ApiMisuseError(
            f"class {class_def.name} has no constructor taking {len(args)} args"
        )
    return instance


def new_object(ctx: NewContext, class_def: ClassDef, *args: Any) -> Instance:
    """``new T(args...)`` — heap storage plus construction."""
    size = ctx.layouts.sizeof(class_def)
    address = ctx.heap.allocate(size)
    ctx.tracker.record(address, size, ArenaOrigin.HEAP_NEW, label=class_def.name)
    return construct(ctx, class_def, address, *args)


def new_array(ctx: NewContext, element: CType, count: int) -> CArrayView:
    """``new T[count]`` for a scalar element type."""
    if count <= 0:
        raise ApiMisuseError(f"new[] length must be positive, got {count}")
    size = element.size * count
    address = ctx.heap.allocate(size)
    ctx.tracker.record(
        address, size, ArenaOrigin.HEAP_NEW, label=f"{element.name}[{count}]"
    )
    return CArrayView(ctx, element, count, address)


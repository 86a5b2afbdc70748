"""Checked placement new — the Section 5.1 "correct coding" discipline.

The paper's prescription for modifiable software: *"At each point where
placement new is used, it has to be enforced that the size of the new
object or array B being placed in a memory arena of another object/array
A should never be larger than the object or array A.  If the size
checking fails, then the memory allocated to A should be freed, and the
non-placement new expression should be used to create B."*

The check is implemented here (:func:`checked_placement_new`); freeing
A and falling back to ``new`` is the caller's.  ``sizeof()`` is always
taken from the layout engine, never estimated by hand — the paper warns
that compilers add hidden members (the vptr) that manual estimates miss.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cxx.classdef import ClassDef
from ..cxx.object_model import CArrayView, Instance
from ..cxx.types import CType
from ..errors import ApiMisuseError, BoundsCheckViolation
from ..memory.alignment import is_aligned
from .new_expr import NewContext
from .placement import PlacementTarget, placement_new, placement_new_array, resolve_target


def _known_arena_size(
    target: PlacementTarget, arena_size: Optional[int]
) -> tuple[int, int]:
    """Resolve the target and insist the arena's extent is known.

    Checked placement requires knowing what you are placing into; a bare
    address with no declared size cannot be checked (the paper's core
    argument for why retrofitting bounds checks is hard).
    """
    address, inferred = resolve_target(target)
    size = arena_size if arena_size is not None else inferred
    if size is None:
        raise ApiMisuseError(
            "checked placement requires the arena size; pass arena_size= "
            "for raw addresses"
        )
    return address, size


def checked_placement_new(
    ctx: NewContext,
    target: PlacementTarget,
    class_def: ClassDef,
    *args: Any,
    arena_size: Optional[int] = None,
    enforce_alignment: bool = True,
) -> Instance:
    """``new (target) T(args...)`` with the Section 5.1 size check.

    Raises :class:`BoundsCheckViolation` instead of overflowing; raises
    it likewise for misaligned placement when ``enforce_alignment``.
    """
    address, size = _known_arena_size(target, arena_size)
    layout = ctx.layouts.layout_of(class_def)
    if layout.size > size:
        raise BoundsCheckViolation(
            arena_size=size,
            object_size=layout.size,
            detail=f"refusing to place {class_def.name} into smaller arena",
        )
    if enforce_alignment and not is_aligned(address, layout.alignment):
        raise BoundsCheckViolation(
            arena_size=size,
            object_size=layout.size,
            detail=(
                f"address {address:#010x} violates alignment "
                f"{layout.alignment} of {class_def.name}"
            ),
        )
    return placement_new(ctx, address, class_def, *args)


def checked_placement_new_array(
    ctx: NewContext,
    target: PlacementTarget,
    element: CType,
    count: int,
    arena_size: Optional[int] = None,
) -> CArrayView:
    """``new (target) T[count]`` with the size check."""
    if count <= 0:
        raise ApiMisuseError(f"array length must be positive, got {count}")
    address, size = _known_arena_size(target, arena_size)
    needed = element.size * count
    if needed > size:
        raise BoundsCheckViolation(
            arena_size=size,
            object_size=needed,
            detail=f"refusing to place {element.name}[{count}] into smaller arena",
        )
    return placement_new_array(ctx, address, element, count)


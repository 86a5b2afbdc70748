"""JSON-style object (de)serialization — the paper's remote-object model.

Section 3.2: objects arrive from untrusted sources — *"Web
browsers/clients send objects via java scripts/Ajax applications; one
such object model is JSON"* — and are re-materialized with placement new.
A :class:`RemoteObject` is the wire-side representation: a class name, a
field map, and a taint pedigree.  The *deserializing placement
constructor* (:func:`construct_from_remote`) is the attack surface —
it writes however many fields the wire object claims.
"""

from __future__ import annotations

from typing import Any, Mapping

from .._record import record
from ..cxx.classdef import ClassDef
from ..cxx.object_model import Instance
from ..cxx.layout import ClassType
from ..taint.engine import TaintLabel


@record(frozen=True)
class RemoteObject:
    """A serialized object as received off the wire."""

    class_name: str
    fields: Mapping[str, Any]
    labels: frozenset = frozenset({TaintLabel.REMOTE_OBJECT})

    def get(self, name: str, default: Any = None) -> Any:
        """Field access with a default (wire objects may omit fields)."""
        return self.fields.get(name, default)

    @property
    def tainted(self) -> bool:
        """True when the object came from an untrusted source."""
        return bool(self.labels)


def construct_from_remote(
    ctx: Any,
    class_def: ClassDef,
    address: int,
    remote: RemoteObject,
    taint: Any = None,
) -> Instance:
    """The deserializing placement constructor (Section 2.1 use-case 4).

    Writes every field *the class declares* from the wire object — so a
    program that deserializes into a ``GradStudent`` view writes
    ``sizeof(GradStudent)`` bytes no matter how small the arena was.  If
    a taint engine is supplied, each written field is labelled with the
    wire object's pedigree.
    """
    instance = Instance(ctx, class_def, address)
    layout = instance.layout
    if layout.has_vptr:
        table = ctx.vtables.ensure(class_def)
        for vptr_offset in layout.vptr_offsets:
            ctx.space.write_pointer(address + vptr_offset, table.address)
    for slot in layout.field_slots:
        if slot.name not in remote.fields:
            continue
        value = remote.fields[slot.name]
        if isinstance(slot.ctype, ClassType) and isinstance(value, Mapping):
            nested_fields = {k: v for k, v in value.items() if k != "__class__"}
            construct_from_remote(
                ctx,
                slot.ctype.class_def,
                address + slot.offset,
                RemoteObject(
                    class_name=value.get("__class__", slot.ctype.class_def.name),
                    fields=nested_fields,
                    labels=remote.labels,
                ),
                taint=taint,
            )
            continue
        instance.set(slot.name, value)
        if taint is not None and remote.tainted:
            taint.mark(address + slot.offset, slot.ctype.size, *remote.labels)
    return instance


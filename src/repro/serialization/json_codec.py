"""JSON-style object (de)serialization — the paper's remote-object model.

Section 3.2: objects arrive from untrusted sources — *"Web
browsers/clients send objects via java scripts/Ajax applications; one
such object model is JSON"* — and are re-materialized with placement new.
A :class:`RemoteObject` is the wire-side representation: a class name, a
field map, and a taint pedigree.  The codec converts between simulated
instances and this representation; the *deserializing placement
constructor* (:func:`construct_from_remote`) is the attack surface —
it writes however many fields the wire object claims.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .._record import record
from ..cxx.classdef import ClassDef
from ..cxx.object_model import Instance
from ..cxx.layout import ClassType
from ..errors import ApiMisuseError
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

    def to_json(self) -> str:
        """Render as the JSON a browser/service would actually send."""
        return json.dumps({"__class__": self.class_name, **dict(self.fields)})

    @classmethod
    def from_json(
        cls, text: str, trusted: bool = False
    ) -> "RemoteObject":
        """Parse a JSON payload into a wire object."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ApiMisuseError(f"malformed remote object: {exc}") from None
        if not isinstance(data, dict) or "__class__" not in data:
            raise ApiMisuseError("remote object must be a dict with __class__")
        class_name = data.pop("__class__")
        labels = frozenset() if trusted else frozenset({TaintLabel.REMOTE_OBJECT})
        return cls(class_name=class_name, fields=data, labels=labels)


def serialize(instance: Instance) -> RemoteObject:
    """Read an instance out of simulated memory into wire form.

    Array fields are serialized element-wise at their declared length —
    note this *includes* whatever the memory currently holds, which is
    how Listing 22's ``store(st)`` exfiltrates residue.  Class-type
    members nest as JSON objects (their own ``__class__`` tag plus
    fields), the shape an Ajax/JSON peer would actually emit.
    """
    fields: dict[str, Any] = {}
    for slot in instance.layout.field_slots:
        if isinstance(slot.ctype, ClassType):
            nested = serialize(instance.nested(slot.name))
            fields[slot.name] = {
                "__class__": nested.class_name,
                **dict(nested.fields),
            }
        else:
            fields[slot.name] = instance.get(slot.name)
    return RemoteObject(
        class_name=instance.class_def.name, fields=fields, labels=frozenset()
    )


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


def wire_size_estimate(remote: RemoteObject) -> int:
    """A *wire-side* size guess (bytes of JSON) — deliberately unrelated
    to the in-memory size, modelling why programmers misjudge fit."""
    return len(remote.to_json())

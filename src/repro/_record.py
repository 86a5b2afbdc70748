"""Record classes with one small compiled method instead of six.

``@record`` (or ``@record(frozen=True)``) turns a class with annotated
fields into a plain record, the way ``@dataclass`` does: an
``__init__`` taking every field by position or keyword, a field-by-field
``__repr__`` and ``__eq__``, ``__hash__`` over the compared fields for a
frozen record (``None`` for a mutable one), and frozen
``__setattr__``/``__delattr__`` that raise.  :func:`fields` and
:func:`replace` work as their ``dataclasses`` namesakes do;
:func:`asdict` does for records whose fields hold no other record.

``dataclasses`` compiles each of those methods from source, one
``exec`` apiece, which made it most of this package's import time (see
DESIGN.md, "Import policy").  Here every method but ``__init__`` is a
closure over the class's field table, and ``__init__`` is the one
compiled per class (see :func:`_init` for why).  What the records here
rely on is kept exactly: repr text, argument ``TypeError`` messages,
``==`` only within one class, and ``hash(tuple(compared fields))``, so
hash-ordered sets and dicts iterate as they did under ``dataclasses``.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = [
    "MISSING", "Field", "FrozenInstanceError", "asdict", "field", "fields", "record", "replace",
]

#: Class attribute holding a record's field table, ``{name: Field}``
#: in declaration order, base-class fields first.
FIELDS = "__record_fields__"


#: No default (a required field) or no default factory.
MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a field of a frozen record."""


class Field:
    """One entry of a record's field table."""

    __slots__ = ("name", "default", "default_factory", "compare")

    def __init__(self, default=MISSING, default_factory=MISSING, compare=True) -> None:
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.compare = compare


def field(*, default=MISSING, default_factory=MISSING, compare: bool = True) -> Field:
    """A field's default, default factory, or exclusion from ``==``/``hash``."""
    return Field(default, default_factory, compare)


def fields(class_or_instance) -> tuple:
    """The record's :class:`Field` entries, in ``__init__`` order."""
    try:
        return tuple(getattr(class_or_instance, FIELDS).values())
    except AttributeError:
        raise TypeError("must be called with a record type or instance") from None


def replace(obj, /, **changes):
    """A new record like ``obj`` with ``changes`` applied, built (and
    ``__post_init__``-checked) through its class's ``__init__``."""
    for name in getattr(obj, FIELDS):
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


def asdict(obj) -> dict:
    """``{field: value}`` in field order.  Unlike ``dataclasses.asdict`` it
    does not convert records nested in the values: no caller nests them."""
    return {name: getattr(obj, name) for name in getattr(obj, FIELDS)}


def record(cls=None, /, *, frozen: bool = False):
    """Make ``cls`` a record (see the module docstring)."""

    def wrap(cls):
        return _make_record(cls, frozen)

    return wrap if cls is None else wrap(cls)


def _make_record(cls, frozen: bool):
    table: dict = {}
    for base in cls.__mro__[-1:0:-1]:
        table.update(base.__dict__.get(FIELDS, ()))
    for name in cls.__dict__.get("__annotations__", ()):
        value = cls.__dict__.get(name, MISSING)
        if isinstance(value, Field):
            spec = value
            if spec.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, spec.default)
        else:
            spec = Field(value)
        spec.name = name
        table[name] = spec
    after_default = False
    for spec in table.values():
        if not _has_no_default(spec):
            after_default = True
        elif after_default:
            raise TypeError(f"non-default argument {spec.name!r} follows default argument")
    setattr(cls, FIELDS, table)

    methods = {
        "__init__": _init(cls, table, frozen),
        "__repr__": _repr(table),
        "__eq__": _eq(table),
    }
    if frozen:
        methods["__hash__"] = _hash(table)
        methods["__setattr__"], methods["__delattr__"] = _frozen(cls, table)
    for name, method in methods.items():
        if name not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if not frozen and "__hash__" not in cls.__dict__:
        cls.__hash__ = None
    return cls


def _init(cls, table: dict, frozen: bool):
    """``__init__``, the one method compiled from source: a few lines per
    class, where ``dataclasses`` compiles six methods.  A closure taking
    ``**kwargs`` built each record about 0.45 µs slower, which cost 6–10%
    of perfbench ``run_s``; a compiled one binds arguments, and raises
    CPython's own ``TypeError`` for a bad call, as fast as before."""
    env = {"__record_missing": MISSING, "__record_setattr": object.__setattr__}
    params, lines = [], []
    for name, spec in table.items():
        if _has_no_default(spec):
            params.append(name)
        elif spec.default_factory is not MISSING:
            env[f"__record_factory_{name}"] = spec.default_factory
            params.append(f"{name}=__record_missing")
            lines.append(
                f"if {name} is __record_missing: {name} = __record_factory_{name}()"
            )
        else:
            env[f"__record_default_{name}"] = spec.default
            params.append(f"{name}=__record_default_{name}")
    for name in table:
        if frozen:
            lines.append(f"__record_setattr(self, {name!r}, {name})")
        else:
            lines.append(f"self.{name} = {name}")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    body = "".join(f"    {line}\n" for line in lines) or "    pass\n"
    exec(f"def __init__({', '.join(['self', *params])}):\n{body}", env)
    return env["__init__"]


def _has_no_default(spec: Field) -> bool:
    return spec.default is MISSING and spec.default_factory is MISSING


def _repr(table: dict):
    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in table])
        return f"{self.__class__.__qualname__}({body})"

    return __repr__


def _compared(table: dict):
    """The tuple of compared field values, as ``(self.a, self.b, ...)``."""
    names = [name for name, spec in table.items() if spec.compare]
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(names[0])
        return lambda obj: (one(obj),)
    return lambda obj: ()


def _eq(table: dict):
    key = _compared(table)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    return __eq__


def _hash(table: dict):
    key = _compared(table)

    def __hash__(self):
        return hash(key(self))

    return __hash__


def _frozen(cls, table: dict):
    def __setattr__(self, name, value):
        if type(self) is cls or name in table:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in table:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__

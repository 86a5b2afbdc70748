"""Differential test: every record class against a ``dataclasses`` twin.

``repro._record.record`` replaces ``@dataclass`` in the package; its
methods are closures over a per-class field table instead of generated
code.  Every record class is found by importing each ``repro`` module
(no hand list), and for each one the test builds a ``dataclass`` twin
with the same qualified name, fields, defaults, default factories,
``compare`` flags, frozenness and ``__post_init__``.  On generated field
values the two must agree on construction (or the exception it raises),
``repr`` text, ``==``/``!=`` (``compare=False`` fields such as ``line``
ignored, and no instance equal to one of another class), ``hash``,
``replace``, ``fields``, ``asdict``, frozen assignment and deletion,
fresh ``default_factory`` values, and the ``TypeError`` of a call with
a missing, unknown, duplicated or extra argument.  A record must also
survive a pickle round trip, which the ``--backend process`` paths use.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro._record import FIELDS, MISSING, asdict, fields, replace


def _record_classes() -> list:
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and FIELDS in vars(value)
            ):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return [found[name] for name in sorted(found)]


RECORDS = _record_classes()


def _is_frozen(cls) -> bool:
    return "__setattr__" in vars(cls)


def _twin(cls):
    """The ``dataclass`` the record class would have been."""
    namespace = {"__annotations__": {}, "__qualname__": cls.__qualname__}
    for spec in fields(cls):
        options = {"compare": spec.compare}
        if spec.default is not MISSING:
            options["default"] = spec.default
        if spec.default_factory is not MISSING:
            options["default_factory"] = spec.default_factory
        namespace["__annotations__"][spec.name] = "object"
        namespace[spec.name] = dataclasses.field(**options)
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.dataclass(frozen=_is_frozen(cls))(type(cls.__name__, (), namespace))


TWINS = {cls: _twin(cls) for cls in RECORDS}

#: Field values: small, hashable, NaN included (tuple equality treats an
#: object as equal to itself, so ``==`` on NaN fields is identity).
VALUES = st.one_of(
    st.integers(-3, 40),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.floats(allow_infinity=False),
    st.tuples(st.integers(-3, 3)),
)

#: Leave a defaulted field out of the call.
OMIT = object()


def _outcome(call, *args, **kwargs):
    """``("ok", result)`` or ``("raised", exception class names, message)``."""
    try:
        return ("ok", call(*args, **kwargs))
    except Exception as error:  # the twin must raise the same
        return _raised(error)


def _raised(error: Exception) -> tuple:
    """Class names, not classes: ``FrozenInstanceError`` is each module's own."""
    return ("raised", [kind.__name__ for kind in type(error).__mro__], str(error))


def _same(record_outcome, twin_outcome) -> None:
    if record_outcome[0] == "ok" and twin_outcome[0] == "ok":
        assert repr(record_outcome[1]) == repr(twin_outcome[1])
    else:
        assert record_outcome == twin_outcome


def _draw_values(data, cls, like=None) -> dict:
    values = {}
    for spec in fields(cls):
        choices = [VALUES]
        if spec.default is not MISSING or spec.default_factory is not MISSING:
            choices.append(st.just(OMIT))
        if like is not None and spec.name in like:
            choices.append(st.just(like[spec.name]))
        value = data.draw(st.one_of(*choices), label=spec.name)
        if value is not OMIT:
            values[spec.name] = value
    return values


def _has_nan(values: dict) -> bool:
    return any(isinstance(value, float) and math.isnan(value) for value in values.values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_record_matches_its_dataclass_twin(cls, data):
    twin = TWINS[cls]
    names = [spec.name for spec in fields(cls)]
    assert names == [spec.name for spec in dataclasses.fields(twin)]
    assert [spec.compare for spec in fields(cls)] == [
        spec.compare for spec in dataclasses.fields(twin)
    ]
    values = _draw_values(data, cls)
    built, twin_built = _outcome(cls, **values), _outcome(twin, **values)
    _same(built, twin_built)

    # argument errors: unknown, duplicated, extra and (when the call
    # leaves a required field out) missing arguments
    _same(_outcome(cls, **values, zz=1), _outcome(twin, **values, zz=1))
    _same(_outcome(cls), _outcome(twin))
    positional = [values.get(name, 0) for name in names]
    _same(_outcome(cls, *positional, 1), _outcome(twin, *positional, 1))
    if names:
        split = data.draw(st.integers(0, len(names)), label="positional")
        rest = {name: positional[i] for i, name in enumerate(names) if i >= split}
        head = positional[:split]
        _same(_outcome(cls, *head, **rest), _outcome(twin, *head, **rest))
        _same(
            _outcome(cls, positional[0], **{names[0]: positional[0]}),
            _outcome(twin, positional[0], **{names[0]: positional[0]}),
        )
    if built[0] != "ok":
        return
    record, twin_record = built[1], twin_built[1]

    other_values = _draw_values(data, cls, like=values)
    other, twin_other = _outcome(cls, **other_values), _outcome(twin, **other_values)
    _same(other, twin_other)
    if other[0] == "ok":
        assert (record == other[1]) == (twin_record == twin_other[1])
        assert (record != other[1]) == (twin_record != twin_other[1])
    assert (record == twin_record) is False and record != twin_record

    if _is_frozen(cls):
        _same(_outcome(hash, record), _outcome(hash, twin_record))
        for name in [*names, "zz"]:
            _same(_outcome(setattr, record, name, 1), _outcome(setattr, twin_record, name, 1))
            _same(_outcome(delattr, record, name), _outcome(delattr, twin_record, name))
    else:
        assert cls.__hash__ is None and twin.__hash__ is None

    changes = {
        name: value
        for name, value in _draw_values(data, cls).items()
        if data.draw(st.booleans(), label=f"change {name}")
    }
    _same(
        _outcome(replace, record, **changes),
        _outcome(dataclasses.replace, twin_record, **changes),
    )
    _same(_outcome(replace, record, zz=1), _outcome(dataclasses.replace, twin_record, zz=1))
    if not any(hasattr(type(value), FIELDS) for value in vars(record).values()):
        # ``dataclasses.asdict`` would convert a nested twin; ``asdict`` leaves it
        assert repr(asdict(record)) == repr(dataclasses.asdict(twin_record))

    try:
        restored = pickle.loads(pickle.dumps(record))
    except TypeError as error:
        # state its ``__post_init__`` added cannot be pickled either way
        _same(_raised(error), _outcome(copy.deepcopy, twin_record))
    else:
        assert type(restored) is cls and repr(restored) == repr(record)
        if not _has_nan(values):
            assert restored == record


FACTORY_RECORDS = [
    cls for cls in RECORDS if any(spec.default_factory is not MISSING for spec in fields(cls))
]


@pytest.mark.parametrize(
    "cls", FACTORY_RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}"
)
def test_default_factory_values_are_not_shared(cls):
    required = {
        spec.name: 1
        for spec in fields(cls)
        if spec.default is MISSING and spec.default_factory is MISSING
    }
    first, second = _outcome(cls, **required), _outcome(cls, **required)
    twins = _outcome(TWINS[cls], **required), _outcome(TWINS[cls], **required)
    _same(first, twins[0])
    if first[0] != "ok":
        return
    for spec in fields(cls):
        if spec.default_factory is not MISSING:
            shared = getattr(first[1], spec.name) is getattr(second[1], spec.name)
            twin_shared = getattr(twins[0][1], spec.name) is getattr(twins[1][1], spec.name)
            assert shared == twin_shared


def test_every_record_class_was_found():
    """Records of every kind the package uses: frozen and mutable,
    inherited fields, ``compare=False``, factories and ``__post_init__``."""
    assert len(RECORDS) >= 128
    assert any(_is_frozen(cls) for cls in RECORDS)
    assert any(not _is_frozen(cls) for cls in RECORDS)
    assert any(not spec.compare for cls in RECORDS for spec in fields(cls))
    assert FACTORY_RECORDS
    assert any("__post_init__" in vars(cls) for cls in RECORDS)


def test_subclass_instances_never_equal_base_instances():
    """``Expr(line=1) != Node(line=1)``: equality needs the same class,
    even where a subclass adds no field."""
    pairs = [
        (cls, base)
        for cls in RECORDS
        for base in cls.__mro__[1:]
        if FIELDS in vars(base) and list(fields(base)) == list(fields(cls))
    ]
    assert pairs
    for cls, base in pairs:
        values = {spec.name: 1 for spec in fields(cls)}
        built, base_built = _outcome(cls, **values), _outcome(base, **values)
        if built[0] == base_built[0] == "ok":
            assert built[1] != base_built[1] and not built[1] == base_built[1]

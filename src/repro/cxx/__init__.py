"""The simulated C++ object model: types, classes, layout, vtables.

This package plays the role of the C++ compiler front-end and layout
pass: class declarations (:mod:`classdef`) are turned into byte-precise
record layouts (:mod:`layout`), vtables are emitted into the text image
(:mod:`text`, :mod:`vtable`), and :mod:`object_model` provides the typed
views through which simulated programs — and attacks — touch memory.
"""

from .classdef import ClassDef, Constructor, Field, VirtualMethod, make_class
from .layout import ClassType, FieldSlot, LayoutEngine, RecordLayout, class_type
from .object_model import CArrayView, Instance, ObjectContext
from .text import (
    FUNCTION_STUB_SIZE,
    NATIVE_STUB_MAGIC,
    EmittedVTable,
    FunctionEntry,
    TextImage,
)
from .types import (
    BOOL,
    CHAR,
    CHAR_PTR,
    DOUBLE,
    FLOAT,
    FUNC_PTR,
    INT,
    LONG_LONG,
    SHORT,
    UINT,
    VOID_PTR,
    ArrayType,
    BoolType,
    CharType,
    CType,
    DoubleType,
    FloatType,
    IntType,
    PointerType,
    array_of,
)
from .vtable import VTableBuilder

__all__ = [
    "ArrayType",
    "BOOL",
    "BoolType",
    "CArrayView",
    "CHAR",
    "CHAR_PTR",
    "CType",
    "CharType",
    "ClassDef",
    "ClassType",
    "class_type",
    "Constructor",
    "DOUBLE",
    "DoubleType",
    "EmittedVTable",
    "FLOAT",
    "FUNC_PTR",
    "FUNCTION_STUB_SIZE",
    "Field",
    "FieldSlot",
    "FloatType",
    "FunctionEntry",
    "INT",
    "Instance",
    "IntType",
    "LONG_LONG",
    "LayoutEngine",
    "NATIVE_STUB_MAGIC",
    "ObjectContext",
    "PointerType",
    "RecordLayout",
    "SHORT",
    "TextImage",
    "UINT",
    "VOID_PTR",
    "VTableBuilder",
    "VirtualMethod",
    "array_of",
    "make_class",
]

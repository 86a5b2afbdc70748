"""The simulated C++ object model: types, classes, layout, vtables.

This package plays the role of the C++ compiler front-end and layout
pass: class declarations (:mod:`classdef`) are turned into byte-precise
record layouts (:mod:`layout`), vtables are emitted into the text image
(:mod:`text`, :mod:`vtable`), and :mod:`object_model` provides the typed
views through which simulated programs — and attacks — touch memory.
"""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(
        ("ClassDef", "Constructor", "Field", "VirtualMethod", "make_class"),
        "classdef",
    ),
    **dict.fromkeys(
        ("ClassType", "FieldSlot", "LayoutEngine", "RecordLayout", "class_type"),
        "layout",
    ),
    **dict.fromkeys(("CArrayView", "Instance", "ObjectContext"), "object_model"),
    **dict.fromkeys(
        ("EmittedVTable", "FUNCTION_STUB_SIZE", "FunctionEntry", "NATIVE_STUB_MAGIC", "TextImage"),
        "text",
    ),
    **dict.fromkeys(
        (
            "ArrayType",
            "BOOL",
            "BoolType",
            "CHAR",
            "CHAR_PTR",
            "CType",
            "CharType",
            "DOUBLE",
            "DoubleType",
            "FLOAT",
            "FUNC_PTR",
            "FloatType",
            "INT",
            "IntType",
            "LONG_LONG",
            "PointerType",
            "SHORT",
            "UINT",
            "VOID_PTR",
            "array_of",
        ),
        "types",
    ),
    "VTableBuilder": "vtable",
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

"""Runtime value and lvalue model for the MiniC++ executor."""

from __future__ import annotations

from typing import Any, Optional

from .._record import record
from ..analysis.ast_nodes import TypeRef
from ..cxx.classdef import ClassDef
from ..cxx.types import CType
from ..errors import ApiMisuseError


@record(frozen=True)
class LValue:
    """A resolved storage location: address + how to read/write it."""

    address: int
    ctype: Optional[CType] = None          # scalar/array element access
    class_def: Optional[ClassDef] = None   # object access (no direct decode)
    declared: Optional[TypeRef] = None     # for pointer-type bookkeeping

    def require_scalar(self) -> CType:
        if self.ctype is None:
            raise ApiMisuseError(
                f"location {self.address:#010x} is an object, not a scalar"
            )
        return self.ctype


@record
class Variable:
    """One declared variable bound to simulated storage."""

    name: str
    address: int
    type_ref: TypeRef
    ctype: Optional[CType] = None
    class_def: Optional[ClassDef] = None
    #: Pointee class for pointer-to-class variables (static type used by
    #: ``ptr->member``); set from the declaration.
    pointee_class: Optional[ClassDef] = None
    size: int = 0


class Scope:
    """A chain of name → Variable maps (globals < function locals)."""

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self._parent = parent
        self._vars: dict[str, Variable] = {}

    def declare(self, variable: Variable) -> None:
        self._vars[variable.name] = variable

    def lookup(self, name: str) -> Optional[Variable]:
        scope: Optional[Scope] = self
        while scope is not None:
            found = scope._vars.get(name)
            if found is not None:
                return found
            scope = scope._parent
        return None

    def child(self) -> "Scope":
        return Scope(parent=self)


def truthy(value: Any) -> bool:
    """C truth: nonzero / non-null / non-empty."""
    if value is None:
        return False
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return bool(value)
    return bool(value)

"""Abstract values and environments for the placement-new analysis.

The lattice tracks, per variable:

* **taint** — the set of attacker sources that may influence the value
  (``stdin``, ``param:<name>``, ``remote``, plus ``derived``);
* **const** — a single known integer constant, or ⊤;
* **targets** — a may-point-to set of :class:`PointerTarget`\\ s, which is
  how arena sizes are recovered at placement sites (the paper's core
  difficulty: *"a pointer could have been assigned the address of a
  scalar variable or an array at any given point"*).

Environments join pointwise; taint and target sets grow monotonically
and constants collapse to ⊤ on disagreement, so loop fixpoints terminate.
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from . import ast_nodes as ast

#: Sentinel for "some unknown constant".
TOP = object()


@record(frozen=True)
class PointerTarget:
    """One thing a pointer may point at."""

    kind: str  # "var" | "heap" | "placement" | "unknown"
    type_name: str = ""
    size: Optional[int] = None
    var_name: str = ""
    oversize: bool = False
    placement_line: int = 0

    def describe(self) -> str:
        if self.kind == "var":
            return f"&{self.var_name}"
        if self.kind == "heap":
            return f"new {self.type_name} ({self.size}B)"
        if self.kind == "placement":
            flag = " OVERSIZE" if self.oversize else ""
            return f"placement {self.type_name}{flag}"
        return "?"


@record(frozen=True)
class AbstractValue:
    """The lattice element for one variable."""

    taint: frozenset = frozenset()
    const: object = None  # int | None | TOP
    targets: frozenset = frozenset()
    declared: Optional[ast.TypeRef] = None

    @property
    def tainted(self) -> bool:
        return bool(self.taint)

    def join(self, other: "AbstractValue") -> "AbstractValue":
        if self is other:
            return self
        if self.const is None:
            const = other.const
        elif other.const is None or self.const == other.const:
            const = self.const
        else:
            const = TOP
        return AbstractValue(
            taint=self.taint | other.taint,
            const=const,
            targets=self.targets | other.targets,
            declared=self.declared or other.declared,
        )

    @property
    def const_int(self) -> Optional[int]:
        return self.const if isinstance(self.const, int) else None


UNKNOWN = AbstractValue()


class Env:
    """A mutable variable → :class:`AbstractValue` map."""

    def __init__(self, values: Optional[dict] = None) -> None:
        self._values: dict[str, AbstractValue] = dict(values or {})

    def get(self, name: str) -> AbstractValue:
        return self._values.get(name, UNKNOWN)

    def set(self, name: str, value: AbstractValue) -> None:
        self._values[name] = value

    def copy(self) -> "Env":
        return Env(self._values)

    def join_with(self, other: "Env") -> "Env":
        """Pointwise join (variables missing on one side join with ⊥/UNKNOWN
        — sound for taint since UNKNOWN carries none, and conservative
        for constants)."""
        merged: dict[str, AbstractValue] = {}
        for name in set(self._values) | set(other._values):
            merged[name] = self.get(name).join(other.get(name))
        return Env(merged)

    def equivalent(self, other: "Env") -> bool:
        names = set(self._values) | set(other._values)
        return all(self.get(name) == other.get(name) for name in names)


def root_name(expr: ast.Expr) -> Optional[str]:
    """The base variable an lvalue expression drills into, if any."""
    current = expr
    while True:
        if isinstance(current, ast.Name):
            return current.ident
        if isinstance(current, ast.Member):
            current = current.obj
            continue
        if isinstance(current, ast.Index):
            current = current.base
            continue
        if isinstance(current, ast.Unary) and current.op in ("*", "&", "++", "--"):
            current = current.operand
            continue
        return None

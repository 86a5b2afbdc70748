"""AST for MiniC++ — the C++ subset the paper's listings are written in.

The analyzer (Section 5's future-work tool) parses real source text into
these nodes.  The subset covers everything Listings 1–23 use: classes
with inheritance and virtual methods, globals, functions, placement and
ordinary ``new``/``delete``, ``cin >>`` input, pointer/array expressions
and the usual statements.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .._record import field, record


@record(frozen=True)
class Node:
    """Base AST node; ``line`` points back into the source."""

    line: int = field(default=0, compare=False)


# --------------------------------------------------------------------------
# expressions


@record(frozen=True)
class Expr(Node):
    """Base expression."""


@record(frozen=True)
class IntLit(Expr):
    value: int = 0


@record(frozen=True)
class FloatLit(Expr):
    value: float = 0.0


@record(frozen=True)
class StrLit(Expr):
    value: str = ""


@record(frozen=True)
class BoolLit(Expr):
    value: bool = False


@record(frozen=True)
class NullLit(Expr):
    """``NULL`` / ``nullptr``."""


@record(frozen=True)
class Name(Expr):
    ident: str = ""


@record(frozen=True)
class Unary(Expr):
    """``&x``, ``*p``, ``-x``, ``!x``, ``++x`` (prefix)."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@record(frozen=True)
class Binary(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@record(frozen=True)
class Member(Expr):
    """``obj.name`` or ``ptr->name``."""

    obj: Expr = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False


@record(frozen=True)
class Index(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@record(frozen=True)
class Call(Expr):
    """``f(args)`` or ``recv.f(args)`` / ``recv->f(args)``."""

    func: str = ""
    args: tuple = ()
    receiver: Optional[Expr] = None


@record(frozen=True)
class SizeOf(Expr):
    """``sizeof(TypeName)`` or ``sizeof(expr)``."""

    type_name: Optional[str] = None
    expr: Optional[Expr] = None


@record(frozen=True)
class NewExpr(Expr):
    """Every flavour of ``new``.

    ``placement`` is the address expression of ``new (addr) ...``;
    ``array_count`` distinguishes ``new T[n]``; ``args`` are constructor
    arguments.
    """

    type_name: str = ""
    placement: Optional[Expr] = None
    array_count: Optional[Expr] = None
    args: tuple = ()

    @property
    def is_placement(self) -> bool:
        return self.placement is not None

    @property
    def is_array(self) -> bool:
        return self.array_count is not None


# --------------------------------------------------------------------------
# statements


@record(frozen=True)
class Stmt(Node):
    """Base statement."""


@record(frozen=True)
class TypeRef:
    """A declared type: base name, pointer depth, optional array length."""

    name: str = ""
    pointer_depth: int = 0
    array_size: Optional[Expr] = None

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0

    @property
    def is_array(self) -> bool:
        return self.array_size is not None


@record(frozen=True)
class VarDecl(Stmt):
    """``Type name = init;`` / ``Type name[size];`` / ``Type a, b;``
    (multi-declarators are split by the parser into several VarDecls)."""

    type: TypeRef = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expr] = None


@record(frozen=True)
class Assign(Stmt):
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@record(frozen=True)
class CinRead(Stmt):
    """``cin >> target [>> target2 ...]`` — the attacker's entry point."""

    targets: tuple = ()


@record(frozen=True)
class CoutWrite(Stmt):
    """``cout << expr << ...`` — kept for completeness; sink for leaks."""

    values: tuple = ()


@record(frozen=True)
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@record(frozen=True)
class DeleteStmt(Stmt):
    target: Expr = None  # type: ignore[assignment]
    is_array: bool = False


@record(frozen=True)
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@record(frozen=True)
class Block(Stmt):
    statements: tuple = ()


@record(frozen=True)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: Block = None  # type: ignore[assignment]
    else_body: Optional[Block] = None


@record(frozen=True)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@record(frozen=True)
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Block = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# declarations


@record(frozen=True)
class FieldDecl:
    """A class data member; ``line``, as on :class:`Node`, is not compared."""

    type: TypeRef
    name: str
    line: int = field(default=0, compare=False)


@record(frozen=True)
class MethodDecl:
    """A class method (bodies are parsed but not analyzed inline);
    ``line`` is not compared."""

    name: str
    return_type: TypeRef
    params: tuple
    virtual: bool = False
    body: Optional[Block] = None
    line: int = field(default=0, compare=False)


@record(frozen=True)
class ClassDecl(Node):
    name: str = ""
    bases: tuple = ()
    fields: tuple = ()
    methods: tuple = ()


@record(frozen=True)
class Param:
    """A function parameter."""

    type: TypeRef
    name: str


@record(frozen=True)
class FunctionDecl(Node):
    name: str = ""
    return_type: TypeRef = None  # type: ignore[assignment]
    params: tuple = ()
    body: Block = None  # type: ignore[assignment]


@record(frozen=True)
class Program(Node):
    """A translation unit: classes, globals, functions, in order."""

    classes: tuple = ()
    globals: tuple = ()
    functions: tuple = ()

    def _index(self, attr: str, decls: tuple) -> dict:
        # Lazily built name->decl maps; the interprocedural inliner looks
        # functions up per call site, so linear scans add up.  setdefault
        # keeps the first declaration, matching the old linear scan.
        # object.__setattr__ because Node is frozen; the map is derived
        # state, invisible to eq/hash (which use fields only).
        index = self.__dict__.get(attr)
        if index is None:
            index = {}
            for decl in decls:
                index.setdefault(decl.name, decl)
            object.__setattr__(self, attr, index)
        return index

    def function(self, name: str) -> FunctionDecl:
        """Look a function up by name."""
        try:
            return self._index("_function_index", self.functions)[name]
        except KeyError:
            raise KeyError(f"no function '{name}'") from None


def walk_expressions(node: Union[Expr, Stmt, None]):
    """Yield every expression nested under ``node`` (pre-order)."""
    if node is None:
        return
    if isinstance(node, Expr):
        yield node
        children: Sequence = ()
        if isinstance(node, Unary):
            children = (node.operand,)
        elif isinstance(node, Binary):
            children = (node.left, node.right)
        elif isinstance(node, Member):
            children = (node.obj,)
        elif isinstance(node, Index):
            children = (node.base, node.index)
        elif isinstance(node, Call):
            children = tuple(node.args) + (
                (node.receiver,) if node.receiver else ()
            )
        elif isinstance(node, NewExpr):
            children = tuple(node.args)
            if node.placement is not None:
                children += (node.placement,)
            if node.array_count is not None:
                children += (node.array_count,)
        elif isinstance(node, SizeOf) and node.expr is not None:
            children = (node.expr,)
        for child in children:
            yield from walk_expressions(child)
    elif isinstance(node, Stmt):
        for child_expr in _statement_expressions(node):
            yield from walk_expressions(child_expr)
        for child_stmt in _statement_children(node):
            yield from walk_expressions(child_stmt)


def _statement_expressions(stmt: Stmt) -> tuple:
    if isinstance(stmt, VarDecl):
        parts = tuple(p for p in (stmt.init, stmt.type.array_size) if p is not None)
        return parts
    if isinstance(stmt, Assign):
        return (stmt.target, stmt.value)
    if isinstance(stmt, CinRead):
        return tuple(stmt.targets)
    if isinstance(stmt, CoutWrite):
        return tuple(stmt.values)
    if isinstance(stmt, ExprStmt):
        return (stmt.expr,)
    if isinstance(stmt, DeleteStmt):
        return (stmt.target,)
    if isinstance(stmt, ReturnStmt):
        return (stmt.value,) if stmt.value is not None else ()
    if isinstance(stmt, If):
        return (stmt.cond,)
    if isinstance(stmt, While):
        return (stmt.cond,)
    if isinstance(stmt, For):
        return (stmt.cond,) if stmt.cond is not None else ()
    return ()


def _statement_children(stmt: Stmt) -> tuple:
    if isinstance(stmt, Block):
        return tuple(stmt.statements)
    if isinstance(stmt, If):
        children: tuple = (stmt.then_body,)
        if stmt.else_body is not None:
            children += (stmt.else_body,)
        return children
    if isinstance(stmt, While):
        return (stmt.body,)
    if isinstance(stmt, For):
        parts: tuple = ()
        if stmt.init is not None:
            parts += (stmt.init,)
        if stmt.step is not None:
            parts += (stmt.step,)
        return parts + (stmt.body,)
    return ()


def walk_statements(stmt: Optional[Stmt]):
    """Yield every statement nested under ``stmt`` (pre-order)."""
    if stmt is None:
        return
    yield stmt
    for child in _statement_children(stmt):
        yield from walk_statements(child)


def iter_expressions(root: Optional[Stmt]):
    """Yield every expression under ``root`` exactly once.

    ``walk_statements`` × ``walk_expressions`` re-visits an expression
    once per enclosing statement (``walk_expressions`` on a statement
    recurses into its child statements too), which is quadratic in
    nesting depth.  Pairing each statement with only its *own* top-level
    expressions keeps the walk linear.
    """
    for stmt in walk_statements(root):
        for top in _statement_expressions(stmt):
            yield from walk_expressions(top)

"""Bytecode IR for MiniC++ — the compiled fast path of the executor.

The AST interpreter (:mod:`repro.execution.interpreter`) walks parsed
nodes with one Python call per node; that is the precise, readable
reference semantics, but the per-node dispatch dominates fuzzing cost.
This module lowers a parsed :class:`~repro.analysis.ast_nodes.Program`
to a compact linear bytecode executed by
:class:`repro.execution.vm.BytecodeVM` with a threaded opcode table —
no per-node recursion, calls preresolved to function indices, builtin
bulk-memory operations (``strncpy``/``memset``/``strcpy``) as single
ops.

Parity is the design constraint, not an afterthought: every observable
of the interpreter — memory events, placements, faults, the step budget
(each instruction carries the exact tick count the interpreter would
have charged at that point), even error messages — must be identical,
because the fuzzer's ``both``-engine mode diffs the two and treats any
divergence as a bug oracle.  Constructs the compiler does not
understand raise :class:`UnsupportedConstruct` so callers fall back to
the interpreter instead of guessing.

Instructions are ``(opcode, arg, ticks)`` tuples.  ``ticks`` is the
number of interpreter ``_tick()`` calls that precede the instruction's
work; adjacent ticks are coalesced (safe: the interpreter performs no
side effects between adjacent ticks), with an explicit :data:`TICK`
flush before loop heads so a statement-entry tick is never re-charged
per iteration.
"""

from __future__ import annotations

from typing import Any, Optional

from .._record import field, record
from ..analysis import ast_nodes as ast
from ..analysis.symbols import SymbolTable
from ..cxx.types import VOID_PTR, CType
from ..errors import ApiMisuseError
from .interpreter import _NOOP_BUILTINS, _SCALAR_CTYPES

#: Bump when the instruction set or compilation strategy changes in a
#: way that invalidates cached compiled programs.
BYTECODE_VERSION = 1


class UnsupportedConstruct(Exception):
    """The compiler met an AST shape it cannot lower faithfully.

    Raised at compile time only — callers run the whole program on the
    AST interpreter instead, so semantics never degrade silently.
    """


# --------------------------------------------------------------------------
# opcodes
#
# Plain module-level ints: the VM dispatches by indexing a list of bound
# methods, and the compiler embeds these constants directly.

PUSH = 0  # arg: literal value          -> push it
POP = 1  # discard top of stack
TICK = 2  # tick-only flush (arg unused)
LOAD_NAME = 3  # arg: ident               -> push rvalue of the variable
LVAL_NAME = 4  # arg: ident               -> push LValue
LVAL_MEMBER_DOT = 5  # arg: member name   [lvalue] -> [LValue]
LVAL_MEMBER_ARROW = 6  # arg: (name, pointee ident|None)  [addr] -> [LValue]
LVAL_INDEX = 7  # [base lvalue, index] -> [LValue]
LVAL_DEREF = 8  # [addr] -> [LValue(addr, INT)]
LVAL_LOAD = 9  # [LValue] -> [rvalue]
ADDR_OF = 10  # [LValue] -> [address]
STORE = 11  # [value, LValue] -> []
INCDEC = 12  # arg: "++"/"--"/"post++"/"post--"   [LValue] -> [value]
JUMP = 13  # arg: target ip
JUMP_IF_FALSE = 14  # arg: target ip      [value] -> []
RET = 15  # arg: has_value              [value?] -> (returns)
ADD = 16
SUB = 17
MUL = 18
DIV = 19
MOD = 20
LT = 21
GT = 22
LE = 23
GE = 24
EQ = 25
NE = 26
AND_ = 27
OR_ = 28
NEG = 29
NOT_ = 30
INV = 31
DEREF_READ = 32  # [addr] -> [*(int*)addr]
EXPECT_INT = 33  # [value] -> [int] (or the interpreter's coercion error)
SCOPE_PUSH = 34
SCOPE_POP = 35
DECL_SCALAR = 36  # arg: (ctype, name, type_ref, has_init, pointee)
DECL_ARRAY = 37  # arg: (element, name, type_ref)     [count] -> []
DECL_OBJECT = 38  # arg: (class_def, name, type_ref)
OBJ_CONSTRUCT = 39  # arg: (class_def, name, argc)     [args...] -> []
OBJ_COPY = 40  # arg: name                             [source] -> []
CIN_READ = 41  # [LValue] -> []
COUT = 42  # [value] -> []
DELETE = 43  # [addr] -> []
RAISE = 44  # arg: (exception class, message)
CALL = 45  # arg: (function index, argc)   [args...] -> [result]
RECV_NAME = 46  # arg: (ident, func name)  -> [(addr, class name)]
RECV_VALUE = 47  # arg: func name  [value] -> (always raises)
METHOD_CALL = 48  # arg: (func name, argc)  [recv, args...] -> [result]
NOOP_CALL = 49  # arg: (argc, event text)  [args...] -> [0]
STRNCPY = 50  # [dest, source, count] -> [dest]
STRCPY = 51  # [dest, source] -> [dest]
MEMSET = 52  # [dest, byte, count] -> [dest]
READFILE = 53  # [path, dest, count] -> [bytes read]
STORE_BYTES = 54  # [addr] -> [bytes captured]
INVOKE_PTR = 55  # [target] -> [result]
GETENV = 56  # arg: argc   [args...] -> [token text]
ATOI = 57  # [source] -> [int]
MAKE_TUPLE = 58  # arg: argc   [args...] -> [tuple]
SIZEOF_NAME = 59  # arg: ident -> [size]
HEAP_NEW_ARRAY = 60  # arg: (type name, element, argc)  [args..., count] -> [addr]
HEAP_NEW_CLASS = 61  # arg: (class_def, argc)           [args...] -> [addr]
HEAP_NEW_SCALAR = 62  # arg: (type name, element, argc) [args...] -> [addr]
PLACE_NEW_ARRAY = 63  # arg: (type name, element|None, argc, hint)
PLACE_NEW_CLASS = 64  # arg: (class_def, argc, hint)

N_OPS = 65

#: Opcode number -> mnemonic, for disassembly and tests.
OPCODE_NAMES = {
    value: name
    for name, value in sorted(globals().items())
    if isinstance(value, int) and name.isupper() and name not in ("BYTECODE_VERSION", "N_OPS")
}

_BINOPS = {
    "+": ADD,
    "-": SUB,
    "*": MUL,
    "/": DIV,
    "%": MOD,
    "<": LT,
    ">": GT,
    "<=": LE,
    ">=": GE,
    "==": EQ,
    "!=": NE,
    "&&": AND_,
    "||": OR_,
}


# --------------------------------------------------------------------------
# compiled units


@record
class CompiledFunction:
    """One lowered body: a free function or a class method."""

    name: str
    frame_label: str
    #: Baked parameter bindings: (name, type_ref, ctype, pointee_class).
    params: tuple
    code: list
    class_name: Optional[str] = None
    #: For methods: baked field bindings rooted at the receiver —
    #: (name, offset, type_ref, ctype-or-None, member class, size) —
    #: or None when the class failed to lower (the VM raises the
    #: interpreter's "unknown class" error at call time).
    field_slots: Optional[tuple] = None


@record
class CompiledProgram:
    """A program lowered to bytecode, plus the symbol table it was
    compiled against.

    The symbol table travels with the code on purpose: the VM must bake
    vtables and layouts from the *same* ClassDef objects the compiler
    resolved, or two runs of the same program would disagree on vtable
    identity.  Machine-independent, so one compiled program is reusable
    across any number of fresh machines (that is what the fuzz cache
    exploits).
    """

    program: ast.Program
    symbols: SymbolTable
    function_list: tuple
    function_index: dict
    methods: dict
    version: int = BYTECODE_VERSION

    @property
    def instruction_count(self) -> int:
        bodies = list(self.function_list) + list(self.methods.values())
        return sum(len(unit.code) for unit in bodies)


def disassemble(code: list) -> list:
    """Human-readable listing of one compiled body (docs and tests)."""
    lines = []
    for index, (op, arg, ticks) in enumerate(code):
        suffix = "" if arg is None else f" {arg!r}"
        tick_note = f"  ; ticks={ticks}" if ticks else ""
        lines.append(f"{index:4d}  {OPCODE_NAMES[op]}{suffix}{tick_note}")
    return lines


# --------------------------------------------------------------------------
# compiler


@record
class _Body:
    code: list = field(default_factory=list)
    pending: int = 0


class Compiler:
    """Lowers one program; see the module docstring for the contract."""

    def __init__(self, program: ast.Program, symbols: Optional[SymbolTable] = None):
        self.program = program
        self.symbols = symbols or SymbolTable(program)
        self.function_index: dict = {}
        for index, function in enumerate(program.functions):
            # setdefault: duplicate names resolve to the first
            # declaration, matching Program.function().
            self.function_index.setdefault(function.name, index)
        self._body = _Body()

    # -- entry points -----------------------------------------------------

    def compile(self) -> CompiledProgram:
        function_list = tuple(
            self._compile_function(function) for function in self.program.functions
        )
        methods: dict = {}
        seen_classes = set()
        for cls in self.program.classes:
            if cls.name in seen_classes:
                continue
            seen_classes.add(cls.name)
            seen_methods = set()
            for method in cls.methods:
                if method.name in seen_methods:
                    continue
                # Only the first same-named method is reachable in the
                # interpreter; a bodyless first match falls through to
                # vtable dispatch, which the VM replicates on a dict
                # miss — so register bodied first-matches only.
                seen_methods.add(method.name)
                if method.body is not None:
                    methods[(cls.name, method.name)] = self._compile_method(cls, method)
        return CompiledProgram(
            program=self.program,
            symbols=self.symbols,
            function_list=function_list,
            function_index=self.function_index,
            methods=methods,
        )

    def _compile_function(self, function: ast.FunctionDecl) -> CompiledFunction:
        return CompiledFunction(
            name=function.name,
            frame_label=function.name,
            params=self._bake_params(function.params),
            code=self._compile_body(function.body),
        )

    def _compile_method(self, cls: ast.ClassDecl, method: ast.MethodDecl) -> CompiledFunction:
        lowered = self.symbols.cxx_class(cls.name)
        field_slots: Optional[tuple] = None
        if lowered is not None:
            layout = self.symbols.layout_engine().layout_of(lowered)
            field_types = {f.name: f.type for f in cls.fields}
            slots = []
            for slot in layout.field_slots:
                type_ref = field_types.get(slot.name, ast.TypeRef(name=slot.ctype.name))
                member_class = getattr(slot.ctype, "class_def", None)
                slots.append(
                    (
                        slot.name,
                        slot.offset,
                        type_ref,
                        None if member_class is not None else slot.ctype,
                        member_class,
                        slot.ctype.size,
                    )
                )
            field_slots = tuple(slots)
        return CompiledFunction(
            name=method.name,
            frame_label=f"{cls.name}::{method.name}",
            params=self._bake_params(method.params),
            code=self._compile_body(method.body),
            class_name=cls.name,
            field_slots=field_slots,
        )

    # -- helpers ----------------------------------------------------------

    def _ctype_for(self, type_ref: ast.TypeRef) -> Optional[CType]:
        if type_ref.is_pointer:
            return VOID_PTR
        return _SCALAR_CTYPES.get(type_ref.name)

    def _class_for(self, name: str):
        return self.symbols.cxx_class(name)

    def _bake_params(self, params: tuple) -> tuple:
        baked = []
        for param in params:
            ctype = self._ctype_for(param.type) or VOID_PTR
            pointee = self._class_for(param.type.name) if param.type.is_pointer else None
            baked.append((param.name, param.type, ctype, pointee))
        return tuple(baked)

    def _emit(self, op: int, arg: Any = None) -> None:
        body = self._body
        body.code.append((op, arg, body.pending))
        body.pending = 0

    def _flush(self) -> None:
        body = self._body
        if body.pending:
            body.code.append((TICK, None, body.pending))
            body.pending = 0

    def _emit_jump(self, op: int) -> int:
        self._emit(op, None)
        return len(self._body.code) - 1

    def _patch(self, index: int) -> None:
        op, _, ticks = self._body.code[index]
        self._body.code[index] = (op, len(self._body.code), ticks)

    def _raise(self, exc_class: type, message: str) -> None:
        self._emit(RAISE, (exc_class, message))

    # -- statements -------------------------------------------------------

    def _compile_body(self, block: ast.Block) -> list:
        self._body = _Body()
        for stmt in block.statements:
            self._compile_stmt(stmt)
        self._flush()
        return self._body.code

    def _compile_block_stmts(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._compile_stmt(stmt)

    def _compile_stmt(self, stmt: ast.Stmt) -> None:
        self._body.pending += 1  # the interpreter's per-statement tick
        if isinstance(stmt, ast.Block):
            self._emit(SCOPE_PUSH)
            self._compile_block_stmts(stmt)
            self._emit(SCOPE_POP)
        elif isinstance(stmt, ast.VarDecl):
            self._compile_vardecl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._compile_expr(stmt.value)
            self._compile_lvalue(stmt.target)
            self._emit(STORE)
        elif isinstance(stmt, ast.CinRead):
            for target in stmt.targets:
                self._compile_lvalue(target)
                self._emit(CIN_READ)
        elif isinstance(stmt, ast.CoutWrite):
            for value_expr in stmt.values:
                self._compile_expr(value_expr)
                self._emit(COUT)
        elif isinstance(stmt, ast.ExprStmt):
            self._compile_expr(stmt.expr)
            self._emit(POP)
        elif isinstance(stmt, ast.DeleteStmt):
            self._compile_expr(stmt.target)
            self._emit(EXPECT_INT)
            self._emit(DELETE)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._compile_expr(stmt.value)
                self._emit(RET, True)
            else:
                self._emit(RET, False)
        elif isinstance(stmt, ast.If):
            self._compile_if(stmt)
        elif isinstance(stmt, ast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, ast.For):
            self._compile_for(stmt)
        else:
            raise UnsupportedConstruct(f"statement {type(stmt).__name__}")

    def _compile_if(self, stmt: ast.If) -> None:
        self._compile_expr(stmt.cond)
        false_jump = self._emit_jump(JUMP_IF_FALSE)
        self._emit(SCOPE_PUSH)
        self._compile_block_stmts(stmt.then_body)
        self._emit(SCOPE_POP)
        if stmt.else_body is not None:
            end_jump = self._emit_jump(JUMP)
            self._patch(false_jump)
            self._emit(SCOPE_PUSH)
            self._compile_block_stmts(stmt.else_body)
            self._emit(SCOPE_POP)
            self._patch(end_jump)
        else:
            self._patch(false_jump)

    def _compile_while(self, stmt: ast.While) -> None:
        # The statement-entry tick must not be re-charged per iteration,
        # so flush it before the loop head.
        self._flush()
        head = len(self._body.code)
        self._compile_expr(stmt.cond)
        false_jump = self._emit_jump(JUMP_IF_FALSE)
        self._body.pending += 1  # the interpreter ticks after a truthy cond
        self._emit(SCOPE_PUSH)
        self._compile_block_stmts(stmt.body)
        self._emit(SCOPE_POP)
        self._emit(JUMP, head)
        self._patch(false_jump)

    def _compile_for(self, stmt: ast.For) -> None:
        self._emit(SCOPE_PUSH)  # the loop scope (init + step live here)
        if stmt.init is not None:
            self._compile_stmt(stmt.init)
        self._flush()
        head = len(self._body.code)
        false_jump = None
        if stmt.cond is not None:
            self._compile_expr(stmt.cond)
            false_jump = self._emit_jump(JUMP_IF_FALSE)
        self._body.pending += 1  # per-iteration tick
        self._emit(SCOPE_PUSH)  # fresh body scope per iteration
        self._compile_block_stmts(stmt.body)
        self._emit(SCOPE_POP)
        if stmt.step is not None:
            self._compile_stmt(stmt.step)
        self._emit(JUMP, head)
        if false_jump is not None:
            self._patch(false_jump)
        self._emit(SCOPE_POP)  # leave the loop scope

    def _compile_vardecl(self, decl: ast.VarDecl) -> None:
        type_ref = decl.type
        class_def = None if type_ref.is_pointer else self._class_for(type_ref.name)
        if class_def is not None and not type_ref.is_array:
            self._emit(DECL_OBJECT, (class_def, decl.name, type_ref))
            init = decl.init
            if isinstance(init, ast.Call) and init.func == type_ref.name:
                for arg in init.args:
                    self._compile_expr(arg)
                self._emit(OBJ_CONSTRUCT, (class_def, decl.name, len(init.args)))
            elif init is not None:
                self._compile_expr(init)
                self._emit(OBJ_COPY, decl.name)
            return
        if type_ref.is_array:
            element = _SCALAR_CTYPES.get(type_ref.name)
            if element is None:
                self._raise(
                    ApiMisuseError,
                    f"unsupported local array element '{type_ref.name}'",
                )
                return
            self._compile_expr(type_ref.array_size)
            self._emit(DECL_ARRAY, (element, decl.name, type_ref))
            return
        ctype = self._ctype_for(type_ref) or VOID_PTR
        has_init = decl.init is not None
        if has_init:
            self._compile_expr(decl.init)
        pointee = self._class_for(type_ref.name) if type_ref.is_pointer else None
        self._emit(DECL_SCALAR, (ctype, decl.name, type_ref, has_init, pointee))

    # -- lvalues ----------------------------------------------------------

    def _compile_lvalue(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Name):
            self._emit(LVAL_NAME, expr.ident)
        elif isinstance(expr, ast.Member):
            if expr.arrow:
                self._compile_expr(expr.obj)
                pointee_ident = expr.obj.ident if isinstance(expr.obj, ast.Name) else None
                self._emit(LVAL_MEMBER_ARROW, (expr.name, pointee_ident))
            else:
                self._compile_lvalue(expr.obj)
                self._emit(LVAL_MEMBER_DOT, expr.name)
        elif isinstance(expr, ast.Index):
            self._compile_lvalue(expr.base)
            self._compile_expr(expr.index)
            self._emit(LVAL_INDEX)
        elif isinstance(expr, ast.Unary) and expr.op == "*":
            self._compile_expr(expr.operand)
            self._emit(LVAL_DEREF)
        else:
            self._raise(
                ApiMisuseError,
                f"expression {type(expr).__name__} is not an lvalue",
            )

    # -- expressions ------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr) -> None:
        self._body.pending += 1  # the interpreter's per-expression tick
        if isinstance(expr, ast.IntLit):
            self._emit(PUSH, expr.value)
        elif isinstance(expr, ast.FloatLit):
            self._emit(PUSH, expr.value)
        elif isinstance(expr, ast.StrLit):
            self._emit(PUSH, expr.value)
        elif isinstance(expr, ast.BoolLit):
            self._emit(PUSH, int(expr.value))
        elif isinstance(expr, ast.NullLit):
            self._emit(PUSH, 0)
        elif isinstance(expr, ast.Name):
            self._emit(LOAD_NAME, expr.ident)
        elif isinstance(expr, ast.Unary):
            self._compile_unary(expr)
        elif isinstance(expr, ast.Binary):
            self._compile_expr(expr.left)
            self._compile_expr(expr.right)
            opcode = _BINOPS.get(expr.op)
            if opcode is None:
                self._raise(ApiMisuseError, f"unsupported binary '{expr.op}'")
            else:
                self._emit(opcode)
        elif isinstance(expr, (ast.Member, ast.Index)):
            self._compile_lvalue(expr)
            self._emit(LVAL_LOAD)
        elif isinstance(expr, ast.SizeOf):
            self._compile_sizeof(expr)
        elif isinstance(expr, ast.Call):
            self._compile_call(expr)
        elif isinstance(expr, ast.NewExpr):
            self._compile_new(expr)
        else:
            raise UnsupportedConstruct(f"expression {type(expr).__name__}")

    def _compile_unary(self, expr: ast.Unary) -> None:
        op = expr.op
        if op == "&":
            self._compile_lvalue(expr.operand)
            self._emit(ADDR_OF)
        elif op in ("++", "--", "post++", "post--"):
            self._compile_lvalue(expr.operand)
            self._emit(INCDEC, op)
        else:
            self._compile_expr(expr.operand)
            if op == "*":
                self._emit(DEREF_READ)
            elif op == "-":
                self._emit(NEG)
            elif op == "!":
                self._emit(NOT_)
            elif op == "~":
                self._emit(INV)
            else:
                self._raise(ApiMisuseError, f"unsupported unary '{op}'")

    def _compile_sizeof(self, expr: ast.SizeOf) -> None:
        if expr.type_name is not None:
            size = self.symbols.sizeof_name(expr.type_name)
            if size is None:
                self._raise(ApiMisuseError, f"sizeof unknown type '{expr.type_name}'")
            else:
                self._emit(PUSH, size)
        elif isinstance(expr.expr, ast.Name):
            self._emit(SIZEOF_NAME, expr.expr.ident)
        else:
            self._raise(ApiMisuseError, "unsupported sizeof operand")

    def _compile_call(self, expr: ast.Call) -> None:
        if expr.receiver is not None:
            receiver = expr.receiver
            if isinstance(receiver, ast.Name):
                self._emit(RECV_NAME, (receiver.ident, expr.func))
            else:
                # The interpreter evaluates an untypable receiver and
                # then raises; RECV_VALUE replicates that, so the arg
                # code below is dead — emitted for structural clarity.
                self._compile_expr(receiver)
                self._emit(RECV_VALUE, expr.func)
            for arg in expr.args:
                self._compile_expr(arg)
            self._emit(METHOD_CALL, (expr.func, len(expr.args)))
            return
        index = self.function_index.get(expr.func)
        if index is not None:
            for arg in expr.args:
                self._compile_expr(arg)
            self._emit(CALL, (index, len(expr.args)))
            return
        self._compile_builtin(expr)

    def _builtin_args(self, args: tuple, spec: tuple) -> bool:
        """Compile builtin arguments with the interpreter's exact
        raise points: a missing argument raises the tuple IndexError
        *before* later arguments evaluate; an ``"i"`` argument is
        integer-coerced immediately after its own evaluation."""
        for position, kind in enumerate(spec):
            if position >= len(args):
                self._raise(IndexError, "tuple index out of range")
                return False
            self._compile_expr(args[position])
            if kind == "i":
                self._emit(EXPECT_INT)
        return True

    def _compile_builtin(self, expr: ast.Call) -> None:
        name = expr.func
        args = expr.args
        argc = len(args)
        if name in _NOOP_BUILTINS:
            for arg in args:
                self._compile_expr(arg)
            self._emit(NOOP_CALL, (argc, f"{name}()"))
        elif name == "strncpy":
            if self._builtin_args(args, ("i", "a", "i")):
                self._emit(STRNCPY)
        elif name == "strcpy":
            if self._builtin_args(args, ("i", "a")):
                self._emit(STRCPY)
        elif name == "memset":
            if self._builtin_args(args, ("i", "i", "i")):
                self._emit(MEMSET)
        elif name == "readFile":
            if self._builtin_args(args, ("a", "i", "i")):
                self._emit(READFILE)
        elif name == "store":
            if self._builtin_args(args, ("i",)):
                self._emit(STORE_BYTES)
        elif name == "invokeAccount":
            if self._builtin_args(args, ("i",)):
                self._emit(INVOKE_PTR)
        elif name == "getenv":
            for arg in args:
                self._compile_expr(arg)
            self._emit(GETENV, argc)
        elif name == "atoi":
            if self._builtin_args(args, ("a",)):
                self._emit(ATOI)
        elif self.symbols.is_class(name):
            for arg in args:
                self._compile_expr(arg)
            self._emit(MAKE_TUPLE, argc)
        else:
            self._raise(ApiMisuseError, f"unknown function '{name}'")

    def _compile_new(self, expr: ast.NewExpr) -> None:
        for arg in expr.args:
            self._compile_expr(arg)
        argc = len(expr.args)
        class_def = self._class_for(expr.type_name)
        element = _SCALAR_CTYPES.get(expr.type_name)
        if expr.placement is None:
            if expr.is_array:
                self._compile_expr(expr.array_count)
                self._emit(EXPECT_INT)
                if element is None:
                    self._raise(
                        ApiMisuseError,
                        f"new[] of unsupported element '{expr.type_name}'",
                    )
                else:
                    self._emit(HEAP_NEW_ARRAY, (expr.type_name, element, argc))
            elif class_def is not None:
                self._emit(HEAP_NEW_CLASS, (class_def, argc))
            elif element is not None:
                self._emit(HEAP_NEW_SCALAR, (expr.type_name, element, argc))
            else:
                self._raise(ApiMisuseError, f"new of unknown type '{expr.type_name}'")
            return
        self._compile_expr(expr.placement)
        self._emit(EXPECT_INT)
        # Static arena hint: the audit log's best-effort extent lookup
        # inspects `&var` / bare-name placement targets.
        target = expr.placement
        if isinstance(target, ast.Unary) and target.op == "&":
            target = target.operand
        hint = target.ident if isinstance(target, ast.Name) else None
        if expr.is_array:
            self._compile_expr(expr.array_count)
            self._emit(EXPECT_INT)
            self._emit(PLACE_NEW_ARRAY, (expr.type_name, element, argc, hint))
        elif class_def is None:
            self._raise(
                ApiMisuseError,
                f"placement new of unknown type '{expr.type_name}'",
            )
        else:
            self._emit(PLACE_NEW_CLASS, (class_def, argc, hint))


def compile_program(
    program: ast.Program, symbols: Optional[SymbolTable] = None
) -> CompiledProgram:
    """Lower a parsed program to bytecode (raises
    :class:`UnsupportedConstruct` when it cannot be done faithfully)."""
    return Compiler(program, symbols).compile()

"""A MiniC++ interpreter executing parsed programs on the simulator.

This is the dynamic half of the reproduction: the same source the static
detector analyzes (the paper's listings, see
:mod:`repro.workloads.corpus`) *runs* here, against real simulated
memory — placements place, overflows overflow, canaries abort, hijacked
returns transfer control.  Tests cross-validate the two: wherever the
detector reports a placement-new vulnerability, execution exhibits the
corresponding corruption.

Supported subset: everything the corpus uses — globals (objects, arrays,
scalars, pointers), free functions and arguments, every ``new`` flavour,
member/array/pointer lvalues, ``cin``/``cout``, ``if``/``while``/``for``
(with a step budget so DoS loops terminate the simulation, not the test
run), ``delete``, and a small builtin library (``strncpy``, ``strcpy``,
``memset``, ``readFile``, ``store``...).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Optional

from .._record import record
from ..analysis import ast_nodes as ast
from ..analysis.cache import parse_cached
from ..analysis.symbols import SymbolTable
from ..cxx.classdef import ClassDef
from ..cxx.object_model import Instance
from ..cxx.types import (
    BOOL,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    SHORT,
    UINT,
    VOID_PTR,
    ArrayType,
    CType,
    IntType,
    PointerType,
    array_of,
)
from ..errors import ApiMisuseError, ArithmeticFault, SimulatedProcessError
from ..errors import SimulatedTimeout
from ..memory.tracker import ArenaOrigin
from ..runtime.control_flow import FrameExit
from ..runtime.machine import Machine
from .values import LValue, Scope, Variable, truthy

_SCALAR_CTYPES: dict[str, CType] = {
    "int": INT,
    "unsigned int": UINT,
    "unsigned": UINT,
    "short": SHORT,
    "long": INT,
    "char": CHAR,
    "bool": BOOL,
    "float": FLOAT,
    "double": DOUBLE,
    "size_t": UINT,
}

#: Builtins that exist purely for their side effects on the simulation.
_NOOP_BUILTINS = {"processOne", "log", "send", "validate", "audit"}

DEFAULT_STEP_BUDGET = 100_000

#: Each counter write a ``++``/``--`` makes.
_UNIT_STEPS = {"++": 1, "post++": 1, "--": -1, "post--": -1}

#: ``bound op i`` read as ``i op' bound``.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@record(frozen=True)
class LoopShape:
    """A loop the interpreter can fast-forward (see :func:`loop_shape`).

    Each iteration evaluates the condition ``var op bound`` for every
    ``(op, bound)`` in ``bounds``, moves ``var`` by each of
    ``increments`` in turn, and calls the no-op builtins in ``calls`` in
    order.  ``invariants`` are the ``var``-free expressions one iteration
    evaluates: the bounds, then the calls' other arguments.
    """

    var: str
    bounds: tuple
    increments: tuple
    calls: tuple
    invariants: tuple


def loop_shape(stmt: ast.Stmt) -> Optional[LoopShape]:
    """The fast-forwardable shape of a ``while`` or ``for`` node, or None.

    A pure function of the node; the interpreter computes it once per
    node and keeps it off the (frozen, shared) tree.  The shape: the
    body and the ``for`` step hold only ``i = i ± c``,
    ``++i``/``i++``/``--i``/``i--`` and calls to no-op builtins whose
    arguments are ``i`` or ``i``-free; the condition is an ``&&`` tree
    of ``< <= > >=`` comparisons between ``i`` and ``i``-free
    expressions.  ``i``-free expressions hold no call, ``new``,
    ``++``/``--`` or string literal.
    """
    step = getattr(stmt, "step", None)
    statements = stmt.body.statements + ((step,) if step is not None else ())
    names, increments, calls, args = set(), [], [], []
    for statement in statements:
        increment = _increment(statement)
        if increment is not None:
            names.add(increment[0])
            increments.append(increment[1])
            continue
        call = statement.expr if isinstance(statement, ast.ExprStmt) else None
        if not (
            isinstance(call, ast.Call)
            and call.receiver is None
            and call.func in _NOOP_BUILTINS
        ):
            return None
        calls.append(call.func)
        args.extend(call.args)
    comparisons = _conjuncts(stmt.cond)
    if not comparisons or len(names) > 1:
        return None
    # The counter is the variable the loop moves or, in a loop that
    # moves none, a variable the first comparison names.
    first = comparisons[0]
    candidates = names or [
        side.ident for side in (first.left, first.right) if isinstance(side, ast.Name)
    ]
    for var in candidates:
        bounds = _bounds(comparisons, var)
        if bounds is not None:
            break
    else:
        return None
    invariants = [bound for _, bound in bounds]
    for arg in args:
        if _is_name(arg, var):
            continue
        if not _invariant(arg, var):
            return None
        invariants.append(arg)
    return LoopShape(
        var, tuple(bounds), tuple(increments), tuple(calls), tuple(invariants)
    )


def _increment(stmt: ast.Stmt) -> Optional[tuple]:
    """``(name, delta)`` for ``name = name ± c``, ``++name`` and the
    like; None for any other statement."""
    if isinstance(stmt, ast.ExprStmt):
        expr = stmt.expr
        if (
            isinstance(expr, ast.Unary)
            and expr.op in _UNIT_STEPS
            and isinstance(expr.operand, ast.Name)
        ):
            return expr.operand.ident, _UNIT_STEPS[expr.op]
        return None
    if not (isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Name)):
        return None
    name, value = stmt.target.ident, stmt.value
    if not (isinstance(value, ast.Binary) and value.op in ("+", "-")):
        return None
    if _is_name(value.left, name) and isinstance(value.right, ast.IntLit):
        amount = value.right.value
        return name, amount if value.op == "+" else -amount
    return None


def _bounds(comparisons: list, var: str) -> Optional[list]:
    """``(op, bound)`` per comparison, read as ``var op bound``; None
    unless each compares ``var`` with a ``var``-free expression."""
    bounds = []
    for comparison in comparisons:
        if _is_name(comparison.left, var) and _invariant(comparison.right, var):
            bounds.append((comparison.op, comparison.right))
        elif _is_name(comparison.right, var) and _invariant(comparison.left, var):
            bounds.append((_MIRRORED[comparison.op], comparison.left))
        else:
            return None
    return bounds


def _conjuncts(cond: Optional[ast.Expr]) -> Optional[list]:
    """The ``< <= > >=`` leaves of an ``&&`` tree; None for any other
    condition."""
    if isinstance(cond, ast.Binary):
        if cond.op == "&&":
            left, right = _conjuncts(cond.left), _conjuncts(cond.right)
            return None if left is None or right is None else left + right
        if cond.op in _MIRRORED:
            return [cond]
    return None


def _is_name(expr: ast.Expr, var: str) -> bool:
    return isinstance(expr, ast.Name) and expr.ident == var


def _invariant(expr: ast.Expr, var: str) -> bool:
    """No ``var``, call, ``new``, ``++``/``--`` or string literal in
    ``expr``: evaluating it only reads memory."""
    return not any(
        isinstance(node, (ast.Call, ast.NewExpr, ast.StrLit))
        or _is_name(node, var)
        or (isinstance(node, ast.Unary) and node.op in _UNIT_STEPS)
        for node in ast.walk_expressions(expr)
    )


def _divisor_kind(left: Any, right: Any) -> str:
    """``"integer"`` or ``"float"``: how C would name a zero divisor."""
    return "integer" if isinstance(left, int) and isinstance(right, int) else "float"


def _atoi(text: str) -> int:
    """C ``atoi``: skip leading whitespace, accept an optional sign and
    leading digits, and return 0 when no digits are found."""
    index, length = 0, len(text)
    while index < length and text[index].isspace():
        index += 1
    start = index
    if index < length and text[index] in "+-":
        index += 1
    digits_from = index
    while index < length and text[index].isdigit():
        index += 1
    if index == digits_from:
        return 0
    return int(text[start:index])


class _ReturnSignal(Exception):
    """Internal: unwinds the interpreter on ``return``."""

    def __init__(self, value: Any) -> None:
        self.value = value


@record
class FunctionOutcome:
    """Everything observable from one interpreted function call."""

    return_value: Any
    frame_exit: Optional[FrameExit]
    outputs: list
    stored: list  # (address, bytes) captured by store()
    steps: int


@record
class ExecutionError:
    """A simulated-process failure during interpretation."""

    error: SimulatedProcessError

    @property
    def kind(self) -> str:
        return type(self.error).__name__


class Interpreter:
    """Executes one parsed program on one machine."""

    def __init__(
        self,
        program: ast.Program,
        machine: Optional[Machine] = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ) -> None:
        self.program = program
        self.machine = machine or Machine()
        self.symbols = SymbolTable(program)
        # Share the symbol table's layout engine so sizeof agrees
        # between the analyzer and the running program.
        self.machine.layouts = self.symbols.layout_engine()
        self.step_budget = step_budget
        self.steps = 0
        self.outputs: list = []
        self.stored: list = []
        self.globals = Scope()
        #: id(loop node) -> its loop_shape; self.program keeps every node
        #: alive, so no id is reused while this interpreter lives.
        self._loop_shapes: dict = {}
        self._global_counter = 0
        self._install_globals()

    # -- setup ---------------------------------------------------------------

    def _ctype_for(self, type_ref: ast.TypeRef) -> Optional[CType]:
        if type_ref.is_pointer:
            return VOID_PTR
        return _SCALAR_CTYPES.get(type_ref.name)

    def _class_for(self, name: str) -> Optional[ClassDef]:
        return self.symbols.cxx_class(name)

    def _install_globals(self) -> None:
        for decl in self.program.globals:
            self._declare_global(decl)

    def _unique(self, name: str) -> str:
        self._global_counter += 1
        return f"{name}#{self._global_counter}"

    def _declare_global(self, decl: ast.VarDecl) -> None:
        type_ref = decl.type
        class_def = None if type_ref.is_pointer else self._class_for(type_ref.name)
        if class_def is not None and not type_ref.is_array:
            instance = self.machine.static_object(class_def, decl.name)
            variable = Variable(
                name=decl.name,
                address=instance.address,
                type_ref=type_ref,
                class_def=class_def,
                size=instance.size,
            )
        elif type_ref.is_array:
            element = self._ctype_for(
                ast.TypeRef(name=type_ref.name, pointer_depth=0)
            )
            if element is None:
                raise ApiMisuseError(
                    f"unsupported global array element '{type_ref.name}'"
                )
            count = self._expect_int(self.eval(decl.type.array_size, self.globals))
            view = self.machine.static_array(element, count, decl.name)
            variable = Variable(
                name=decl.name,
                address=view.address,
                type_ref=type_ref,
                ctype=array_of(element, count),
                size=element.size * count,
            )
        else:
            ctype = self._ctype_for(type_ref) or VOID_PTR
            init_value = None
            if decl.init is not None:
                init_value = self.eval(decl.init, self.globals)
            var_info = self.machine.static_scalar(
                ctype, decl.name, init=init_value
            )
            variable = Variable(
                name=decl.name,
                address=var_info.address,
                type_ref=type_ref,
                ctype=ctype,
                pointee_class=(
                    self._class_for(type_ref.name) if type_ref.is_pointer else None
                ),
                size=ctype.size,
            )
        self.globals.declare(variable)

    # -- public API ----------------------------------------------------------

    def run(self, function_name: str, *args: Any) -> FunctionOutcome:
        """Interpret ``function_name(*args)``.

        String arguments are materialized on the simulated heap (argv
        style) and passed as ``char*`` addresses.
        """
        function = self.program.function(function_name)
        prepared: list[Any] = []
        for value in args:
            if isinstance(value, str):
                address = self.machine.heap.allocate(len(value) + 1)
                self.machine.space.write_c_string(address, value)
                prepared.append(address)
            else:
                prepared.append(value)
        return self._call_function(function, prepared)

    # -- function machinery ------------------------------------------------

    def _call_function(
        self, function: ast.FunctionDecl, args: list
    ) -> FunctionOutcome:
        scope = self.globals.child()
        steps_before = self.steps
        caller_sp = self.machine.stack.stack_pointer
        # cdecl: the caller pushes arguments *before* the call, so they
        # live above the return address — keeping the callee's first
        # local flush against the frame's fixed slots (the adjacency the
        # paper's index arithmetic depends on).
        for param, value in zip(function.params, args):
            ctype = self._ctype_for(param.type) or VOID_PTR
            address = self.machine.stack.push_region(
                max(ctype.size, 4), alignment=4
            )
            self.machine.space.write(address, ctype.encode(value))
            scope.declare(
                Variable(
                    name=param.name,
                    address=address,
                    type_ref=param.type,
                    ctype=ctype,
                    pointee_class=(
                        self._class_for(param.type.name)
                        if param.type.is_pointer
                        else None
                    ),
                    size=ctype.size,
                )
            )
        frame = self.machine.push_frame(function.name)
        return_value: Any = None
        try:
            self._exec_block(function.body, scope, frame)
        except _ReturnSignal as signal:
            return_value = signal.value
        frame_exit = self.machine.pop_frame(frame)
        # The caller cleans its pushed arguments (cdecl).
        self.machine.stack.pop_to(caller_sp)
        return FunctionOutcome(
            return_value=return_value,
            frame_exit=frame_exit,
            outputs=self.outputs,
            stored=self.stored,
            steps=self.steps - steps_before,
        )

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_budget:
            raise SimulatedTimeout(self.step_budget)

    # -- statements -----------------------------------------------------------

    def _exec_block(self, block: ast.Block, scope: Scope, frame) -> None:
        for stmt in block.statements:
            self._exec(stmt, scope, frame)

    def _exec(self, stmt: ast.Stmt, scope: Scope, frame) -> None:
        # The step tick, inlined: same increment and budget check as _tick.
        self.steps += 1
        if self.steps > self.step_budget:
            raise SimulatedTimeout(self.step_budget)
        handler = _EXEC_HANDLERS.get(type(stmt))
        if handler is None:  # pragma: no cover - parser produces no other nodes
            raise ApiMisuseError(f"unsupported statement {type(stmt).__name__}")
        handler(self, stmt, scope, frame)

    def _exec_nested_block(self, stmt: ast.Block, scope: Scope, frame) -> None:
        self._exec_block(stmt, scope.child(), frame)

    def _exec_assign(self, stmt: ast.Assign, scope: Scope, frame) -> None:
        value = self.eval(stmt.value, scope)
        lvalue = self.resolve_lvalue(stmt.target, scope)
        self._store(lvalue, value)

    def _exec_cin(self, stmt: ast.CinRead, scope: Scope, frame) -> None:
        for target in stmt.targets:
            lvalue = self.resolve_lvalue(target, scope)
            ctype = lvalue.require_scalar()
            if isinstance(ctype, (type(DOUBLE), type(FLOAT))) and ctype in (
                DOUBLE,
                FLOAT,
            ):
                token: Any = self.machine.stdin.read_double()
            else:
                token = self.machine.stdin.read_int()
            self._store(lvalue, token)

    def _exec_cout(self, stmt: ast.CoutWrite, scope: Scope, frame) -> None:
        for value_expr in stmt.values:
            self.outputs.append(self.eval(value_expr, scope))

    def _exec_expr(self, stmt: ast.ExprStmt, scope: Scope, frame) -> None:
        self.eval(stmt.expr, scope)

    def _exec_delete(self, stmt: ast.DeleteStmt, scope: Scope, frame) -> None:
        address = self._expect_int(self.eval(stmt.target, scope))
        if address:
            self.machine.tracker.mark_freed(address)
            self.machine.heap.free(address)

    def _exec_return(self, stmt: ast.ReturnStmt, scope: Scope, frame) -> None:
        value = self.eval(stmt.value, scope) if stmt.value is not None else None
        raise _ReturnSignal(value)

    def _exec_if(self, stmt: ast.If, scope: Scope, frame) -> None:
        if truthy(self.eval(stmt.cond, scope)):
            self._exec_block(stmt.then_body, scope.child(), frame)
        elif stmt.else_body is not None:
            self._exec_block(stmt.else_body, scope.child(), frame)

    def _exec_while(self, stmt: ast.While, scope: Scope, frame) -> None:
        self._loop(stmt, None, scope, frame)

    def _exec_for(self, stmt: ast.For, scope: Scope, frame) -> None:
        loop_scope = scope.child()
        if stmt.init is not None:
            self._exec(stmt.init, loop_scope, frame)
        self._loop(stmt, stmt.step, loop_scope, frame)

    def _loop(self, stmt, step: Optional[ast.Stmt], scope: Scope, frame) -> None:
        """A ``while`` loop, or a ``for`` loop after its init.

        A loop of a :func:`loop_shape` shape marks the steps and its
        counter at the head of its first three iterations; the first two
        are the probes :meth:`_fast_forward` checks before it jumps.
        """
        cond, body = stmt.cond, stmt.body
        if id(stmt) not in self._loop_shapes:
            self._loop_shapes[id(stmt)] = loop_shape(stmt)
        shape = self._loop_shapes[id(stmt)]
        counter = None if shape is None else scope.lookup(shape.var)
        marks = None
        if counter is not None and isinstance(counter.ctype, IntType):
            marks = [self._loop_mark(counter)]
        while cond is None or truthy(self.eval(cond, scope)):
            self._tick()
            self._exec_block(body, scope.child(), frame)
            if step is not None:
                self._exec(step, scope, frame)
            if marks is not None:
                marks.append(self._loop_mark(counter))
                if len(marks) == 3:
                    self._fast_forward(shape, counter, marks, scope)
                    marks = None

    def _loop_mark(self, counter: Variable) -> tuple:
        """``(steps, counter value)``, the value read straight from its
        segment so that no observer sees the read."""
        address, ctype = counter.address, counter.ctype
        data = self.machine.space.find_segment(address).read(address, ctype.size)
        return self.steps, ctype.decode(data)

    def _fast_forward(
        self, shape: LoopShape, counter: Variable, marks: list, scope: Scope
    ) -> None:
        """Skip whole iterations of a shaped loop, exactly.

        ``marks`` are ``(steps, counter)`` at the head of the first three
        iterations.  Both probe iterations must have cost the same steps
        and moved the counter by the shape's net increment.  Every
        memory observer is repeat-safe (see
        :meth:`~repro.memory.address_space.AddressSpace.add_access_hook`),
        so the skipped iterations would tell none of them anything new.
        Each ``i``-free expression is then evaluated once, unobserved and
        with the step count restored; none may read the counter's bytes,
        and the bounds must be integers.
        The jump stops one iteration short of both the exit and the step
        budget, so the normal path runs the last iteration and raises
        the timeout or leaves the loop on the very step it always did.
        It advances the steps, stores the counter's final value once
        through the normal store and logs each iteration's no-op call
        events; nothing else changes when it declines.
        """
        (start, first), (before, previous), (now, value) = marks
        per_pass, delta = before - start, value - previous
        if (
            per_pass <= 0
            or now - before != per_pass
            or previous - first != delta
            or delta != sum(shape.increments)
        ):
            return
        room = (self.step_budget - now) // per_pass
        if room < 2:
            return
        defined = {function.name for function in self.program.functions}
        if not defined.isdisjoint(shape.calls):
            return  # the program's own function, not the no-op builtin
        values = self._unobserved_invariants(shape, counter, scope)
        if values is None:
            return
        low = high = None
        for (op, _), bound in zip(shape.bounds, values):
            if op == "<" or op == "<=":
                limit = bound - 1 if op == "<" else bound
                high = limit if high is None else min(high, limit)
            else:
                limit = bound + 1 if op == ">" else bound
                low = limit if low is None else max(low, limit)
        if (low is not None and value < low) or (high is not None and value > high):
            return
        passes = room
        if delta > 0 and high is not None:
            passes = min(passes, (high - value) // delta + 1)
        elif delta < 0 and low is not None:
            passes = min(passes, (value - low) // -delta + 1)
        skipped = passes - 1
        if skipped < 1:
            return
        if shape.increments:
            # Every skipped write must hold its value without wrapping;
            # the type's range is contiguous, so its extremes decide.
            written = list(accumulate(shape.increments))
            starts = (value, value + (skipped - 1) * delta)
            ctype = counter.ctype
            for extreme in (min(starts) + min(written), max(starts) + max(written)):
                if ctype.decode(ctype.encode(extreme)) != extreme:
                    return
        self.steps = now + skipped * per_pass
        if shape.increments:
            self._store(
                LValue(address=counter.address, ctype=counter.ctype),
                value + skipped * delta,
            )
        self.machine.events.extend([f"{name}()" for name in shape.calls] * skipped)

    def _unobserved_invariants(
        self, shape: LoopShape, counter: Variable, scope: Scope
    ) -> Optional[list]:
        """The value of each of ``shape.invariants``, evaluated once with
        every observer detached and the step count restored; None when
        one fails, reads any byte of ``counter`` or writes, or a bound is
        not an integer."""
        steps = self.steps
        try:
            with self.machine.space.unobserved() as accesses:
                values = [self.eval(expr, scope) for expr in shape.invariants]
        except Exception:
            # The probes evaluated these expressions without failing, so
            # this one read the counter; the plain path meets the
            # failure, if at all, where it really happens.
            return None
        finally:
            self.steps = steps
        start, end = counter.address, counter.address + counter.ctype.size
        for address, length, is_write in accesses:
            if is_write or (address < end and address + length > start):
                return None
        if not all(isinstance(bound, int) for bound in values[: len(shape.bounds)]):
            return None
        return values

    def _exec_vardecl(self, decl: ast.VarDecl, scope: Scope, frame) -> None:
        type_ref = decl.type
        class_def = None if type_ref.is_pointer else self._class_for(type_ref.name)
        if class_def is not None and not type_ref.is_array:
            instance = frame.local_object(class_def, self._unique(decl.name))
            variable = Variable(
                name=decl.name,
                address=instance.address,
                type_ref=type_ref,
                class_def=class_def,
                size=instance.size,
            )
            scope.declare(variable)
            if isinstance(decl.init, ast.Call) and decl.init.func == type_ref.name:
                ctor_args = [self.eval(arg, scope) for arg in decl.init.args]
                self._construct(class_def, instance.address, ctor_args)
            elif decl.init is not None:
                source = self.eval(decl.init, scope)
                if isinstance(source, int):
                    # Copy from another object's address.
                    data = self.machine.space.read(source, instance.size)
                    self.machine.space.write(instance.address, data)
            return
        if type_ref.is_array:
            element = self._ctype_for(
                ast.TypeRef(name=type_ref.name, pointer_depth=0)
            )
            if element is None:
                raise ApiMisuseError(
                    f"unsupported local array element '{type_ref.name}'"
                )
            count = self._expect_int(self.eval(type_ref.array_size, scope))
            view = frame.local_array(element, count, self._unique(decl.name))
            scope.declare(
                Variable(
                    name=decl.name,
                    address=view.address,
                    type_ref=type_ref,
                    ctype=array_of(element, count),
                    size=element.size * count,
                )
            )
            return
        ctype = self._ctype_for(type_ref) or VOID_PTR
        init_value = self.eval(decl.init, scope) if decl.init is not None else None
        if init_value is not None:
            init_value = self._coerce(ctype, init_value)
        address = frame.local_scalar(
            ctype, self._unique(decl.name), init=init_value
        )
        scope.declare(
            Variable(
                name=decl.name,
                address=address,
                type_ref=type_ref,
                ctype=ctype,
                pointee_class=(
                    self._class_for(type_ref.name) if type_ref.is_pointer else None
                ),
                size=ctype.size,
            )
        )

    # -- lvalues -------------------------------------------------------------

    def resolve_lvalue(self, expr: ast.Expr, scope: Scope) -> LValue:
        """Resolve an assignable expression to a storage location."""
        if isinstance(expr, ast.Name):
            variable = scope.lookup(expr.ident)
            if variable is None:
                raise ApiMisuseError(f"undefined variable '{expr.ident}'")
            return LValue(
                address=variable.address,
                ctype=variable.ctype,
                class_def=variable.class_def,
                declared=variable.type_ref,
            )
        if isinstance(expr, ast.Member):
            return self._resolve_member(expr, scope)
        if isinstance(expr, ast.Index):
            base = self.resolve_lvalue(expr.base, scope)
            index = self._expect_int(self.eval(expr.index, scope))
            if base.ctype is not None and isinstance(base.ctype, ArrayType):
                element = base.ctype.element
                return LValue(
                    address=base.address + index * element.size, ctype=element
                )
            if base.declared is not None and base.declared.is_pointer:
                element = (
                    self._ctype_for(
                        ast.TypeRef(name=base.declared.name, pointer_depth=0)
                    )
                    or CHAR
                )
                pointer = self.machine.space.read_pointer(base.address)
                return LValue(
                    address=pointer + index * element.size, ctype=element
                )
            raise ApiMisuseError("cannot index a non-array location")
        if isinstance(expr, ast.Unary) and expr.op == "*":
            target = self._expect_int(self.eval(expr.operand, scope))
            return LValue(address=target, ctype=INT)
        raise ApiMisuseError(
            f"expression {type(expr).__name__} is not an lvalue"
        )

    def _resolve_member(self, expr: ast.Member, scope: Scope) -> LValue:
        if expr.arrow:
            base_address = self._expect_int(self.eval(expr.obj, scope))
            class_def = self._static_pointee(expr.obj, scope)
        else:
            base = self.resolve_lvalue(expr.obj, scope)
            base_address = base.address
            class_def = base.class_def
        if class_def is None:
            raise ApiMisuseError(f"member '{expr.name}' on unknown class")
        layout = self.machine.layouts.layout_of(class_def)
        slot = layout.slot(expr.name)
        member_class = getattr(slot.ctype, "class_def", None)
        if member_class is not None:
            return LValue(
                address=base_address + slot.offset, class_def=member_class
            )
        return LValue(address=base_address + slot.offset, ctype=slot.ctype)

    def _static_pointee(self, expr: ast.Expr, scope: Scope) -> Optional[ClassDef]:
        if isinstance(expr, ast.Name):
            variable = scope.lookup(expr.ident)
            if variable is not None:
                return variable.pointee_class
        return None

    def _coerce(self, ctype: CType, value: Any) -> Any:
        """C-level coercions the encoder cannot guess: a Python string
        stored into a pointer becomes a heap-materialized char* (string
        literals and returned names live somewhere in memory in C)."""
        if isinstance(value, str) and isinstance(ctype, PointerType):
            address = self.machine.heap.allocate(len(value) + 1)
            self.machine.space.write_c_string(address, value)
            return address
        return value

    def _store(self, lvalue: LValue, value: Any) -> None:
        ctype = lvalue.require_scalar()
        self.machine.space.write(
            lvalue.address, ctype.encode(self._coerce(ctype, value))
        )

    # -- expressions ----------------------------------------------------------

    def eval(self, expr: Optional[ast.Expr], scope: Scope) -> Any:
        """Evaluate an rvalue."""
        if expr is None:
            return None
        # The step tick, inlined: same increment and budget check as _tick.
        self.steps += 1
        if self.steps > self.step_budget:
            raise SimulatedTimeout(self.step_budget)
        handler = _EVAL_HANDLERS.get(type(expr))
        if handler is None:
            raise ApiMisuseError(f"unsupported expression {type(expr).__name__}")
        return handler(self, expr, scope)

    def _eval_literal(self, expr: ast.Expr, scope: Scope) -> Any:
        return expr.value

    def _eval_bool(self, expr: ast.BoolLit, scope: Scope) -> int:
        return int(expr.value)

    def _eval_null(self, expr: ast.NullLit, scope: Scope) -> int:
        return 0

    def _eval_lvalue_read(self, expr: ast.Expr, scope: Scope) -> Any:
        """A Member or Index rvalue: read the location it resolves to."""
        lvalue = self.resolve_lvalue(expr, scope)
        if lvalue.ctype is None:
            return lvalue.address  # object member: its address
        if isinstance(lvalue.ctype, ArrayType):
            return lvalue.address  # arrays decay
        data = self.machine.space.read(lvalue.address, lvalue.ctype.size)
        return lvalue.ctype.decode(data)

    def _eval_name(self, expr: ast.Name, scope: Scope) -> Any:
        variable = scope.lookup(expr.ident)
        if variable is None:
            raise ApiMisuseError(f"undefined variable '{expr.ident}'")
        if variable.class_def is not None:
            return variable.address
        assert variable.ctype is not None
        if isinstance(variable.ctype, ArrayType):
            return variable.address  # decay
        data = self.machine.space.read(variable.address, variable.ctype.size)
        return variable.ctype.decode(data)

    def _eval_unary(self, expr: ast.Unary, scope: Scope) -> Any:
        if expr.op == "&":
            return self.resolve_lvalue(expr.operand, scope).address
        if expr.op in ("++", "--", "post++", "post--"):
            lvalue = self.resolve_lvalue(expr.operand, scope)
            ctype = lvalue.require_scalar()
            current = ctype.decode(
                self.machine.space.read(lvalue.address, ctype.size)
            )
            delta = 1 if "++" in expr.op else -1
            updated = current + delta
            self._store(lvalue, updated)
            return current if expr.op.startswith("post") else updated
        value = self.eval(expr.operand, scope)
        if expr.op == "*":
            address = self._expect_int(value)
            return self.machine.space.read_int(address)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return int(not truthy(value))
        if expr.op == "~":
            return ~self._expect_int(value)
        raise ApiMisuseError(f"unsupported unary '{expr.op}'")

    def _eval_binary(self, expr: ast.Binary, scope: Scope) -> Any:
        left = self.eval(expr.left, scope)
        right = self.eval(expr.right, scope)
        op = expr.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ArithmeticFault(_divisor_kind(left, right) + " division")
            if isinstance(left, int) and isinstance(right, int):
                return int(left / right) if (left < 0) != (right < 0) else left // right
            return left / right
        if op == "%":
            if right == 0:
                raise ArithmeticFault(_divisor_kind(left, right) + " modulo")
            return left % right
        if op == "<":
            return int(left < right)
        if op == ">":
            return int(left > right)
        if op == "<=":
            return int(left <= right)
        if op == ">=":
            return int(left >= right)
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "&&":
            return int(truthy(left) and truthy(right))
        if op == "||":
            return int(truthy(left) or truthy(right))
        raise ApiMisuseError(f"unsupported binary '{op}'")

    def _eval_sizeof(self, expr: ast.SizeOf, scope: Scope) -> int:
        if expr.type_name is not None:
            size = self.symbols.sizeof_name(expr.type_name)
            if size is None:
                raise ApiMisuseError(f"sizeof unknown type '{expr.type_name}'")
            return size
        if isinstance(expr.expr, ast.Name):
            variable = scope.lookup(expr.expr.ident)
            if variable is not None and variable.size:
                return variable.size
        raise ApiMisuseError("unsupported sizeof operand")

    # -- calls ----------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, scope: Scope) -> Any:
        if expr.receiver is not None:
            return self._eval_method_call(expr, scope)
        # Program-defined function?
        try:
            function = self.program.function(expr.func)
        except KeyError:
            function = None
        if function is not None:
            args = [self.eval(arg, scope) for arg in expr.args]
            outcome = self._call_function(function, args)
            return outcome.return_value
        return self._eval_builtin(expr, scope)

    def _receiver_binding(
        self, receiver: ast.Expr, scope: Scope
    ) -> tuple[int, Optional[str]]:
        """(object address, static class name) for a method receiver."""
        if isinstance(receiver, ast.Name):
            variable = scope.lookup(receiver.ident)
            if variable is not None:
                if variable.class_def is not None:
                    return variable.address, variable.class_def.name
                if variable.pointee_class is not None:
                    address = self.machine.space.read_pointer(variable.address)
                    return address, variable.pointee_class.name
        # General case: the receiver evaluates to an address; the static
        # class cannot be recovered.
        return self._expect_int(self.eval(receiver, scope)), None

    def _eval_method_call(self, expr: ast.Call, scope: Scope) -> Any:
        """``obj.m(...)`` / ``ptr->m(...)`` — AST-bodied methods execute
        with the fields in scope; declaration-only virtuals dispatch
        through the simulated vtable (so a corrupted vptr misdirects
        exactly as in §3.8.2)."""
        address, class_name = self._receiver_binding(expr.receiver, scope)
        if class_name is None:
            raise ApiMisuseError(f"cannot type method receiver for '{expr.func}'")
        args = [self.eval(arg, scope) for arg in expr.args]
        decl = self.symbols.class_decl(class_name)
        method = None
        if decl is not None:
            for candidate in decl.methods:
                if candidate.name == expr.func:
                    method = candidate
                    break
        if method is not None and method.body is not None:
            return self._run_method_body(class_name, method, address, args)
        # Virtual, declaration-only: real in-memory dispatch.
        lowered = self._class_for(class_name)
        if lowered is not None and expr.func in lowered.virtual_slot_order():
            instance = Instance(self.machine, lowered, address)
            result = self.machine.virtual_call(instance, expr.func, *args)
            return result.return_value
        raise ApiMisuseError(f"class {class_name} has no method '{expr.func}'")

    def run_method(
        self, class_name: str, method_name: str, address: int, *args: Any
    ) -> Any:
        """Public helper: invoke ``object.method(args)`` at ``address``."""
        decl = self.symbols.class_decl(class_name)
        if decl is None:
            raise ApiMisuseError(f"unknown class '{class_name}'")
        for method in decl.methods:
            if method.name == method_name and method.body is not None:
                return self._run_method_body(class_name, method, address, list(args))
        raise ApiMisuseError(f"class {class_name} has no body for '{method_name}'")

    def _run_method_body(
        self, class_name: str, method: Any, address: int, args: list
    ) -> Any:
        lowered = self._class_for(class_name)
        if lowered is None:
            raise ApiMisuseError(f"unknown class '{class_name}'")
        layout = self.machine.layouts.layout_of(lowered)
        scope = self.globals.child()
        # Fields become variables rooted at the object's address.
        decl = self.symbols.class_decl(class_name)
        field_types = {f.name: f.type for f in decl.fields} if decl else {}
        for slot in layout.field_slots:
            type_ref = field_types.get(
                slot.name, ast.TypeRef(name=slot.ctype.name)
            )
            member_class = getattr(slot.ctype, "class_def", None)
            scope.declare(
                Variable(
                    name=slot.name,
                    address=address + slot.offset,
                    type_ref=type_ref,
                    ctype=None if member_class is not None else slot.ctype,
                    class_def=member_class,
                    size=slot.ctype.size,
                )
            )
        frame = self.machine.push_frame(f"{class_name}::{method.name}")
        for param, value in zip(method.params, args):
            ctype = self._ctype_for(param.type) or VOID_PTR
            param_address = frame.local_scalar(
                ctype, self._unique(f"param:{param.name}")
            )
            self.machine.space.write(param_address, ctype.encode(value))
            scope.declare(
                Variable(
                    name=param.name,
                    address=param_address,
                    type_ref=param.type,
                    ctype=ctype,
                    pointee_class=(
                        self._class_for(param.type.name)
                        if param.type.is_pointer
                        else None
                    ),
                    size=ctype.size,
                )
            )
        return_value: Any = None
        try:
            self._exec_block(method.body, scope, frame)
        except _ReturnSignal as signal:
            return_value = signal.value
        self.machine.pop_frame(frame)
        return return_value

    def _eval_builtin(self, expr: ast.Call, scope: Scope) -> Any:
        name = expr.func
        if name in _NOOP_BUILTINS:
            for arg in expr.args:
                self.eval(arg, scope)
            self.machine.record_event(f"{name}()")
            return 0
        if name == "strncpy":
            dest = self._expect_int(self.eval(expr.args[0], scope))
            source = self.eval(expr.args[1], scope)
            count = self._expect_int(self.eval(expr.args[2], scope))
            text = (
                source
                if isinstance(source, str)
                else self.machine.space.read_c_string(source)
            )
            self.machine.space.strncpy(dest, text, count)
            return dest
        if name == "strcpy":
            dest = self._expect_int(self.eval(expr.args[0], scope))
            source = self.eval(expr.args[1], scope)
            text = (
                source
                if isinstance(source, str)
                else self.machine.space.read_c_string(source)
            )
            self.machine.space.write_c_string(dest, text)  # unbounded!
            return dest
        if name == "memset":
            dest = self._expect_int(self.eval(expr.args[0], scope))
            byte = self._expect_int(self.eval(expr.args[1], scope)) & 0xFF
            count = self._expect_int(self.eval(expr.args[2], scope))
            self.machine.space.fill(dest, count, byte)
            return dest
        if name == "readFile":
            path = self.eval(expr.args[0], scope)
            dest = self._expect_int(self.eval(expr.args[1], scope))
            count = self._expect_int(self.eval(expr.args[2], scope))
            if isinstance(path, int):
                path = self.machine.space.read_c_string(path)
            data = self.machine.files.open(path).read(count)
            size = self.machine.space.bounded_length(dest, count)
            self.machine.space.write(dest, data.ljust(size, b"\x00")[:size])
            return len(data)
        if name == "store":
            address = self._expect_int(self.eval(expr.args[0], scope))
            record = self.machine.tracker.lookup(address)
            length = record.true_size if record is not None else 256
            segment = self.machine.space.find_segment(address)
            if segment is not None:
                length = min(length, segment.end - address)
            data = self.machine.space.read(address, max(length, 0))
            self.stored.append((address, data))
            self.machine.record_event(f"store({address:#010x}, {len(data)}B)")
            return len(data)
        if name == "invokeAccount":
            target = self._expect_int(self.eval(expr.args[0], scope))
            result = self.machine.call_function_pointer(target)
            return result.return_value
        if name == "getenv":
            # The simulated environment is attacker-controlled, like the
            # fuzzer's stdin: each getenv() consumes one input token and
            # yields its decimal rendering (declaration-site coercion
            # materializes it as a C string when bound to a char*).
            for arg in expr.args:
                self.eval(arg, scope)
            token = self.machine.stdin.read_int()
            self.machine.record_event("getenv()")
            return str(token)
        if name == "atoi":
            source = self.eval(expr.args[0], scope)
            text = (
                source
                if isinstance(source, str)
                else self.machine.space.read_c_string(
                    self._expect_int(source)
                )
            )
            return _atoi(text)
        # A class-name "call" evaluates its args (temporary object value
        # semantics are handled at the declaration site).
        if self.symbols.is_class(name):
            return tuple(self.eval(arg, scope) for arg in expr.args)
        raise ApiMisuseError(f"unknown function '{name}'")

    # -- new expressions --------------------------------------------------------

    def _eval_new(self, expr: ast.NewExpr, scope: Scope) -> int:
        args = [self.eval(arg, scope) for arg in expr.args]
        class_def = self._class_for(expr.type_name)
        element = _SCALAR_CTYPES.get(expr.type_name)
        if expr.placement is None:
            return self._heap_new(expr, class_def, element, args, scope)
        address = self._expect_int(self.eval(expr.placement, scope))
        arena_size = self._arena_size_of(expr.placement, address, scope)
        if expr.is_array:
            count = self._expect_int(self.eval(expr.array_count, scope))
            size = (element.size if element else 1) * count
            self.machine.tracker.relabel(
                address, size, label=f"{expr.type_name}[{count}]"
            )
            self.machine.placement_log.add(
                self._placement_record(
                    address, size, f"{expr.type_name}[{count}]", arena_size
                )
            )
            return address
        if class_def is None:
            raise ApiMisuseError(f"placement new of unknown type '{expr.type_name}'")
        layout = self.machine.layouts.layout_of(class_def)
        self.machine.tracker.relabel(address, layout.size, label=class_def.name)
        self.machine.placement_log.add(
            self._placement_record(address, layout.size, class_def.name, arena_size)
        )
        self._construct(class_def, address, args)
        return address

    def _arena_size_of(
        self, placement: ast.Expr, address: int, scope: Scope
    ) -> Optional[int]:
        """Best-effort arena extent for the audit log: a tracked heap
        arena, or the declared size of a named variable (``&var`` /
        array-name placements)."""
        record = self.machine.tracker.lookup(address)
        if record is not None:
            return record.true_size
        target = placement
        if isinstance(target, ast.Unary) and target.op == "&":
            target = target.operand
        if isinstance(target, ast.Name):
            variable = scope.lookup(target.ident)
            if (
                variable is not None
                and variable.size
                and variable.address == address
                and not variable.type_ref.is_pointer
            ):
                return variable.size
        return None

    def _placement_record(self, address, size, type_name, arena_size):
        from ..core.placement import PlacementRecord

        return PlacementRecord(
            address=address,
            size=size,
            type_name=type_name,
            misaligned=False,
            arena_size=arena_size,
        )

    def _heap_new(self, expr, class_def, element, args, scope) -> int:
        if expr.is_array:
            count = self._expect_int(self.eval(expr.array_count, scope))
            if element is None:
                raise ApiMisuseError(
                    f"new[] of unsupported element '{expr.type_name}'"
                )
            size = element.size * count
            address = self.machine.heap.allocate(size)
            self.machine.tracker.record(
                address, size, ArenaOrigin.HEAP_NEW, label=f"{expr.type_name}[{count}]"
            )
            return address
        if class_def is not None:
            layout = self.machine.layouts.layout_of(class_def)
            address = self.machine.heap.allocate(layout.size)
            self.machine.tracker.record(
                address, layout.size, ArenaOrigin.HEAP_NEW, label=class_def.name
            )
            self._construct(class_def, address, args)
            return address
        if element is not None:
            address = self.machine.heap.allocate(element.size)
            self.machine.tracker.record(
                address, element.size, ArenaOrigin.HEAP_NEW, label=expr.type_name
            )
            if args:
                self.machine.space.write(address, element.encode(args[0]))
            return address
        raise ApiMisuseError(f"new of unknown type '{expr.type_name}'")

    def _construct(self, class_def: ClassDef, address: int, args: list) -> None:
        """Constructor semantics for declaration-only MiniC++ classes:
        install vptrs, then map positional args onto the fields in
        layout order (base members first) — matching the paper's
        ``Student(gpa, year, semester)`` style constructors."""
        layout = self.machine.layouts.layout_of(class_def)
        if layout.has_vptr:
            table = self.machine.vtables.ensure(class_def)
            tap = self.machine.event_tap
            for vptr_offset in layout.vptr_offsets:
                if tap is not None:
                    tap.vptr_installed(address + vptr_offset, table.address)
                self.machine.space.write_pointer(
                    address + vptr_offset, table.address
                )
        scalar_slots = [
            slot
            for slot in layout.field_slots
            if not isinstance(slot.ctype, ArrayType)
            and getattr(slot.ctype, "class_def", None) is None
        ]
        for slot, value in zip(scalar_slots, args):
            self.machine.space.write(
                address + slot.offset, slot.ctype.encode(value)
            )

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _expect_int(value: Any) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if not isinstance(value, int):
            raise ApiMisuseError(f"expected an integer value, got {value!r}")
        return value


#: Exact node type -> handler.  Built once; a node type missing here is
#: rejected with the same error the interpreter has always raised.
_EVAL_HANDLERS = {
    ast.IntLit: Interpreter._eval_literal,
    ast.FloatLit: Interpreter._eval_literal,
    ast.StrLit: Interpreter._eval_literal,
    ast.BoolLit: Interpreter._eval_bool,
    ast.NullLit: Interpreter._eval_null,
    ast.Name: Interpreter._eval_name,
    ast.Unary: Interpreter._eval_unary,
    ast.Binary: Interpreter._eval_binary,
    ast.Member: Interpreter._eval_lvalue_read,
    ast.Index: Interpreter._eval_lvalue_read,
    ast.SizeOf: Interpreter._eval_sizeof,
    ast.Call: Interpreter._eval_call,
    ast.NewExpr: Interpreter._eval_new,
}

_EXEC_HANDLERS = {
    ast.Block: Interpreter._exec_nested_block,
    ast.VarDecl: Interpreter._exec_vardecl,
    ast.Assign: Interpreter._exec_assign,
    ast.CinRead: Interpreter._exec_cin,
    ast.CoutWrite: Interpreter._exec_cout,
    ast.ExprStmt: Interpreter._exec_expr,
    ast.DeleteStmt: Interpreter._exec_delete,
    ast.ReturnStmt: Interpreter._exec_return,
    ast.If: Interpreter._exec_if,
    ast.While: Interpreter._exec_while,
    ast.For: Interpreter._exec_for,
}


def run_source(
    source: str,
    entry: str = "main",
    args: tuple = (0, 0),
    machine: Optional[Machine] = None,
    stdin: tuple = (),
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[Interpreter, FunctionOutcome]:
    """Parse (memoized on content), load, and run MiniC++ source on a
    (fresh) machine."""
    interpreter = Interpreter(parse_cached(source), machine=machine, step_budget=step_budget)
    if stdin:
        interpreter.machine.stdin.feed(*stdin)
    outcome = interpreter.run(entry, *args)
    return interpreter, outcome

"""The placement-new vulnerability detector — the paper's future-work tool.

A flow-sensitive abstract interpreter over MiniC++ functions (and class
methods) that tracks taint, constants and points-to sets
(:mod:`dataflow`) and fires the rules below at placement sites and their
downstream uses:

=====================  ========  ==============================================
rule                   severity  fires when
=====================  ========  ==============================================
``PN-OVERSIZE``        error     sizeof(placed) > size of the resolved arena
``PN-TAINTED-COUNT``   error     placement ``new[]`` whose length is tainted
``PN-TAINTED-FIELD``   error     tainted input written through a field of an
                                 oversize placement (``cin >> st->ssn[i]``)
``PN-TAINTED-COPY-     error     same, inside a loop whose bound is tainted
LOOP``                           (the Listing 6 copy loop)
``PN-TYPE-CONFUSION``  error     a placement/heap allocation bound to a
                                 pointer of a *larger* type — well-typed
                                 member writes land past the allocation
``PN-VPTR-RISK``       warning   oversize placement involving polymorphic
                                 classes (vtable-subterfuge exposure)
``PN-NO-SANITIZE``     warning   a reused, never-sanitized arena flows to an
                                 output sink (information leak); a partial
                                 ``memset`` does not clear this
``PN-LEAK``            warning   an undersized placement's heap arena pointer
                                 is dropped without delete (Listing 23)
``PN-UNKNOWN-ARENA``   info      the arena's extent cannot be determined —
                                 the paper's "just an address" caveat
``PN-MISALIGNED``      info      arena alignment below the placed type's
=====================  ========  ==============================================

Branch feasibility uses constant folding, so the Section 5.1 guarded
idiom (``if (sizeof(B) <= sizeof(A)) ...``) analyzes clean.
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from . import ast_nodes as ast
from .cache import cached_report
from .dataflow import TOP, AbstractValue, Env, PointerTarget, root_name
from .reports import AnalysisReport, Finding, Severity
from .symbols import SymbolTable

#: Revision of the detector's rule set and dataflow semantics.  Bump on
#: any change that can alter findings — the service result cache keys on
#: it, so stale cached analyses are invalidated automatically.
DETECTOR_VERSION = "2"

#: Calls treated as output sinks (exfiltration points for leak residue).
SINK_CALLS = {"store", "send", "printf", "write", "log", "serialize", "transmit"}
#: Calls that sanitize their first argument.
SANITIZE_CALLS = {"memset", "bzero", "explicit_bzero"}
#: Calls whose pointer arguments become "filled" with external data.
FILL_HINT_CALLS = {"readFile", "read", "mmap", "recv", "fread", "strncpy", "memcpy", "strcpy", "gets", "sprintf"}
#: Call results that are attacker-tainted at the source.
TAINT_SOURCE_CALLS = {"getNames", "getStudent", "receive", "recv", "getenv", "atoi"}

_LOOP_FIXPOINT_LIMIT = 6


@record
class _ArenaState:
    """Flow state attached to a reusable arena (keyed by root variable)."""

    filled: bool = False
    shrunk_by_placement: bool = False
    placement_line: int = 0


class PlacementNewDetector:
    """Analyzes one parsed program."""

    tool_name = "placement-analyzer"
    #: Maximum inline depth for interprocedural analysis (paper §3.3:
    #: the data-flow path may be "intra-procedural or inter-procedural").
    max_inline_depth = 3

    def __init__(self, program: ast.Program, interprocedural: bool = True) -> None:
        self.program = program
        self.symbols = SymbolTable(program)
        self.report = AnalysisReport(tool=self.tool_name)
        self.interprocedural = interprocedural
        self._current_function = ""
        self._loop_taint_stack: list[frozenset] = []
        self._arena_states: dict[str, _ArenaState] = {}
        self._reused_unsanitized: dict[str, int] = {}  # var -> placement line
        self._call_stack: list[str] = []

    # -- entry points ----------------------------------------------------------

    @classmethod
    def analyze_source(cls, source: str) -> AnalysisReport:
        """Parse and analyze source text.

        Memoized on source content via :mod:`.cache`, keyed by the
        concrete class and :data:`DETECTOR_VERSION`, so warm re-analysis
        skips lex + parse + the abstract interpretation entirely.
        """
        return cached_report(
            f"detector:{cls.__module__}.{cls.__qualname__}",
            DETECTOR_VERSION,
            source,
            lambda program: cls(program).analyze(),
        )

    def analyze(self) -> AnalysisReport:
        """Analyze every function and every class method with a body."""
        global_env = Env()
        for decl in self.program.globals:
            self._exec_statement(decl, global_env)
        self._global_env = global_env
        for function in self.program.functions:
            env = global_env.copy()
            for param in function.params:
                env.set(
                    param.name,
                    AbstractValue(
                        taint=frozenset({f"param:{param.name}"}),
                        declared=param.type,
                    ),
                )
            self._analyze_body(function.name, function.body, env)
        for cls in self.program.classes:
            for method in cls.methods:
                if method.body is None or method.name == cls.name:
                    continue
                env = global_env.copy()
                for field in cls.fields:
                    env.set(field.name, AbstractValue(declared=field.type))
                for param in method.params:
                    env.set(
                        param.name,
                        AbstractValue(
                            taint=frozenset({f"param:{param.name}"}),
                            declared=param.type,
                        ),
                    )
                self._analyze_body(f"{cls.name}::{method.name}", method.body, env)
        return self.report

    def _analyze_body(self, name: str, body: ast.Block, env: Env) -> None:
        self._current_function = name
        self._loop_taint_stack.clear()
        self._exec_statement(body, env)

    # -- findings -------------------------------------------------------------

    def _emit(self, rule: str, severity: Severity, message: str, line: int) -> None:
        self.report.add(
            Finding(
                rule=rule,
                severity=severity,
                message=message,
                line=line,
                function=self._current_function,
                tool=self.tool_name,
            )
        )

    # -- statements -----------------------------------------------------------

    def _exec_statement(self, stmt: ast.Stmt, env: Env) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._exec_statement(inner, env)
        elif isinstance(stmt, ast.VarDecl):
            self._exec_vardecl(stmt, env)
        elif isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, env)
        elif isinstance(stmt, ast.CinRead):
            self._exec_cin(stmt, env)
        elif isinstance(stmt, ast.CoutWrite):
            for value in stmt.values:
                self._check_sink_value(value, env, stmt.line)
                self._eval(value, env)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, ast.DeleteStmt):
            name = root_name(stmt.target)
            if name is not None:
                state = self._arena_states.get(name)
                if state is not None:
                    state.shrunk_by_placement = False
            self._eval(stmt.target, env)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, env)
        elif isinstance(stmt, ast.While):
            self._exec_loop(stmt.cond, stmt.body, env, line=stmt.line)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._exec_statement(stmt.init, env)
            self._exec_loop(stmt.cond, stmt.body, env, step=stmt.step, line=stmt.line)

    def _exec_vardecl(self, stmt: ast.VarDecl, env: Env) -> None:
        if stmt.type.array_size is not None:
            self._eval(stmt.type.array_size, env)
        value = AbstractValue(declared=stmt.type)
        if stmt.init is not None:
            init_value = self._eval(stmt.init, env)
            value = AbstractValue(
                taint=init_value.taint,
                const=init_value.const,
                targets=init_value.targets,
                declared=stmt.type,
            )
            self._check_leak_on_overwrite(stmt.name, stmt.line)
        env.set(stmt.name, value)
        self._propagate_exposure(stmt.name, value)
        if stmt.init is not None:
            self._check_type_confusion(stmt.name, stmt.type, value, stmt.line)

    def _exec_assign(self, stmt: ast.Assign, env: Env) -> None:
        value = self._eval(stmt.value, env)
        target_root = root_name(stmt.target)
        if isinstance(stmt.target, ast.Name):
            self._check_leak_on_overwrite(stmt.target.ident, stmt.line)
            declared = env.get(stmt.target.ident).declared
            env.set(
                stmt.target.ident,
                AbstractValue(
                    taint=value.taint,
                    const=value.const,
                    targets=value.targets,
                    declared=declared,
                ),
            )
            self._propagate_exposure(stmt.target.ident, value)
            self._check_type_confusion(
                stmt.target.ident, declared, value, stmt.line
            )
            return
        # Write through a member/element/deref lvalue.
        if value.tainted and target_root is not None:
            self._check_tainted_write(stmt.target, env, stmt.line)
        self._eval(stmt.target, env)

    def _exec_cin(self, stmt: ast.CinRead, env: Env) -> None:
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                declared = env.get(target.ident).declared
                env.set(
                    target.ident,
                    AbstractValue(taint=frozenset({"stdin"}), declared=declared),
                )
            else:
                self._check_tainted_write(target, env, stmt.line)

    def _exec_if(self, stmt: ast.If, env: Env) -> None:
        cond_value = self._eval(stmt.cond, env)
        feasible_then = cond_value.const_int != 0 or cond_value.const_int is None
        feasible_else = (
            cond_value.const_int == 0 or cond_value.const_int is None
        ) or cond_value.const is TOP
        if cond_value.const is TOP:
            feasible_then = feasible_else = True
        then_env = env.copy()
        else_env = env.copy()
        if feasible_then:
            self._exec_statement(stmt.then_body, then_env)
        if stmt.else_body is not None and feasible_else:
            self._exec_statement(stmt.else_body, else_env)
        if feasible_then and feasible_else:
            merged = then_env.join_with(else_env)
        elif feasible_then:
            merged = then_env
        else:
            merged = else_env
        env._values = merged._values  # type: ignore[attr-defined]

    def _exec_loop(
        self,
        cond: Optional[ast.Expr],
        body: ast.Block,
        env: Env,
        step: Optional[ast.Stmt] = None,
        line: int = 0,
    ) -> None:
        cond_taint: frozenset = frozenset()
        if cond is not None:
            cond_taint = self._eval(cond, env).taint
        self._loop_taint_stack.append(cond_taint)
        try:
            current = env
            for _ in range(_LOOP_FIXPOINT_LIMIT):
                iteration = current.copy()
                self._exec_statement(body, iteration)
                if step is not None:
                    self._exec_statement(step, iteration)
                if cond is not None:
                    self._eval(cond, iteration)
                merged = current.join_with(iteration)
                if merged.equivalent(current):
                    break
                current = merged
            env._values = current._values  # type: ignore[attr-defined]
        finally:
            self._loop_taint_stack.pop()

    # -- rule helpers -----------------------------------------------------------

    def _check_tainted_write(self, target: ast.Expr, env: Env, line: int) -> None:
        """Tainted data written through a member/element lvalue: is the
        base an oversize placement?"""
        name = root_name(target)
        if name is None:
            return
        base = env.get(name)
        oversize_targets = [
            t for t in base.targets if t.kind == "placement" and t.oversize
        ]
        if not oversize_targets:
            return
        in_tainted_loop = any(self._loop_taint_stack)
        rule = "PN-TAINTED-COPY-LOOP" if in_tainted_loop else "PN-TAINTED-FIELD"
        placed = oversize_targets[0]
        self._emit(
            rule,
            Severity.ERROR,
            (
                f"attacker-controlled value written through {name} "
                f"({placed.describe()} placed at line {placed.placement_line}); "
                "the write lands beyond the arena"
            ),
            line,
        )

    def _check_leak_on_overwrite(self, var: str, line: int) -> None:
        """A pointer holding a shrunk heap arena is being overwritten."""
        state = self._arena_states.get(var)
        if state is not None and state.shrunk_by_placement:
            self._emit(
                "PN-LEAK",
                Severity.WARNING,
                (
                    f"pointer '{var}' to a heap arena shrunk by a placement "
                    f"new (line {state.placement_line}) is overwritten without "
                    "delete; the size difference leaks each time"
                ),
                line,
            )
            state.shrunk_by_placement = False

    def _propagate_exposure(self, name: str, value: AbstractValue) -> None:
        """A variable bound to a placement over an unsanitized arena is
        itself an exposure point (Listing 21's ``userdata``)."""
        for target in value.targets:
            if (
                target.kind == "placement"
                and target.var_name in self._reused_unsanitized
            ):
                self._reused_unsanitized[name] = target.placement_line

    def _check_type_confusion(
        self,
        name: str,
        declared: Optional[ast.TypeRef],
        value: AbstractValue,
        line: int,
    ) -> None:
        """Binding an allocation to a pointer of a *larger* type re-opens
        the overflow even when the placement itself fits: every
        well-typed member write through the pointer can land past the
        allocation (``GradStudent* gs = new (&stud) Student()``)."""
        if declared is None or not declared.is_pointer:
            return
        pointee_size = (
            4  # pointee is itself a pointer
            if declared.pointer_depth > 1
            else self.symbols.sizeof_name(declared.name)
        )
        if pointee_size is None:
            return
        for target in value.targets:
            if target.kind not in ("placement", "heap"):
                continue
            if target.size is not None and target.size < pointee_size:
                self._emit(
                    "PN-TYPE-CONFUSION",
                    Severity.ERROR,
                    (
                        f"pointer '{name}' of type {declared.name}* "
                        f"({pointee_size}-byte pointee) binds a "
                        f"{target.size}-byte allocation of "
                        f"{target.type_name}; well-typed member writes "
                        "reach past the allocation"
                    ),
                    line,
                )
                return

    def _check_sink_value(self, expr: ast.Expr, env: Env, line: int) -> None:
        name = root_name(expr)
        if name is None:
            return
        if name in self._reused_unsanitized:
            self._emit(
                "PN-NO-SANITIZE",
                Severity.WARNING,
                (
                    f"'{name}' exposes a re-used arena that was never "
                    f"sanitized (placement at line "
                    f"{self._reused_unsanitized[name]}); previous contents leak"
                ),
                line,
            )

    # -- expressions -----------------------------------------------------------

    def _eval(self, expr: Optional[ast.Expr], env: Env) -> AbstractValue:
        if expr is None:
            return AbstractValue()
        if isinstance(expr, ast.IntLit):
            return AbstractValue(const=expr.value)
        if isinstance(expr, ast.FloatLit):
            return AbstractValue()
        if isinstance(expr, (ast.StrLit, ast.NullLit)):
            return AbstractValue(const=0 if isinstance(expr, ast.NullLit) else None)
        if isinstance(expr, ast.BoolLit):
            return AbstractValue(const=int(expr.value))
        if isinstance(expr, ast.Name):
            return self._eval_name(expr, env)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, env)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Member):
            base = self._eval(expr.obj, env)
            return AbstractValue(taint=base.taint)
        if isinstance(expr, ast.Index):
            base = self._eval(expr.base, env)
            index = self._eval(expr.index, env)
            return AbstractValue(taint=base.taint | index.taint)
        if isinstance(expr, ast.SizeOf):
            return self._eval_sizeof(expr, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.NewExpr):
            return self._eval_new(expr, env)
        return AbstractValue()

    def _eval_name(self, expr: ast.Name, env: Env) -> AbstractValue:
        value = env.get(expr.ident)
        declared = value.declared
        if declared is not None and declared.is_array and not value.targets:
            # Arrays decay to a pointer at their own storage.
            size = self.symbols.sizeof_type_ref(declared)
            return AbstractValue(
                taint=value.taint,
                targets=frozenset(
                    {
                        PointerTarget(
                            kind="var",
                            type_name=declared.name,
                            size=size,
                            var_name=expr.ident,
                        )
                    }
                ),
                declared=declared,
            )
        return value

    def _eval_unary(self, expr: ast.Unary, env: Env) -> AbstractValue:
        if expr.op == "&":
            name = root_name(expr.operand)
            if isinstance(expr.operand, ast.Name) and name is not None:
                declared = env.get(name).declared
                size = (
                    self.symbols.sizeof_type_ref(declared)
                    if declared is not None
                    else None
                )
                type_name = declared.name if declared is not None else ""
                return AbstractValue(
                    targets=frozenset(
                        {
                            PointerTarget(
                                kind="var",
                                type_name=type_name,
                                size=size,
                                var_name=name,
                            )
                        }
                    )
                )
            inner = self._eval(expr.operand, env)
            return AbstractValue(taint=inner.taint)
        inner = self._eval(expr.operand, env)
        if expr.op in ("++", "post++"):
            const = inner.const_int + 1 if inner.const_int is not None else TOP
            result = AbstractValue(taint=inner.taint, const=const, declared=inner.declared)
            if isinstance(expr.operand, ast.Name):
                env.set(expr.operand.ident, result)
            return result
        if expr.op in ("--", "post--"):
            const = inner.const_int - 1 if inner.const_int is not None else TOP
            result = AbstractValue(taint=inner.taint, const=const, declared=inner.declared)
            if isinstance(expr.operand, ast.Name):
                env.set(expr.operand.ident, result)
            return result
        if expr.op == "-":
            const = -inner.const_int if inner.const_int is not None else None
            return AbstractValue(taint=inner.taint, const=const)
        if expr.op == "!":
            const = (
                int(inner.const_int == 0) if inner.const_int is not None else None
            )
            return AbstractValue(taint=inner.taint, const=const)
        # '*' dereference and others: propagate taint.
        return AbstractValue(taint=inner.taint, targets=inner.targets)

    _FOLDABLE = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a // b if b else None,
        "%": lambda a, b: a % b if b else None,
        "<": lambda a, b: int(a < b),
        ">": lambda a, b: int(a > b),
        "<=": lambda a, b: int(a <= b),
        ">=": lambda a, b: int(a >= b),
        "==": lambda a, b: int(a == b),
        "!=": lambda a, b: int(a != b),
        "&&": lambda a, b: int(bool(a) and bool(b)),
        "||": lambda a, b: int(bool(a) or bool(b)),
    }

    def _eval_binary(self, expr: ast.Binary, env: Env) -> AbstractValue:
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        const = None
        if (
            left.const_int is not None
            and right.const_int is not None
            and expr.op in self._FOLDABLE
        ):
            const = self._FOLDABLE[expr.op](left.const_int, right.const_int)
        return AbstractValue(taint=left.taint | right.taint, const=const)

    def _eval_sizeof(self, expr: ast.SizeOf, env: Env) -> AbstractValue:
        if expr.type_name is not None:
            return AbstractValue(const=self.symbols.sizeof_name(expr.type_name))
        if isinstance(expr.expr, ast.Name):
            declared = env.get(expr.expr.ident).declared
            if declared is not None:
                return AbstractValue(const=self.symbols.sizeof_type_ref(declared))
        return AbstractValue()

    def _eval_call(self, expr: ast.Call, env: Env) -> AbstractValue:
        arg_values = [self._eval(arg, env) for arg in expr.args]
        if expr.receiver is not None:
            self._eval(expr.receiver, env)
        inlined = self._try_inline(expr, arg_values)
        if inlined is not None:
            return inlined
        # Output sinks: leak check on every pointer argument.
        if expr.func in SINK_CALLS:
            for arg in expr.args:
                self._check_sink_value(arg, env, expr.line)
            return AbstractValue()
        if expr.func in SANITIZE_CALLS and expr.args:
            name = root_name(expr.args[0])
            if name is not None and self._sanitize_covers(expr, arg_values, env):
                self._arena_states.setdefault(name, _ArenaState()).filled = False
                self._reused_unsanitized.pop(name, None)
            return AbstractValue()
        # Constructor-style call of a known class: Student(3.9, ...) —
        # a value, nothing to track.
        if self.symbols.is_class(expr.func):
            taint = frozenset().union(*(v.taint for v in arg_values)) if arg_values else frozenset()
            return AbstractValue(taint=taint)
        # Any other call may fill the buffers passed to it.
        for arg in expr.args:
            name = root_name(arg)
            if name is None:
                continue
            value = env.get(name)
            is_buffer = (
                (value.declared is not None and (value.declared.is_array or value.declared.is_pointer))
                or bool(value.targets)
            )
            if is_buffer:
                self._arena_states.setdefault(name, _ArenaState()).filled = True
        if expr.func in TAINT_SOURCE_CALLS:
            return AbstractValue(taint=frozenset({f"call:{expr.func}"}))
        taint = frozenset()
        for value in arg_values:
            taint |= value.taint
        return AbstractValue(taint=taint)

    def _sanitize_covers(
        self, expr: ast.Call, arg_values: list, env: Env
    ) -> bool:
        """memset/bzero wipe an arena only when the length provably
        covers the buffer; a partial wipe leaves the upper bytes live."""
        length_index = 1 if expr.func in ("bzero", "explicit_bzero") else 2
        if len(arg_values) <= length_index:
            return True
        length = arg_values[length_index].const_int
        if length is None:
            return True  # unknown length keeps the classic full-wipe reading
        value = env.get(root_name(expr.args[0]))
        buffer_size = (
            self.symbols.sizeof_type_ref(value.declared)
            if value.declared is not None and not value.declared.is_pointer
            else None
        )
        if buffer_size is None:
            sizes = [t.size for t in value.targets if t.size is not None]
            buffer_size = min(sizes) if sizes else None
        return buffer_size is None or length >= buffer_size

    def _try_inline(
        self, expr: ast.Call, arg_values: list
    ) -> Optional[AbstractValue]:
        """Interprocedural step: analyze a program-defined callee with
        the caller's argument facts bound to its parameters.

        This is what turns "placement at a bare pointer" inside a helper
        into a decided verdict: the caller knows the arena the pointer
        refers to.  Depth-bounded; recursion falls back to the opaque
        treatment.
        """
        if not self.interprocedural or expr.receiver is not None:
            return None
        try:
            callee = self.program.function(expr.func)
        except KeyError:
            return None
        if (
            expr.func in self._call_stack
            or len(self._call_stack) >= self.max_inline_depth
        ):
            return None
        callee_env = getattr(self, "_global_env", Env()).copy()
        for param, value in zip(callee.params, arg_values):
            callee_env.set(
                param.name,
                AbstractValue(
                    taint=value.taint,
                    const=value.const,
                    targets=value.targets,
                    declared=param.type,
                ),
            )
        caller_name = self._current_function
        self._call_stack.append(expr.func)
        self._current_function = expr.func
        try:
            self._exec_statement(callee.body, callee_env)
        finally:
            self._call_stack.pop()
            self._current_function = caller_name
        taint = frozenset()
        for value in arg_values:
            taint |= value.taint
        return AbstractValue(taint=taint)

    # -- new expressions ----------------------------------------------------

    def _eval_new(self, expr: ast.NewExpr, env: Env) -> AbstractValue:
        for arg in expr.args:
            self._eval(arg, env)
        if expr.placement is None:
            return self._eval_heap_new(expr, env)
        return self._eval_placement_new(expr, env)

    def _eval_heap_new(self, expr: ast.NewExpr, env: Env) -> AbstractValue:
        if expr.is_array:
            count_value = self._eval(expr.array_count, env)
            element = self.symbols.element_size(expr.type_name)
            size = (
                element * count_value.const_int
                if element is not None and count_value.const_int is not None
                else None
            )
        else:
            size = self.symbols.sizeof_name(expr.type_name)
        target = PointerTarget(kind="heap", type_name=expr.type_name, size=size)
        return AbstractValue(targets=frozenset({target}))

    def _placed_size(self, expr: ast.NewExpr, env: Env) -> tuple[Optional[int], AbstractValue]:
        if expr.is_array:
            count_value = self._eval(expr.array_count, env)
            element = self.symbols.element_size(expr.type_name)
            if element is not None and count_value.const_int is not None:
                return element * count_value.const_int, count_value
            return None, count_value
        return self.symbols.sizeof_name(expr.type_name), AbstractValue()

    def _eval_placement_new(self, expr: ast.NewExpr, env: Env) -> AbstractValue:
        arena_value = self._eval(expr.placement, env)
        placed_size, count_value = self._placed_size(expr, env)

        arena_sizes = [t.size for t in arena_value.targets if t.size is not None]
        arena_known = bool(arena_sizes)
        arena_size = min(arena_sizes) if arena_sizes else None
        arena_names = [t.var_name for t in arena_value.targets if t.var_name]

        oversize = (
            placed_size is not None
            and arena_size is not None
            and placed_size > arena_size
        )
        if oversize:
            self._emit(
                "PN-OVERSIZE",
                Severity.ERROR,
                (
                    f"placement new of {expr.type_name} "
                    f"({placed_size} bytes) into an arena of {arena_size} "
                    "bytes overflows the arena"
                ),
                expr.line,
            )
            self._check_vptr_risk(expr, arena_value, expr.line)
        if expr.is_array and count_value.tainted:
            sources = ", ".join(sorted(count_value.taint))
            self._emit(
                "PN-TAINTED-COUNT",
                Severity.ERROR,
                (
                    f"placement new[] of {expr.type_name} uses an "
                    f"attacker-influenced length ({sources}); size is not "
                    + (
                        f"provably within the {arena_size}-byte arena"
                        if arena_size is not None
                        else "checkable against the arena"
                    )
                ),
                expr.line,
            )
        if not arena_known:
            self._emit(
                "PN-UNKNOWN-ARENA",
                Severity.INFO,
                (
                    "placement address is a bare pointer whose arena size "
                    "cannot be determined (placement new 'just operates on "
                    "an address')"
                ),
                expr.line,
            )
        self._check_alignment(expr, arena_value, placed_size)
        arena_key = (
            arena_names[0]
            if arena_names
            else (root_name(expr.placement) or "")
        )
        self._track_reuse_and_leak(
            expr, arena_value, placed_size, arena_key, env
        )

        target = PointerTarget(
            kind="placement",
            type_name=expr.type_name,
            size=placed_size,
            oversize=oversize,
            placement_line=expr.line,
            var_name=arena_key,
        )
        return AbstractValue(targets=frozenset({target}))

    def _check_vptr_risk(
        self, expr: ast.NewExpr, arena_value: AbstractValue, line: int
    ) -> None:
        placed_poly = self.symbols.is_polymorphic(expr.type_name)
        arena_poly = any(
            self.symbols.is_polymorphic(t.type_name)
            for t in arena_value.targets
            if t.type_name
        )
        if placed_poly or arena_poly:
            self._emit(
                "PN-VPTR-RISK",
                Severity.WARNING,
                (
                    "oversize placement involves polymorphic classes; the "
                    "overflow can rewrite a neighbouring object's vtable "
                    "pointer (subterfuge)"
                ),
                line,
            )

    def _check_alignment(
        self,
        expr: ast.NewExpr,
        arena_value: AbstractValue,
        placed_size: Optional[int],
    ) -> None:
        if expr.is_array:
            return
        decl = self.symbols.class_decl(expr.type_name)
        if decl is None:
            return
        needs_eight = any(field.type.name == "double" for field in decl.fields)
        for target in arena_value.targets:
            if target.kind == "var" and target.type_name in ("char", "short", "int"):
                if needs_eight:
                    self._emit(
                        "PN-MISALIGNED",
                        Severity.INFO,
                        (
                            f"placing {expr.type_name} (8-byte-aligned members) "
                            f"over '{target.var_name}' of type {target.type_name} "
                            "may violate alignment"
                        ),
                        expr.line,
                    )
                    return

    def _track_reuse_and_leak(
        self,
        expr: ast.NewExpr,
        arena_value: AbstractValue,
        placed_size: Optional[int],
        arena_key: str,
        env: Env,
    ) -> None:
        if not arena_key:
            return
        state = self._arena_states.setdefault(arena_key, _ArenaState())
        for target in arena_value.targets:
            # Heap class arenas count as filled: the previous object's
            # state (Listing 22's SSNs) is still there.
            previously_filled = state.filled or (
                target.kind == "heap" and self.symbols.is_class(target.type_name)
            )
            if previously_filled:
                self._reused_unsanitized[arena_key] = expr.line
            if (
                target.kind == "heap"
                and placed_size is not None
                and target.size is not None
                and placed_size < target.size
            ):
                state.shrunk_by_placement = True
                state.placement_line = expr.line


def analyze_source(source: str) -> AnalysisReport:
    """Convenience wrapper: parse + analyze."""
    return PlacementNewDetector.analyze_source(source)

"""The bytecode VM: threaded dispatch over the compiled IR.

:class:`BytecodeVM` subclasses the AST interpreter so setup (globals
installation, symbol/layout sharing), coercions, stores and the whole
construction/placement machinery are literally the same code — the VM
replaces only the execution core: a flat loop indexing an opcode→bound-
method table instead of per-node recursive ``eval``.

Typed loads and stores go through :meth:`AddressSpace.locate`, the
zero-hook vectorized path: when the access lands inside one segment
with the right permission and no observer is registered, the value is
(un)packed straight from the segment's memoryview.  Any other case —
hooks attached (every fuzz oracle attaches one), permission violations,
segment-straddling ranges — falls back to ``AddressSpace.read/write``,
which raises the precise fault and fires the exact events the
interpreter would.

The module also owns the compiled-program cache used by the fuzzing
stack: keyed by source hash + :data:`BYTECODE_VERSION`, with
compilation-failure sentinels so a program that cannot be compiled
(``fallbacks``) or crashes the compiler (``compile_errors``) is decided
once and the caller transparently reruns it on the interpreter.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from typing import Any, Optional, Tuple

from ..analysis.parser import ParseError, parse
from ..cxx.object_model import Instance
from ..cxx.types import (
    BOOL,
    CHAR,
    CHAR_PTR,
    DOUBLE,
    FLOAT,
    FUNC_PTR,
    INT,
    SHORT,
    UINT,
    VOID_PTR,
    ArrayType,
    array_of,
)
from ..errors import ApiMisuseError, ArithmeticFault, SimulatedTimeout
from ..memory.tracker import ArenaOrigin
from ..runtime.machine import Machine
from . import bytecode as bc
from .bytecode import BYTECODE_VERSION, CompiledProgram, UnsupportedConstruct, compile_program
from .interpreter import (
    DEFAULT_STEP_BUDGET,
    FunctionOutcome,
    Interpreter,
    _atoi,
    _divisor_kind,
    _SCALAR_CTYPES,
    run_source,
)
from .values import LValue, Scope, Variable, truthy

__all__ = [
    "BYTECODE_VERSION",
    "BytecodeVM",
    "UnsupportedConstruct",
    "cache_stats",
    "compile_source",
    "compiled_for",
    "reset_cache",
    "run_source_bytecode",
    "source_digest",
]

_I16 = struct.Struct("<h").unpack_from
_I32 = struct.Struct("<i").unpack_from
_U32 = struct.Struct("<I").unpack_from
_F32 = struct.Struct("<f").unpack_from
_F64 = struct.Struct("<d").unpack_from

#: ctype identity -> (width, unpacker) for the vectorized load path.
#: Keyed by id() because the canonical scalars are module singletons;
#: any non-canonical ctype simply misses and takes the slow path.
_FAST_READERS = {
    id(INT): (4, lambda view, off: _I32(view, off)[0]),
    id(UINT): (4, lambda view, off: _U32(view, off)[0]),
    id(SHORT): (2, lambda view, off: _I16(view, off)[0]),
    id(CHAR): (1, lambda view, off: chr(view[off])),
    id(BOOL): (1, lambda view, off: view[off] != 0),
    id(FLOAT): (4, lambda view, off: _F32(view, off)[0]),
    id(DOUBLE): (8, lambda view, off: _F64(view, off)[0]),
    id(VOID_PTR): (4, lambda view, off: _U32(view, off)[0]),
    id(CHAR_PTR): (4, lambda view, off: _U32(view, off)[0]),
    id(FUNC_PTR): (4, lambda view, off: _U32(view, off)[0]),
}


class BytecodeVM(Interpreter):
    """Executes one compiled program on one machine.

    The interpreter remains available on the same instance (inherited
    ``eval``/``_exec``); global initializers run through it so their
    ticks and side effects are identical by construction.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        machine: Optional[Machine] = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ) -> None:
        self.compiled = compiled
        self.program = compiled.program
        self.machine = machine or Machine()
        # Reuse the compiling symbol table: vtable and layout identity
        # must match what the compiler baked into the instructions.
        self.symbols = compiled.symbols
        self.machine.layouts = self.symbols.layout_engine()
        self.step_budget = step_budget
        self.steps = 0
        self.outputs: list = []
        self.stored: list = []
        self.globals = Scope()
        self._global_counter = 0
        self._operands: list = []
        self._ret: Any = None
        self.scope = self.globals
        self._frame = None
        self._handlers = self._bind_handlers()
        self._install_globals()

    # -- dispatch ---------------------------------------------------------

    def _bind_handlers(self) -> list:
        table: list = [None] * bc.N_OPS
        for opcode, name in _HANDLERS:
            table[opcode] = getattr(self, name)
        return table

    def _execute(self, code: list) -> Any:
        handlers = self._handlers
        budget = self.step_budget
        ip = 0
        size = len(code)
        while ip < size:
            op, arg, ticks = code[ip]
            if ticks:
                steps = self.steps + ticks
                if steps > budget:
                    # The interpreter raises on the first over-budget
                    # tick, leaving steps at exactly budget+1.
                    self.steps = budget + 1
                    raise SimulatedTimeout(budget)
                self.steps = steps
            jump = handlers[op](arg)
            if jump is None:
                ip += 1
            elif jump == -1:
                return self._ret
            else:
                ip = jump
        return None

    # -- public API -------------------------------------------------------

    def run(self, function_name: str, *args: Any) -> FunctionOutcome:
        index = self.compiled.function_index.get(function_name)
        if index is None:
            raise KeyError(f"no function '{function_name}'")
        prepared: list = []
        for value in args:
            if isinstance(value, str):
                address = self.machine.heap.allocate(len(value) + 1)
                self.machine.space.write_c_string(address, value)
                prepared.append(address)
            else:
                prepared.append(value)
        function = self.compiled.function_list[index]
        steps_before = self.steps
        return_value, frame_exit = self._call_compiled(function, prepared)
        return FunctionOutcome(
            return_value=return_value,
            frame_exit=frame_exit,
            outputs=self.outputs,
            stored=self.stored,
            steps=self.steps - steps_before,
        )

    # -- call machinery ---------------------------------------------------

    def _call_compiled(self, function, args: list) -> Tuple[Any, Any]:
        scope = self.globals.child()
        caller_sp = self.machine.stack.stack_pointer
        space = self.machine.space
        for (name, type_ref, ctype, pointee), value in zip(function.params, args):
            address = self.machine.stack.push_region(max(ctype.size, 4), alignment=4)
            space.write(address, ctype.encode(value))
            scope.declare(
                Variable(
                    name=name,
                    address=address,
                    type_ref=type_ref,
                    ctype=ctype,
                    pointee_class=pointee,
                    size=ctype.size,
                )
            )
        frame = self.machine.push_frame(function.frame_label)
        saved_scope, saved_frame = self.scope, self._frame
        self.scope, self._frame = scope, frame
        return_value = self._execute(function.code)
        self.scope, self._frame = saved_scope, saved_frame
        frame_exit = self.machine.pop_frame(frame)
        self.machine.stack.pop_to(caller_sp)  # cdecl: caller cleans args
        return return_value, frame_exit

    def _call_method(self, method, address: int, args: list) -> Any:
        if method.field_slots is None:
            raise ApiMisuseError(f"unknown class '{method.class_name}'")
        scope = self.globals.child()
        for name, offset, type_ref, ctype, member_class, size in method.field_slots:
            scope.declare(
                Variable(
                    name=name,
                    address=address + offset,
                    type_ref=type_ref,
                    ctype=ctype,
                    class_def=member_class,
                    size=size,
                )
            )
        frame = self.machine.push_frame(method.frame_label)
        space = self.machine.space
        for (name, type_ref, ctype, pointee), value in zip(method.params, args):
            param_address = frame.local_scalar(ctype, self._unique(f"param:{name}"))
            space.write(param_address, ctype.encode(value))
            scope.declare(
                Variable(
                    name=name,
                    address=param_address,
                    type_ref=type_ref,
                    ctype=ctype,
                    pointee_class=pointee,
                    size=ctype.size,
                )
            )
        saved_scope, saved_frame = self.scope, self._frame
        self.scope, self._frame = scope, frame
        return_value = self._execute(method.code)
        self.scope, self._frame = saved_scope, saved_frame
        self.machine.pop_frame(frame)
        return return_value

    # -- typed memory fast paths ------------------------------------------

    def _fast_read(self, address: int, ctype) -> Any:
        entry = _FAST_READERS.get(id(ctype))
        if entry is not None:
            located = self.machine.space.locate(address, entry[0])
            if located is not None:
                return entry[1](located[0], located[1])
        data = self.machine.space.read(address, ctype.size)
        return ctype.decode(data)

    def _store(self, lvalue: LValue, value: Any) -> None:
        # Same contract as Interpreter._store; the vectorized path only
        # engages when the write is hook-free, in-bounds and permitted —
        # everything else goes through space.write for the precise fault.
        ctype = lvalue.require_scalar()
        data = ctype.encode(self._coerce(ctype, value))
        space = self.machine.space
        located = space.locate(lvalue.address, len(data), writable=True)
        if located is not None:
            view, offset = located
            view[offset : offset + len(data)] = data
        else:
            space.write(lvalue.address, data)

    def _pop_args(self, argc: int) -> list:
        if not argc:
            return []
        operands = self._operands
        args = operands[-argc:]
        del operands[-argc:]
        return args

    # -- opcode handlers --------------------------------------------------

    def _op_push(self, arg):
        self._operands.append(arg)

    def _op_pop(self, arg):
        self._operands.pop()

    def _op_tick(self, arg):
        pass

    def _op_load_name(self, ident):
        variable = self.scope.lookup(ident)
        if variable is None:
            raise ApiMisuseError(f"undefined variable '{ident}'")
        if variable.class_def is not None:
            self._operands.append(variable.address)
            return
        if isinstance(variable.ctype, ArrayType):
            self._operands.append(variable.address)  # decay
            return
        self._operands.append(self._fast_read(variable.address, variable.ctype))

    def _op_lval_name(self, ident):
        variable = self.scope.lookup(ident)
        if variable is None:
            raise ApiMisuseError(f"undefined variable '{ident}'")
        self._operands.append(
            LValue(
                address=variable.address,
                ctype=variable.ctype,
                class_def=variable.class_def,
                declared=variable.type_ref,
            )
        )

    def _member_lvalue(self, base_address, class_def, name):
        if class_def is None:
            raise ApiMisuseError(f"member '{name}' on unknown class")
        layout = self.machine.layouts.layout_of(class_def)
        slot = layout.slot(name)
        member_class = getattr(slot.ctype, "class_def", None)
        if member_class is not None:
            return LValue(address=base_address + slot.offset, class_def=member_class)
        return LValue(address=base_address + slot.offset, ctype=slot.ctype)

    def _op_lval_member_dot(self, name):
        base = self._operands.pop()
        self._operands.append(self._member_lvalue(base.address, base.class_def, name))

    def _op_lval_member_arrow(self, arg):
        name, pointee_ident = arg
        base_address = self._expect_int(self._operands.pop())
        class_def = None
        if pointee_ident is not None:
            variable = self.scope.lookup(pointee_ident)
            if variable is not None:
                class_def = variable.pointee_class
        self._operands.append(self._member_lvalue(base_address, class_def, name))

    def _op_lval_index(self, arg):
        index = self._expect_int(self._operands.pop())
        base = self._operands.pop()
        if base.ctype is not None and isinstance(base.ctype, ArrayType):
            element = base.ctype.element
            self._operands.append(
                LValue(address=base.address + index * element.size, ctype=element)
            )
            return
        if base.declared is not None and base.declared.is_pointer:
            element = _SCALAR_CTYPES.get(base.declared.name) or CHAR
            pointer = self.machine.space.read_pointer(base.address)
            self._operands.append(
                LValue(address=pointer + index * element.size, ctype=element)
            )
            return
        raise ApiMisuseError("cannot index a non-array location")

    def _op_lval_deref(self, arg):
        target = self._expect_int(self._operands.pop())
        self._operands.append(LValue(address=target, ctype=INT))

    def _op_lval_load(self, arg):
        lvalue = self._operands.pop()
        ctype = lvalue.ctype
        if ctype is None:
            self._operands.append(lvalue.address)  # object member: its address
        elif isinstance(ctype, ArrayType):
            self._operands.append(lvalue.address)  # arrays decay
        else:
            self._operands.append(self._fast_read(lvalue.address, ctype))

    def _op_addr_of(self, arg):
        self._operands.append(self._operands.pop().address)

    def _op_store(self, arg):
        lvalue = self._operands.pop()
        value = self._operands.pop()
        self._store(lvalue, value)

    def _op_incdec(self, op):
        lvalue = self._operands.pop()
        ctype = lvalue.require_scalar()
        current = self._fast_read(lvalue.address, ctype)
        delta = 1 if "++" in op else -1
        updated = current + delta
        self._store(lvalue, updated)
        self._operands.append(current if op.startswith("post") else updated)

    def _op_jump(self, target):
        return target

    def _op_jump_if_false(self, target):
        if not truthy(self._operands.pop()):
            return target
        return None

    def _op_ret(self, has_value):
        self._ret = self._operands.pop() if has_value else None
        return -1

    # arithmetic / comparison

    def _op_add(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = operands[-1] + right

    def _op_sub(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = operands[-1] - right

    def _op_mul(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = operands[-1] * right

    def _op_div(self, arg):
        operands = self._operands
        right = operands.pop()
        left = operands[-1]
        if right == 0:
            raise ArithmeticFault(_divisor_kind(left, right) + " division")
        if isinstance(left, int) and isinstance(right, int):
            operands[-1] = int(left / right) if (left < 0) != (right < 0) else left // right
        else:
            operands[-1] = left / right

    def _op_mod(self, arg):
        operands = self._operands
        right = operands.pop()
        if right == 0:
            raise ArithmeticFault(_divisor_kind(operands[-1], right) + " modulo")
        operands[-1] = operands[-1] % right

    def _op_lt(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = int(operands[-1] < right)

    def _op_gt(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = int(operands[-1] > right)

    def _op_le(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = int(operands[-1] <= right)

    def _op_ge(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = int(operands[-1] >= right)

    def _op_eq(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = int(operands[-1] == right)

    def _op_ne(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = int(operands[-1] != right)

    def _op_and(self, arg):
        # Eager like the interpreter: both operands already evaluated.
        operands = self._operands
        right = operands.pop()
        operands[-1] = int(truthy(operands[-1]) and truthy(right))

    def _op_or(self, arg):
        operands = self._operands
        right = operands.pop()
        operands[-1] = int(truthy(operands[-1]) or truthy(right))

    def _op_neg(self, arg):
        operands = self._operands
        operands[-1] = -operands[-1]

    def _op_not(self, arg):
        operands = self._operands
        operands[-1] = int(not truthy(operands[-1]))

    def _op_inv(self, arg):
        operands = self._operands
        operands[-1] = ~self._expect_int(operands[-1])

    def _op_deref_read(self, arg):
        address = self._expect_int(self._operands.pop())
        self._operands.append(self.machine.space.read_int(address))

    def _op_expect_int(self, arg):
        operands = self._operands
        operands[-1] = self._expect_int(operands[-1])

    # scopes and declarations

    def _op_scope_push(self, arg):
        self.scope = self.scope.child()

    def _op_scope_pop(self, arg):
        self.scope = self.scope._parent

    def _op_decl_scalar(self, arg):
        ctype, name, type_ref, has_init, pointee = arg
        init = self._operands.pop() if has_init else None
        if init is not None:
            init = self._coerce(ctype, init)
        address = self._frame.local_scalar(ctype, self._unique(name), init=init)
        self.scope.declare(
            Variable(
                name=name,
                address=address,
                type_ref=type_ref,
                ctype=ctype,
                pointee_class=pointee,
                size=ctype.size,
            )
        )

    def _op_decl_array(self, arg):
        element, name, type_ref = arg
        count = self._expect_int(self._operands.pop())
        view = self._frame.local_array(element, count, self._unique(name))
        self.scope.declare(
            Variable(
                name=name,
                address=view.address,
                type_ref=type_ref,
                ctype=array_of(element, count),
                size=element.size * count,
            )
        )

    def _op_decl_object(self, arg):
        class_def, name, type_ref = arg
        instance = self._frame.local_object(class_def, self._unique(name))
        self.scope.declare(
            Variable(
                name=name,
                address=instance.address,
                type_ref=type_ref,
                class_def=class_def,
                size=instance.size,
            )
        )

    def _op_obj_construct(self, arg):
        class_def, name, argc = arg
        args = self._pop_args(argc)
        variable = self.scope.lookup(name)
        self._construct(class_def, variable.address, args)

    def _op_obj_copy(self, name):
        source = self._operands.pop()
        if isinstance(source, int):
            variable = self.scope.lookup(name)
            data = self.machine.space.read(source, variable.size)
            self.machine.space.write(variable.address, data)

    # statements

    def _op_cin_read(self, arg):
        lvalue = self._operands.pop()
        ctype = lvalue.require_scalar()
        if isinstance(ctype, (type(DOUBLE), type(FLOAT))) and ctype in (DOUBLE, FLOAT):
            token: Any = self.machine.stdin.read_double()
        else:
            token = self.machine.stdin.read_int()
        self._store(lvalue, token)

    def _op_cout(self, arg):
        self.outputs.append(self._operands.pop())

    def _op_delete(self, arg):
        address = self._operands.pop()
        if address:
            self.machine.tracker.mark_freed(address)
            self.machine.heap.free(address)

    def _op_raise(self, arg):
        exc_class, message = arg
        raise exc_class(message)

    # calls

    def _op_call(self, arg):
        index, argc = arg
        args = self._pop_args(argc)
        value, _ = self._call_compiled(self.compiled.function_list[index], args)
        self._operands.append(value)

    def _op_recv_name(self, arg):
        ident, func = arg
        variable = self.scope.lookup(ident)
        if variable is not None:
            if variable.class_def is not None:
                self._operands.append((variable.address, variable.class_def.name))
                return
            if variable.pointee_class is not None:
                address = self.machine.space.read_pointer(variable.address)
                self._operands.append((address, variable.pointee_class.name))
                return
        # General case: the interpreter evaluates the name (one tick),
        # coerces it to an address, and then fails to type the receiver.
        self._tick()
        if variable is None:
            raise ApiMisuseError(f"undefined variable '{ident}'")
        if isinstance(variable.ctype, ArrayType):
            value: Any = variable.address
        else:
            value = self._fast_read(variable.address, variable.ctype)
        self._expect_int(value)
        raise ApiMisuseError(f"cannot type method receiver for '{func}'")

    def _op_recv_value(self, func):
        self._expect_int(self._operands.pop())
        raise ApiMisuseError(f"cannot type method receiver for '{func}'")

    def _op_method_call(self, arg):
        func, argc = arg
        args = self._pop_args(argc)
        address, class_name = self._operands.pop()
        method = self.compiled.methods.get((class_name, func))
        if method is not None:
            self._operands.append(self._call_method(method, address, args))
            return
        lowered = self._class_for(class_name)
        if lowered is not None and func in lowered.virtual_slot_order():
            instance = Instance(self.machine, lowered, address)
            result = self.machine.virtual_call(instance, func, *args)
            self._operands.append(result.return_value)
            return
        raise ApiMisuseError(f"class {class_name} has no method '{func}'")

    # builtins

    def _op_noop_call(self, arg):
        argc, event = arg
        if argc:
            del self._operands[-argc:]
        self.machine.record_event(event)
        self._operands.append(0)

    def _op_strncpy(self, arg):
        operands = self._operands
        count = operands.pop()
        source = operands.pop()
        dest = operands.pop()
        text = source if isinstance(source, str) else self.machine.space.read_c_string(source)
        self.machine.space.strncpy(dest, text, count)
        operands.append(dest)

    def _op_strcpy(self, arg):
        operands = self._operands
        source = operands.pop()
        dest = operands.pop()
        text = source if isinstance(source, str) else self.machine.space.read_c_string(source)
        self.machine.space.write_c_string(dest, text)  # unbounded!
        operands.append(dest)

    def _op_memset(self, arg):
        operands = self._operands
        count = operands.pop()
        byte = operands.pop() & 0xFF
        dest = operands.pop()
        self.machine.space.fill(dest, count, byte)
        operands.append(dest)

    def _op_readfile(self, arg):
        operands = self._operands
        count = operands.pop()
        dest = operands.pop()
        path = operands.pop()
        if isinstance(path, int):
            path = self.machine.space.read_c_string(path)
        data = self.machine.files.open(path).read(count)
        self.machine.space.write(dest, data.ljust(count, b"\x00")[:count])
        operands.append(len(data))

    def _op_store_bytes(self, arg):
        address = self._operands.pop()
        record = self.machine.tracker.lookup(address)
        length = record.true_size if record is not None else 256
        segment = self.machine.space.find_segment(address)
        if segment is not None:
            length = min(length, segment.end - address)
        data = self.machine.space.read(address, max(length, 0))
        self.stored.append((address, data))
        self.machine.record_event(f"store({address:#010x}, {len(data)}B)")
        self._operands.append(len(data))

    def _op_invoke_ptr(self, arg):
        target = self._operands.pop()
        result = self.machine.call_function_pointer(target)
        self._operands.append(result.return_value)

    def _op_getenv(self, argc):
        if argc:
            del self._operands[-argc:]
        token = self.machine.stdin.read_int()
        self.machine.record_event("getenv()")
        self._operands.append(str(token))

    def _op_atoi(self, arg):
        source = self._operands.pop()
        text = (
            source
            if isinstance(source, str)
            else self.machine.space.read_c_string(self._expect_int(source))
        )
        self._operands.append(_atoi(text))

    def _op_make_tuple(self, argc):
        self._operands.append(tuple(self._pop_args(argc)))

    def _op_sizeof_name(self, ident):
        variable = self.scope.lookup(ident)
        if variable is not None and variable.size:
            self._operands.append(variable.size)
            return
        raise ApiMisuseError("unsupported sizeof operand")

    # new expressions

    def _arena_extent(self, hint: Optional[str], address: int) -> Optional[int]:
        record = self.machine.tracker.lookup(address)
        if record is not None:
            return record.true_size
        if hint is not None:
            variable = self.scope.lookup(hint)
            if (
                variable is not None
                and variable.size
                and variable.address == address
                and not variable.type_ref.is_pointer
            ):
                return variable.size
        return None

    def _op_heap_new_array(self, arg):
        type_name, element, argc = arg
        count = self._operands.pop()
        if argc:
            del self._operands[-argc:]
        size = element.size * count
        address = self.machine.heap.allocate(size)
        self.machine.tracker.record(
            address, size, ArenaOrigin.HEAP_NEW, label=f"{type_name}[{count}]"
        )
        self._operands.append(address)

    def _op_heap_new_class(self, arg):
        class_def, argc = arg
        args = self._pop_args(argc)
        layout = self.machine.layouts.layout_of(class_def)
        address = self.machine.heap.allocate(layout.size)
        self.machine.tracker.record(
            address, layout.size, ArenaOrigin.HEAP_NEW, label=class_def.name
        )
        self._construct(class_def, address, args)
        self._operands.append(address)

    def _op_heap_new_scalar(self, arg):
        type_name, element, argc = arg
        args = self._pop_args(argc)
        address = self.machine.heap.allocate(element.size)
        self.machine.tracker.record(
            address, element.size, ArenaOrigin.HEAP_NEW, label=type_name
        )
        if args:
            self.machine.space.write(address, element.encode(args[0]))
        self._operands.append(address)

    def _op_place_new_array(self, arg):
        type_name, element, argc, hint = arg
        count = self._operands.pop()
        address = self._operands.pop()
        if argc:
            del self._operands[-argc:]
        arena_size = self._arena_extent(hint, address)
        size = (element.size if element else 1) * count
        label = f"{type_name}[{count}]"
        self.machine.tracker.relabel(address, size, label=label)
        self.machine.placement_log.add(
            self._placement_record(address, size, label, arena_size)
        )
        self._operands.append(address)

    def _op_place_new_class(self, arg):
        class_def, argc, hint = arg
        address = self._operands.pop()
        args = self._pop_args(argc)
        arena_size = self._arena_extent(hint, address)
        layout = self.machine.layouts.layout_of(class_def)
        self.machine.tracker.relabel(address, layout.size, label=class_def.name)
        self.machine.placement_log.add(
            self._placement_record(address, layout.size, class_def.name, arena_size)
        )
        self._construct(class_def, address, args)
        self._operands.append(address)


_HANDLERS = (
    (bc.PUSH, "_op_push"),
    (bc.POP, "_op_pop"),
    (bc.TICK, "_op_tick"),
    (bc.LOAD_NAME, "_op_load_name"),
    (bc.LVAL_NAME, "_op_lval_name"),
    (bc.LVAL_MEMBER_DOT, "_op_lval_member_dot"),
    (bc.LVAL_MEMBER_ARROW, "_op_lval_member_arrow"),
    (bc.LVAL_INDEX, "_op_lval_index"),
    (bc.LVAL_DEREF, "_op_lval_deref"),
    (bc.LVAL_LOAD, "_op_lval_load"),
    (bc.ADDR_OF, "_op_addr_of"),
    (bc.STORE, "_op_store"),
    (bc.INCDEC, "_op_incdec"),
    (bc.JUMP, "_op_jump"),
    (bc.JUMP_IF_FALSE, "_op_jump_if_false"),
    (bc.RET, "_op_ret"),
    (bc.ADD, "_op_add"),
    (bc.SUB, "_op_sub"),
    (bc.MUL, "_op_mul"),
    (bc.DIV, "_op_div"),
    (bc.MOD, "_op_mod"),
    (bc.LT, "_op_lt"),
    (bc.GT, "_op_gt"),
    (bc.LE, "_op_le"),
    (bc.GE, "_op_ge"),
    (bc.EQ, "_op_eq"),
    (bc.NE, "_op_ne"),
    (bc.AND_, "_op_and"),
    (bc.OR_, "_op_or"),
    (bc.NEG, "_op_neg"),
    (bc.NOT_, "_op_not"),
    (bc.INV, "_op_inv"),
    (bc.DEREF_READ, "_op_deref_read"),
    (bc.EXPECT_INT, "_op_expect_int"),
    (bc.SCOPE_PUSH, "_op_scope_push"),
    (bc.SCOPE_POP, "_op_scope_pop"),
    (bc.DECL_SCALAR, "_op_decl_scalar"),
    (bc.DECL_ARRAY, "_op_decl_array"),
    (bc.DECL_OBJECT, "_op_decl_object"),
    (bc.OBJ_CONSTRUCT, "_op_obj_construct"),
    (bc.OBJ_COPY, "_op_obj_copy"),
    (bc.CIN_READ, "_op_cin_read"),
    (bc.COUT, "_op_cout"),
    (bc.DELETE, "_op_delete"),
    (bc.RAISE, "_op_raise"),
    (bc.CALL, "_op_call"),
    (bc.RECV_NAME, "_op_recv_name"),
    (bc.RECV_VALUE, "_op_recv_value"),
    (bc.METHOD_CALL, "_op_method_call"),
    (bc.NOOP_CALL, "_op_noop_call"),
    (bc.STRNCPY, "_op_strncpy"),
    (bc.STRCPY, "_op_strcpy"),
    (bc.MEMSET, "_op_memset"),
    (bc.READFILE, "_op_readfile"),
    (bc.STORE_BYTES, "_op_store_bytes"),
    (bc.INVOKE_PTR, "_op_invoke_ptr"),
    (bc.GETENV, "_op_getenv"),
    (bc.ATOI, "_op_atoi"),
    (bc.MAKE_TUPLE, "_op_make_tuple"),
    (bc.SIZEOF_NAME, "_op_sizeof_name"),
    (bc.HEAP_NEW_ARRAY, "_op_heap_new_array"),
    (bc.HEAP_NEW_CLASS, "_op_heap_new_class"),
    (bc.HEAP_NEW_SCALAR, "_op_heap_new_scalar"),
    (bc.PLACE_NEW_ARRAY, "_op_place_new_array"),
    (bc.PLACE_NEW_CLASS, "_op_place_new_class"),
)

assert len(_HANDLERS) == bc.N_OPS


# --------------------------------------------------------------------------
# compiled-program cache


def source_digest(source: str) -> str:
    """The content hash compiled programs are cached under."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


_CACHE_CAPACITY = 256
_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_cache_lock = threading.Lock()
_stats = {
    "compiles": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "fallbacks": 0,
    "compile_errors": 0,
}


def compile_source(source: str) -> CompiledProgram:
    """Parse and compile, uncached (raises on any failure)."""
    return compile_program(parse(source))


def compiled_for(source: str) -> Tuple[Optional[CompiledProgram], str]:
    """Fetch or build the compiled program for ``source``.

    Returns ``(compiled, note)``.  ``compiled`` is None when the program
    must run on the interpreter instead; ``note`` says why — empty (a
    parse error the interpreter will reproduce verbatim),
    ``fallback:unsupported``, or ``compile-error:<hash12>`` for an
    unexpected compiler crash.  Failures are cached too, so the
    decision is made once per source.
    """
    key = (source_digest(source), BYTECODE_VERSION)
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            _stats["cache_hits"] += 1
            return cached
        _stats["cache_misses"] += 1
    try:
        entry: Tuple[Optional[CompiledProgram], str] = (compile_source(source), "")
        with _cache_lock:
            _stats["compiles"] += 1
    except ParseError:
        # The interpreter's own parse raises the identical error, so
        # the fallback run reproduces the exact invalid verdict.
        entry = (None, "")
    except UnsupportedConstruct:
        entry = (None, "fallback:unsupported")
        with _cache_lock:
            _stats["fallbacks"] += 1
    except Exception:
        # A compiler bug or resource blow-up (e.g. RecursionError on a
        # pathologically deep mutant): record it, run on the
        # interpreter, and surface the failing source hash upstream.
        entry = (None, f"compile-error:{key[0][:12]}")
        with _cache_lock:
            _stats["compile_errors"] += 1
    with _cache_lock:
        _cache[key] = entry
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
    return entry


def cache_stats() -> dict:
    """Counters for the metrics surfaces (JSON and Prometheus)."""
    with _cache_lock:
        snapshot = dict(_stats)
        snapshot["cache_size"] = len(_cache)
        snapshot["version"] = BYTECODE_VERSION
    return snapshot


def reset_cache() -> None:
    """Clear the cache and counters (tests and benchmarks)."""
    with _cache_lock:
        _cache.clear()
        for counter in _stats:
            _stats[counter] = 0


def run_source_bytecode(
    source: str,
    entry: str = "main",
    args: tuple = (0, 0),
    machine: Optional[Machine] = None,
    stdin: tuple = (),
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> Tuple[Any, FunctionOutcome, str]:
    """Like :func:`run_source` but on the bytecode engine, with a
    transparent interpreter fallback.

    Returns ``(executor, outcome, engine)`` where ``engine`` is the
    engine that actually ran — ``"bytecode"`` or ``"ast"``.
    """
    compiled, _note = compiled_for(source)
    if compiled is None:
        interpreter, outcome = run_source(
            source, entry=entry, args=args, machine=machine, stdin=stdin,
            step_budget=step_budget,
        )
        return interpreter, outcome, "ast"
    vm = BytecodeVM(compiled, machine=machine, step_budget=step_budget)
    if stdin:
        vm.machine.stdin.feed(*stdin)
    outcome = vm.run(entry, *args)
    return vm, outcome, "bytecode"

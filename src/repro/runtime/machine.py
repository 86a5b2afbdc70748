"""The simulated process: address space, loader, call stack, dispatch.

:class:`Machine` ties every substrate together and satisfies the
``NewContext`` / ``ObjectContext`` protocols, so placement new, object
field access, frame management and control transfers all operate on the
same bytes.  One machine == one victim process; attack scenarios
construct a machine, script the attacker's inputs, run the victim code
and inspect the outcome.
"""

from __future__ import annotations

from typing import Any, Optional

from .._record import record
from ..core.placement import PlacementAuditLog
from ..cxx.classdef import ClassDef
from ..cxx.layout import LayoutEngine
from ..cxx.object_model import CArrayView, Instance
from ..cxx.text import TextImage
from ..cxx.types import CType
from ..cxx.vtable import VTableBuilder
from ..errors import ApiMisuseError, SegmentationFault, StackSmashingDetected
from ..memory.address_space import AddressSpace
from ..memory.alignment import align_up
from ..memory.encoding import POINTER_SIZE
from ..memory.heap import HeapAllocator
from ..memory.segments import SegmentKind
from ..memory.stack import StackRegion
from ..memory.tracker import AllocationTracker, ArenaOrigin
from . import shellcode as shellcode_mod
from .canary import CanaryPolicy, CanarySource
from .control_flow import ExecutionKind, ExecutionResult, FrameExit
from .frames import INITIAL_FRAME_POINTER, CallFrame, FrameSlots
from .functions import CALLER_SYMBOL, install_standard_library
from .io import FileSystem, SimulatedStdin


@record(frozen=True)
class MachineConfig:
    """Compile-time/runtime hardening knobs of the victim process."""

    canary_policy: CanaryPolicy = CanaryPolicy.NONE
    canary_seed: Optional[int] = 1337
    save_frame_pointer: bool = True
    nx_stack: bool = False
    nx_heap: bool = False
    #: Fault on misaligned typed access (SIGBUS), as strict targets do;
    #: the paper's x86 testbed is permissive, hence the default.
    strict_alignment: bool = False


@record
class GlobalVar:
    """One data/bss global: where it lives and how to read it."""

    name: str
    address: int
    size: int
    segment: SegmentKind
    ctype: Optional[CType] = None
    class_def: Optional[ClassDef] = None


class Machine:
    """One simulated victim process."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.space = AddressSpace(
            nx_stack=self.config.nx_stack,
            nx_heap=self.config.nx_heap,
            strict_alignment=self.config.strict_alignment,
        )
        self.layouts = LayoutEngine()
        self.text = TextImage(self.space)
        self.vtables = VTableBuilder(self.text)
        self.heap = HeapAllocator(self.space)
        self.stack = StackRegion(self.space)
        self.tracker = AllocationTracker()
        self.placement_log = PlacementAuditLog()
        self.canaries = CanarySource(
            self.config.canary_policy, seed=self.config.canary_seed
        )
        self.stdin = SimulatedStdin()
        self.files = FileSystem()
        #: Optional MemoryEventTap; writers that install vptrs announce
        #: the slot through it so later tampering is distinguishable.
        self.event_tap = None
        #: Optional shadow call stack (:mod:`repro.defenses.shadow_stack`).
        #: When set, every push_frame records the frame's return address
        #: in protected storage and every pop_frame verifies it — the
        #: machine-integrated equivalent of a hardware shadow stack.
        self.call_shadow = None
        self.events: list[str] = []
        self.syscalls: list[str] = []
        self._globals: dict[str, GlobalVar] = {}
        data = self.space.segment(SegmentKind.DATA)
        bss = self.space.segment(SegmentKind.BSS)
        self._cursors = {SegmentKind.DATA: data.base, SegmentKind.BSS: bss.base}
        install_standard_library(self)

    # -- events ---------------------------------------------------------------

    def record_event(self, message: str) -> None:
        """Append to the process's observable-behaviour log."""
        self.events.append(message)

    @property
    def shell_spawned(self) -> bool:
        """Did any transfer end in a shell? (the attacker's usual goal)"""
        return "spawn_shell" in self.syscalls

    # -- globals (data/bss) -------------------------------------------------

    def _reserve_static(
        self, size: int, alignment: int, segment: SegmentKind
    ) -> int:
        if segment not in (SegmentKind.DATA, SegmentKind.BSS):
            raise ApiMisuseError(f"globals live in data or bss, not {segment}")
        address = align_up(self._cursors[segment], alignment)
        seg = self.space.segment(segment)
        if address + size > seg.end:
            raise ApiMisuseError(f"{segment.value} segment exhausted")
        self._cursors[segment] = address + size
        return address

    def static_object(
        self,
        class_def: ClassDef,
        name: str,
        segment: SegmentKind = SegmentKind.BSS,
    ) -> Instance:
        """Declare a global object (storage only; construction is the
        program's job, matching C++ where it runs at a definite time)."""
        layout = self.layouts.layout_of(class_def)
        address = self._reserve_static(layout.size, layout.alignment, segment)
        self._globals[name] = GlobalVar(
            name=name,
            address=address,
            size=layout.size,
            segment=segment,
            class_def=class_def,
        )
        self.tracker.record(address, layout.size, ArenaOrigin.STATIC, label=name)
        return Instance(self, class_def, address)

    def static_scalar(
        self,
        ctype: CType,
        name: str,
        init: Any = None,
        segment: Optional[SegmentKind] = None,
    ) -> GlobalVar:
        """Declare a global scalar; initialized ones go to data, others
        to bss, matching the ELF convention the paper cites."""
        if segment is None:
            segment = SegmentKind.DATA if init is not None else SegmentKind.BSS
        address = self._reserve_static(ctype.size, ctype.alignment, segment)
        var = GlobalVar(
            name=name, address=address, size=ctype.size, segment=segment, ctype=ctype
        )
        self._globals[name] = var
        if init is not None:
            self.space.write(address, ctype.encode(init))
        return var

    def static_array(
        self,
        element: CType,
        count: int,
        name: str,
        segment: SegmentKind = SegmentKind.BSS,
    ) -> CArrayView:
        """Declare a global array."""
        if count <= 0:
            raise ApiMisuseError(f"array length must be positive, got {count}")
        size = element.size * count
        address = self._reserve_static(size, element.alignment, segment)
        self._globals[name] = GlobalVar(
            name=name, address=address, size=size, segment=segment, ctype=element
        )
        return CArrayView(self, element, count, address)

    def global_var(self, name: str) -> GlobalVar:
        """Look up a declared global."""
        try:
            return self._globals[name]
        except KeyError:
            raise ApiMisuseError(f"no global named '{name}'") from None

    def read_global(self, name: str) -> Any:
        """Decode a scalar global's current value."""
        var = self.global_var(name)
        if var.ctype is None:
            raise ApiMisuseError(f"global '{name}' is an object, not a scalar")
        return var.ctype.decode(self.space.read(var.address, var.ctype.size))

    def write_global(self, name: str, value: Any) -> None:
        """Encode a value into a scalar global."""
        var = self.global_var(name)
        if var.ctype is None:
            raise ApiMisuseError(f"global '{name}' is an object, not a scalar")
        self.space.write(var.address, var.ctype.encode(value))

    # -- typed views ---------------------------------------------------------

    def sizeof(self, class_def: ClassDef) -> int:
        """``sizeof`` through the layout engine."""
        return self.layouts.sizeof(class_def)

    # -- frames -----------------------------------------------------------

    def push_frame(self, name: str) -> CallFrame:
        """Simulate ``call name``: lay down ret addr, saved FP, canary.

        The fixed words are packed contiguously — [canary][saved FP]
        [return address] from low to high — and the *lowest* of them is
        placed on an 8-byte boundary, so an 8-aligned local object sits
        flush against them.  That adjacency is the paper's Listing 13
        index arithmetic: overflowing word *i* of the object hits fixed
        slot *i* with no gap.
        """
        from ..memory.alignment import align_down

        saved_sp = self.stack.stack_pointer
        caller = self.text.function_named(CALLER_SYMBOL)
        assert caller is not None
        fixed_words = 1
        if self.config.save_frame_pointer:
            fixed_words += 1
        if self.canaries.policy.enabled:
            fixed_words += 1
        block_base = align_down(
            self.stack.stack_pointer - fixed_words * POINTER_SIZE, 8
        )
        self.stack.reserve_to(block_base)
        cursor = block_base
        canary_slot: Optional[int] = None
        canary_value: Optional[int] = None
        if self.canaries.policy.enabled:
            canary_value = self.canaries.value
            canary_slot = cursor
            self.space.write_int(
                canary_slot, canary_value, width=POINTER_SIZE, signed=False
            )
            cursor += POINTER_SIZE
        fp_slot: Optional[int] = None
        if self.config.save_frame_pointer:
            fp_slot = cursor
            self.space.write_pointer(fp_slot, INITIAL_FRAME_POINTER)
            cursor += POINTER_SIZE
        return_slot = cursor
        self.space.write_pointer(return_slot, caller.address)
        slots = FrameSlots(
            return_slot=return_slot, fp_slot=fp_slot, canary_slot=canary_slot
        )
        frame = CallFrame(
            machine=self,
            name=name,
            slots=slots,
            original_return=caller.address,
            saved_fp=INITIAL_FRAME_POINTER,
            saved_sp=saved_sp,
            canary_value=canary_value,
        )
        if self.call_shadow is not None:
            self.call_shadow.record_call(frame)
        return frame

    def pop_frame(self, frame: CallFrame) -> FrameExit:
        """Simulate the epilogue + ``ret``.

        Order matches gcc: the stack-protector check runs *first* (and
        aborts via :class:`StackSmashingDetected`), then control
        transfers to whatever the return slot now holds.
        """
        if frame.closed:
            raise ApiMisuseError(f"frame {frame.name} already popped")
        frame.closed = True
        for arena_address in frame._tracked_arenas:
            self.tracker.forget(arena_address)
        canary_intact: Optional[bool] = None
        if frame.canary_value is not None:
            found = frame.read_canary()
            assert found is not None
            canary_intact = found == frame.canary_value
            if not canary_intact:
                self.stack.pop_to(frame.saved_sp)
                self.record_event(f"*** stack smashing detected ***: {frame.name}")
                raise StackSmashingDetected(
                    frame.name, expected=frame.canary_value, found=found
                )
        fp_clobbered = False
        saved_fp = frame.read_saved_fp()
        if saved_fp is not None and saved_fp != frame.saved_fp:
            fp_clobbered = True
        return_target = frame.read_return_address()
        if self.call_shadow is not None:
            # Shadow-stack check runs where the hardware's would: after
            # the canary (gcc epilogue order) and before the transfer.
            self.call_shadow.check_return(frame, return_target)
        self.stack.pop_to(frame.saved_sp)
        if return_target == frame.original_return:
            return FrameExit(
                function=frame.name,
                normal=True,
                returned_to=return_target,
                original_return=frame.original_return,
                canary_intact=canary_intact,
                fp_clobbered=fp_clobbered,
            )
        execution = self.execute_at(return_target)
        return FrameExit(
            function=frame.name,
            normal=False,
            returned_to=return_target,
            original_return=frame.original_return,
            canary_intact=canary_intact,
            fp_clobbered=fp_clobbered,
            execution=execution,
        )

    # -- control transfers ------------------------------------------------------

    def execute_at(self, address: int, *args: Any) -> ExecutionResult:
        """Transfer control to an arbitrary address.

        Resolution order mirrors hardware: a registered function entry
        executes natively; otherwise the bytes at ``address`` are fetched
        and interpreted, subject to mapping and NX checks.
        """
        entry = self.text.function_at(address)
        if entry is not None:
            value = entry.callable(self, *args)
            return ExecutionResult(
                address=address,
                kind=ExecutionKind.NATIVE,
                function_name=entry.name,
                privileged=entry.privileged,
                return_value=value,
            )
        segment = self.space.find_segment(address)
        if segment is not None and segment.kind is SegmentKind.TEXT:
            # Inside text but not at a function entry: decodes garbage.
            raise SegmentationFault(
                address, "execute", "jump into the middle of text"
            )
        result = shellcode_mod.interpret(self.space, address, enforce_nx=True)
        self.syscalls.extend(result.syscalls)
        for name in result.syscalls:
            self.record_event(f"shellcode syscall: {name}")
        return ExecutionResult(
            address=address, kind=ExecutionKind.SHELLCODE, shellcode=result
        )

    def virtual_call(self, instance: Instance, method: str, *args: Any) -> ExecutionResult:
        """Dispatch ``instance->method(args...)`` through memory.

        Every step a compiled vcall performs is done on simulated bytes:
        load the vptr from the object, index the table, load the slot,
        jump.  A corrupted vptr therefore behaves exactly as in
        Section 3.8.2 — attacker-chosen methods run, or the process
        crashes on a wild pointer.
        """
        slot_index = self.vtables.slot_index(instance.class_def, method)
        layout = instance.layout
        vptr = self.space.read_pointer(
            instance.address + layout.primary_vptr_offset
        )
        slot_address = vptr + slot_index * POINTER_SIZE
        target = self.space.read_pointer(slot_address)
        return self.execute_at(target, instance, *args)

    def call_function_pointer(self, address: int, *args: Any) -> ExecutionResult:
        """Invoke a function pointer value (Listing 17's call site)."""
        return self.execute_at(address, *args)

    # -- diagnostics ------------------------------------------------------------

    def memory_map(self) -> str:
        """The process's memory map."""
        return self.space.describe()

"""Tests for the machine: frames, canaries, control transfers, shellcode."""

import pytest

from repro.core import placement_new
from repro.cxx import DOUBLE, INT
from repro.errors import (
    IllegalInstruction,
    NonExecutableMemory,
    SegmentationFault,
    StackSmashingDetected,
)
from repro.memory import SegmentKind
from repro.runtime import (
    CanaryPolicy,
    ExecutionKind,
    Machine,
    MachineConfig,
    assemble,
    interpret,
    password_file,
    spawn_shell_payload,
)
from repro.workloads import set_ssn


class TestGlobals:
    def test_initialized_scalar_goes_to_data(self, machine):
        var = machine.static_scalar(INT, "count", init=5)
        assert var.segment is SegmentKind.DATA
        assert machine.read_global("count") == 5

    def test_uninitialized_scalar_goes_to_bss(self, machine):
        var = machine.static_scalar(INT, "n")
        assert var.segment is SegmentKind.BSS
        assert machine.read_global("n") == 0  # bss is zeroed

    def test_write_global(self, machine):
        machine.static_scalar(INT, "n")
        machine.write_global("n", 42)
        assert machine.read_global("n") == 42

    def test_globals_allocated_in_order(self, machine, student_classes):
        student, _ = student_classes
        a = machine.static_object(student, "a")
        b = machine.static_object(student, "b")
        assert b.address == a.address + 16

    def test_unknown_global_rejected(self, machine):
        from repro.errors import ApiMisuseError

        with pytest.raises(ApiMisuseError):
            machine.global_var("ghost")


class TestFrames:
    def test_normal_return(self, machine, student_classes):
        student, _ = student_classes
        frame = machine.push_frame("f")
        frame.local_object(student, "stud")
        exit_ = machine.pop_frame(frame)
        assert exit_.normal
        assert not exit_.hijacked

    def test_frame_restores_stack_pointer(self, machine):
        sp = machine.stack.stack_pointer
        frame = machine.push_frame("f")
        frame.local_scalar(INT, "x")
        machine.pop_frame(frame)
        assert machine.stack.stack_pointer == sp

    def test_locals_first_declared_higher(self, machine):
        frame = machine.push_frame("f")
        a = frame.local_scalar(INT, "a")
        b = frame.local_scalar(INT, "b")
        machine.pop_frame(frame)
        assert a > b

    def test_duplicate_local_rejected(self, machine):
        from repro.errors import ApiMisuseError

        frame = machine.push_frame("f")
        frame.local_scalar(INT, "x")
        with pytest.raises(ApiMisuseError):
            frame.local_scalar(INT, "x")
        machine.pop_frame(frame)

    def test_double_pop_rejected(self, machine):
        from repro.errors import ApiMisuseError

        frame = machine.push_frame("f")
        machine.pop_frame(frame)
        with pytest.raises(ApiMisuseError):
            machine.pop_frame(frame)

    def test_frame_context_manager(self, machine):
        with machine.frame("f") as frame:
            frame.local_scalar(INT, "x", init=7)
        assert frame.exit.normal

    def test_fixed_slot_order(self, guarded_machine):
        frame = guarded_machine.push_frame("f")
        assert frame.slots.canary_slot < frame.slots.fp_slot < frame.slots.return_slot
        assert frame.slots.canary_slot % 8 == 0
        guarded_machine.pop_frame(frame)

    def test_paper_index_mapping(self, student_classes):
        """Listing 13's table: which ssn[i] hits the return slot."""
        student, grad = student_classes
        cases = [
            (False, CanaryPolicy.NONE, 0),
            (True, CanaryPolicy.NONE, 1),
            (True, CanaryPolicy.RANDOM, 2),
        ]
        for save_fp, policy, ret_index in cases:
            machine = Machine(
                MachineConfig(canary_policy=policy, save_frame_pointer=save_fp)
            )
            frame = machine.push_frame("addStudent")
            stud = frame.local_object(student, "stud")
            gs = placement_new(machine, stud, grad)
            assert (
                gs.element_address("ssn", ret_index) == frame.slots.return_slot
            ), (save_fp, policy)


@pytest.fixture(
    params=[CanaryPolicy.NONE, CanaryPolicy.RANDOM], ids=["no-canary", "canary"]
)
def open_frame(request):
    machine = Machine(MachineConfig(canary_policy=request.param))
    frame = machine.push_frame("f")
    yield frame
    machine.pop_frame(frame)


class TestListing15Padding:
    """``CallFrame.gap_above``: the padding an upward overflow of a local
    crosses before it reaches the variable declared above it."""

    def test_first_declared_highest(self, open_frame):
        a = open_frame.local_scalar(INT, "a")
        b = open_frame.local_scalar(INT, "b")
        assert a > b

    def test_gap_above_accounts_padding(self, open_frame):
        # int n; Student stud;  — n, declared first, sits highest and
        # flush under the frame's fixed slots; stud is 8-aligned,
        # creating the Listing 15 padding hole above it.
        n = open_frame.local_scalar(INT, "n")
        stud = open_frame.local_array(DOUBLE, 2, "stud")
        assert n > stud.address
        assert open_frame.gap_above("stud") == 4
        assert open_frame.gap_above("n") == 0

    def test_unknown_local_rejected(self, open_frame):
        from repro.errors import ApiMisuseError

        with pytest.raises(ApiMisuseError):
            open_frame.gap_above("ghost")


class TestCanary:
    def test_smash_detected_on_return(self, guarded_machine, student_classes):
        student, grad = student_classes
        frame = guarded_machine.push_frame("addStudent")
        stud = frame.local_object(student, "stud")
        gs = placement_new(guarded_machine, stud, grad)
        set_ssn(gs, 1, 2, 3)  # tramples canary, FP, ret
        with pytest.raises(StackSmashingDetected):
            guarded_machine.pop_frame(frame)

    def test_intact_canary_returns_normally(self, guarded_machine, student_classes):
        student, grad = student_classes
        frame = guarded_machine.push_frame("addStudent")
        stud = frame.local_object(student, "stud")
        placement_new(guarded_machine, stud, grad)
        exit_ = guarded_machine.pop_frame(frame)
        assert exit_.normal and exit_.canary_intact

    def test_selective_overwrite_evades_canary(
        self, guarded_machine, student_classes
    ):
        """Section 5.2's experiment: skip the canary, rewrite only ret."""
        student, grad = student_classes
        target = guarded_machine.text.function_named("system").address
        frame = guarded_machine.push_frame("addStudent")
        stud = frame.local_object(student, "stud")
        gs = placement_new(guarded_machine, stud, grad)
        gs.set_element("ssn", 2, target)  # only the return slot
        exit_ = guarded_machine.pop_frame(frame)
        assert exit_.hijacked
        assert exit_.canary_intact
        assert exit_.execution.function_name == "system"

    def test_terminator_canary_value(self):
        machine = Machine(MachineConfig(canary_policy=CanaryPolicy.TERMINATOR))
        assert machine.canaries.value == 0x000AFF0D

    def test_random_canary_differs_across_seeds(self):
        a = Machine(MachineConfig(canary_policy=CanaryPolicy.RANDOM, canary_seed=1))
        b = Machine(MachineConfig(canary_policy=CanaryPolicy.RANDOM, canary_seed=2))
        assert a.canaries.value != b.canaries.value


class TestControlTransfers:
    def test_execute_registered_function(self, machine):
        entry = machine.text.function_named("system")
        result = machine.execute_at(entry.address)
        assert result.kind is ExecutionKind.NATIVE
        assert result.function_name == "system"
        assert machine.shell_spawned

    def test_jump_into_text_middle_faults(self, machine):
        entry = machine.text.function_named("system")
        with pytest.raises(SegmentationFault):
            machine.execute_at(entry.address + 2)

    def test_jump_to_unmapped_faults(self, machine):
        with pytest.raises(SegmentationFault):
            machine.execute_at(0x41414141)

    def test_shellcode_on_stack_executes(self, machine):
        payload = spawn_shell_payload()
        address = machine.stack.push_region(len(payload))
        machine.space.write(address, payload)
        result = machine.execute_at(address)
        assert result.kind is ExecutionKind.SHELLCODE
        assert result.spawned_shell
        assert machine.shell_spawned

    def test_nx_stack_blocks_shellcode(self, nx_machine):
        payload = spawn_shell_payload()
        address = nx_machine.stack.push_region(len(payload))
        nx_machine.space.write(address, payload)
        with pytest.raises(NonExecutableMemory):
            nx_machine.execute_at(address)

    def test_garbage_bytes_illegal_instruction(self, machine):
        address = machine.stack.push_region(16)
        machine.space.write(address, b"\x13\x37" * 8)
        with pytest.raises(IllegalInstruction):
            machine.execute_at(address)

    def test_function_pointer_call(self, machine):
        entry = machine.text.function_named("grantAdminAccess")
        result = machine.call_function_pointer(entry.address)
        assert result.privileged
        assert "admin access granted" in machine.events


class TestShellcodeInterpreter:
    def test_nop_sled_then_syscall(self, machine):
        payload = spawn_shell_payload(sled=8)
        address = machine.stack.push_region(len(payload))
        machine.space.write(address, payload)
        # Landing mid-sled still reaches the syscall.
        result = interpret(machine.space, address + 3)
        assert result.spawned_shell

    def test_push_records_values(self, machine):
        payload = assemble(("push", 0xCAFEBABE), "ret")
        address = machine.stack.push_region(len(payload))
        machine.space.write(address, payload)
        result = interpret(machine.space, address)
        assert result.pushed == [0xCAFEBABE]
        assert result.exited

    def test_exit_syscall_stops(self, machine):
        payload = assemble(("syscall", 1), "nop")
        address = machine.stack.push_region(len(payload))
        machine.space.write(address, payload)
        result = interpret(machine.space, address)
        assert result.exited and result.syscalls == ["exit"]

    def test_unknown_syscall_is_illegal(self, machine):
        payload = assemble(("syscall", 99))
        address = machine.stack.push_region(len(payload))
        machine.space.write(address, payload)
        with pytest.raises(IllegalInstruction):
            interpret(machine.space, address)

    def test_assemble_rejects_unknown(self):
        with pytest.raises(ValueError):
            assemble("frobnicate")


class TestIO:
    def test_stdin_script(self, machine):
        machine.stdin.feed(1, 2.5, "abc")
        assert machine.stdin.read_int() == 1
        assert machine.stdin.read_double() == 2.5
        assert machine.stdin.read_string() == "abc"
        assert machine.stdin.remaining == 0

    def test_stdin_exhaustion(self, machine):
        from repro.errors import ApiMisuseError

        with pytest.raises(ApiMisuseError):
            machine.stdin.read_int()

    def test_password_file_contents(self):
        secret = password_file(entries=3)
        assert secret.content.count(b"\n") == 2
        assert b"user00" in secret.content

    def test_filesystem(self, machine):
        from repro.errors import ApiMisuseError

        machine.files.add(password_file())
        assert machine.files.exists("/etc/passwd")
        assert len(machine.files.open("/etc/passwd").read(10)) == 10
        with pytest.raises(ApiMisuseError):
            machine.files.open("/etc/shadow")

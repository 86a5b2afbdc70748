"""Tests for the MiniC++ dynamic executor.

The headline tests run the paper's listings *from source* and observe
the same corruption the hand-built attack scenarios produce — the
dynamic validation of every static finding.
"""

import pytest

from repro.errors import ArithmeticFault, SimulatedTimeout, StackSmashingDetected
from repro.execution import run_source
from repro.memory.encoding import encode_pointer
from repro.runtime import CanaryPolicy, Machine, MachineConfig, password_file
from repro.workloads.corpus import (
    LISTING_11,
    LISTING_12,
    LISTING_13,
    LISTING_15,
    LISTING_19,
    LISTING_21,
    LISTING_22,
    LISTING_23,
)


#: A placement whose size arrives through ``getenv``/``atoi``: the
#: CAPEC-10 taint source the seed generator's taint-source family uses.
ENV_SIZED = (
    "char pool[16];\n"
    "int main(int argc, int argv) {\n"
    '  char *raw = getenv("PAYLOAD_LIMIT");\n'
    "  int n = atoi(raw);\n"
    "  char *buf = new (pool) char[n];\n"
    "  return n;\n"
    "}\n"
)


def _plain_machine():
    return Machine(
        MachineConfig(canary_policy=CanaryPolicy.NONE, save_frame_pointer=True)
    )


def _guarded_machine():
    return Machine(
        MachineConfig(canary_policy=CanaryPolicy.RANDOM, save_frame_pointer=True)
    )


class TestBasics:
    def test_arithmetic_and_return(self):
        _, outcome = run_source(
            "int f(int a, int b) { return a * b + 1; }", entry="f", args=(6, 7)
        )
        assert outcome.return_value == 43

    def test_locals_and_assignment(self):
        _, outcome = run_source(
            "int f() { int x = 5; x = x + 2; return x; }", entry="f", args=()
        )
        assert outcome.return_value == 7

    def test_if_else(self):
        source = "int sign(int x) { if (x > 0) { return 1; } else { return 0; } }"
        assert run_source(source, entry="sign", args=(5,))[1].return_value == 1
        assert run_source(source, entry="sign", args=(-5,))[1].return_value == 0

    def test_while_loop(self):
        _, outcome = run_source(
            "int f(int n) { int s = 0; int i = 0; "
            "while (i < n) { s = s + i; ++i; } return s; }",
            entry="f",
            args=(5,),
        )
        assert outcome.return_value == 10

    def test_for_loop(self):
        _, outcome = run_source(
            "int f() { int s = 0; for (int i = 1; i <= 4; ++i) { s = s + i; } return s; }",
            entry="f",
            args=(),
        )
        assert outcome.return_value == 10

    def test_cin_reads_stdin(self):
        _, outcome = run_source(
            "int f() { int x = 0; cin >> x; return x; }",
            entry="f",
            args=(),
            stdin=(42,),
        )
        assert outcome.return_value == 42

    def test_cout_captures_output(self):
        interp, _ = run_source(
            'void f() { cout << "hello" << 7 << endl; }', entry="f", args=()
        )
        assert interp.outputs == ["hello", 7]

    def test_nested_function_calls(self):
        _, outcome = run_source(
            "int add(int a, int b) { return a + b; }"
            "int f() { return add(add(1, 2), 3); }",
            entry="f",
            args=(),
        )
        assert outcome.return_value == 6

    def test_global_scalar_roundtrip(self):
        _, outcome = run_source(
            "int counter = 10;"
            "int f() { counter = counter + 1; return counter; }",
            entry="f",
            args=(),
        )
        assert outcome.return_value == 11

    def test_class_member_access(self):
        _, outcome = run_source(
            "class P { public: int x, y; };"
            "int f() { P p; p.x = 3; p.y = 4; return p.x + p.y; }",
            entry="f",
            args=(),
        )
        assert outcome.return_value == 7

    def test_heap_new_and_arrow(self):
        _, outcome = run_source(
            "class P { public: int x; };"
            "int f() { P *p = new P(); p->x = 9; return p->x; }",
            entry="f",
            args=(),
        )
        assert outcome.return_value == 9

    def test_sizeof(self):
        _, outcome = run_source(
            "class S { public: double d; int i; };"
            "int f() { return sizeof(S); }",
            entry="f",
            args=(),
        )
        assert outcome.return_value == 16

    @pytest.mark.parametrize("budget", [100, 101, 257, 1_000])
    def test_step_budget_stops_runaway_loop(self, budget):
        with pytest.raises(SimulatedTimeout) as caught:
            run_source(
                "void f() { while (1) { int x = 0; } }",
                entry="f",
                args=(),
                step_budget=budget,
            )
        assert str(caught.value) == (
            f"simulated execution exceeded budget of {budget} steps"
        )

    @pytest.mark.parametrize(
        "expr, operation",
        [
            ("a / b", "integer division"),
            ("a % b", "integer modulo"),
            ("1.5 / 0.0", "float division"),
            ("1.5 % 0.0", "float modulo"),
        ],
    )
    def test_zero_divisor_is_an_arithmetic_fault(self, expr, operation):
        source = f"int f(int a, int b) {{ double q = {expr}; return 1; }}"
        with pytest.raises(ArithmeticFault) as caught:
            run_source(source, entry="f", args=(7, 0))
        assert str(caught.value) == f"arithmetic fault (SIGFPE): {operation} by zero"

    def test_unknown_entry_raises_keyerror(self):
        with pytest.raises(KeyError, match="no function 'nosuch'"):
            run_source("int f() { return 1; }", entry="nosuch", args=())

    def test_string_argument_materialized(self):
        _, outcome = run_source(
            "int f(char *s) { char buf[8]; strncpy(buf, s, 8); return 1; }",
            entry="f",
            args=("hi",),
        )
        assert outcome.return_value == 1


class TestTaintSource:
    """``getenv`` and ``atoi`` read the scripted stdin: the first token
    is the environment value, and a value past the arena overflows it
    without a fault."""

    @pytest.mark.parametrize(
        "stdin, overflows", [((9, 5), False), ((16,), False), ((40,), True)]
    )
    def test_env_token_sizes_the_placement(self, stdin, overflows):
        machine = Machine()
        _, outcome = run_source(ENV_SIZED, machine=machine, stdin=stdin)
        assert outcome.return_value == stdin[0]
        assert machine.events == ["getenv()"]
        overflowing = machine.placement_log.overflowing()
        assert [p.type_name for p in overflowing] == (
            [f"char[{stdin[0]}]"] if overflows else []
        )


class TestListingsFromSource:
    """Execute the actual corpus listings and observe the paper's results."""

    def test_listing11_data_bss_overflow(self):
        interp, _ = run_source(
            LISTING_11.source,
            entry="addStudent",
            args=(False,),
            stdin=(0x11111111, 0x22222222, 777),
        )
        stud2 = interp.globals.lookup("stud2")
        gpa_before = interp.machine.space.read_double(stud2.address)
        assert gpa_before == 3.0
        interp.run("addStudent", True)
        gpa_after = interp.machine.space.read_double(stud2.address)
        year_after = interp.machine.space.read_int(stud2.address + 8)
        assert gpa_after != gpa_before
        assert year_after == 777

    def test_listing12_heap_overflow(self):
        interp, _ = run_source(
            LISTING_12.source, stdin=(0x58585858, 0x59595959, 0x5A5A5A5A)
        )
        name_var = interp.globals.lookup("name")
        name_address = interp.machine.space.read_pointer(name_var.address)
        assert interp.machine.space.read_c_string(name_address) != "abcdefghijklmno"
        assert interp.machine.heap.is_corrupted()

    def test_listing13_hijack_unprotected(self):
        machine = _plain_machine()
        target = machine.text.function_named("system").address
        _, outcome = run_source(
            LISTING_13.source,
            entry="addStudent",
            args=(True,),
            machine=machine,
            stdin=(-1, target, -1),  # FP saved: ssn[1] is the return slot
        )
        assert outcome.frame_exit.hijacked
        assert outcome.frame_exit.execution.function_name == "system"
        assert machine.shell_spawned

    def test_listing13_naive_smash_detected_by_stackguard(self):
        machine = _guarded_machine()
        target = machine.text.function_named("system").address
        with pytest.raises(StackSmashingDetected):
            run_source(
                LISTING_13.source,
                entry="addStudent",
                args=(True,),
                machine=machine,
                stdin=(0x41414141, 0x42424242, target),
            )

    def test_listing13_selective_overwrite_evades_stackguard(self):
        """The §5.2 experiment, executed from the paper's own source."""
        machine = _guarded_machine()
        target = machine.text.function_named("system").address
        _, outcome = run_source(
            LISTING_13.source,
            entry="addStudent",
            args=(True,),
            machine=machine,
            stdin=(-1, -1, target),  # the guard skips canary and FP
        )
        assert outcome.frame_exit.hijacked
        assert outcome.frame_exit.canary_intact
        assert machine.shell_spawned

    def test_listing15_loop_bound_rewritten(self):
        machine = _plain_machine()
        _, outcome = run_source(
            LISTING_15.source,
            entry="addStudent",
            args=(True,),
            machine=machine,
            stdin=(7777,),
        )
        # n was 5; after the overflow the loop ran 7777 times.
        assert outcome.steps > 7777

    def test_listing19_two_step_from_source(self):
        machine = _plain_machine()
        machine.stack.push_region(1024)  # caller frames
        target = machine.text.function_named("system").address
        # Crafted uname: filler up to the return slot, then the target.
        payload = "A" * 68 + encode_pointer(target).decode("latin-1")
        _, outcome = run_source(
            LISTING_19.source,
            entry="sortAndAddUname",
            args=(payload, True, 8),
            machine=machine,
            stdin=(8, -1, 32, -1),  # n_unames=8 passes the check; ssn[1]→32
        )
        assert outcome.frame_exit.hijacked
        assert outcome.frame_exit.execution.function_name == "system"

    def test_listing21_info_leak_from_source(self):
        machine = Machine()
        machine.files.add(password_file())
        interp, _ = run_source(LISTING_21.source, machine=machine)
        _, stored = interp.stored[0][0], interp.stored[0][1]
        assert b"$6$" in stored  # password hashes left in the pool

    def test_listing22_object_leak_from_source(self):
        interp, _ = run_source(LISTING_22.source)
        address, stored = interp.stored[0]
        assert len(stored) == 32  # the GradStudent-sized arena, SSNs and all

    def test_listing23_leak_law_from_source(self):
        interp, _ = run_source(
            LISTING_23.source, entry="addStudents", args=(20,)
        )
        # 10 iterations (i += 2), 16 bytes each.
        assert interp.machine.tracker.leaked_bytes == 160


class TestStaticDynamicAgreement:
    """The detector's verdicts, validated by execution."""

    def test_oversize_finding_matches_observed_overflow(self):
        from repro.analysis import analyze_source

        report = analyze_source(LISTING_11.source)
        assert "PN-OVERSIZE" in report.rules_fired()
        interp, _ = run_source(
            LISTING_11.source,
            entry="addStudent",
            args=(True,),
            stdin=(1, 2, 3),
        )
        # The placement the detector flagged did overflow its arena.
        overflowing = interp.machine.placement_log.overflowing()
        assert overflowing
        assert overflowing[0].type_name == "GradStudent"

    def test_leak_finding_matches_observed_leak(self):
        from repro.analysis import analyze_source

        report = analyze_source(LISTING_23.source)
        assert "PN-LEAK" in report.rules_fired()
        interp, _ = run_source(LISTING_23.source, entry="addStudents", args=(4,))
        assert interp.machine.tracker.leaked_bytes > 0

    def test_safe_program_neither_flags_nor_overflows(self):
        from repro.analysis import Severity, analyze_source
        from repro.workloads.corpus import SAFE_PLACEMENT

        report = analyze_source(SAFE_PLACEMENT.source)
        assert not report.at_least(Severity.WARNING)
        interp, _ = run_source(SAFE_PLACEMENT.source, entry="recycle", args=())
        assert not interp.machine.placement_log.overflowing()

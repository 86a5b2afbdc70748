"""Tests for the differential fuzzer's two oracles and coverage map."""

from repro.fuzz import (
    CoverageMap,
    OracleConfig,
    coverage_keys,
    run_oracles,
    static_verdict,
)
from repro.errors import ParseError, StackSmashingDetected
from repro.fuzz.oracles import dynamic_verdict, run_program
from repro.matrix.sweep import run_program_cell
from repro.memory import MemoryEventTap
from repro.runtime import CanaryPolicy, Machine, MachineConfig
from repro.workloads.generators import generate_program
import random

import pytest


LEAK_VULNERABLE = """\
char pool[128];
void run() {
  readFile("/etc/passwd", pool, 128);
  char* userdata = new (pool) char[128];
  store(userdata);
}
"""

LEAK_SAFE = LEAK_VULNERABLE.replace(
    'readFile("/etc/passwd", pool, 128);',
    'readFile("/etc/passwd", pool, 128);\n  memset(pool, 0, 128);',
)

PARTIAL_MEMSET = LEAK_VULNERABLE.replace(
    'readFile("/etc/passwd", pool, 128);',
    'readFile("/etc/passwd", pool, 128);\n  memset(pool, 0, 64);',
)

CONSTANT_FILL = """\
char pool[64];
void run() {
  memset(pool, 64, 64);
  char* userdata = new (pool) char[64];
  store(userdata);
}
"""

TYPE_CONFUSION = """\
class Student {
  public:
    Student();
};
class GradStudent : public Student {
  public:
    GradStudent();
    int ssn[3];
};
void run() {
  Student stud;
  GradStudent* gs = new (&stud) Student();
  cin >> gs->ssn[0] >> gs->ssn[1] >> gs->ssn[2];
}
"""


class TestStaticOracle:
    def test_leak_program_flagged(self):
        verdict = static_verdict(LEAK_VULNERABLE)
        assert verdict.vulnerable
        assert "PN-NO-SANITIZE" in verdict.rules

    def test_sanitized_leak_program_clean(self):
        verdict = static_verdict(LEAK_SAFE)
        assert not verdict.vulnerable

    def test_partial_memset_still_flagged(self):
        # A memset that covers only half the arena leaves residue; the
        # detector must not treat it as a full sanitize.
        verdict = static_verdict(PARTIAL_MEMSET)
        assert "PN-NO-SANITIZE" in verdict.rules

    def test_type_confusion_binding_flagged(self):
        # The placement itself fits (Student into Student), but binding
        # it to a GradStudent* re-opens the overflow.
        verdict = static_verdict(TYPE_CONFUSION)
        assert "PN-TYPE-CONFUSION" in verdict.error_rules

    def test_unparsable_source_is_none(self):
        assert static_verdict("class {{{") is None


class TestDynamicOracle:
    def test_leak_program_leaks_at_runtime(self):
        entry, verdict = dynamic_verdict(LEAK_VULNERABLE)
        assert entry == "run"
        assert verdict.valid
        assert "leak-detected" in verdict.events
        assert verdict.vulnerable

    def test_sanitized_leak_program_clean_at_runtime(self):
        _, verdict = dynamic_verdict(LEAK_SAFE)
        assert verdict.valid and not verdict.vulnerable

    def test_constant_fill_is_not_a_leak(self):
        # memset(pool, 64, 64) stores nonzero but attacker-constant
        # bytes; only recognizable secret-file content counts as a leak.
        _, verdict = dynamic_verdict(CONSTANT_FILL)
        assert "leak-detected" not in verdict.events

    def test_type_confusion_trips_canary(self):
        _, verdict = dynamic_verdict(TYPE_CONFUSION, stdin=(7, 7, 7))
        assert verdict.vulnerable
        assert verdict.fault == "StackSmashingDetected"

    def test_dos_loop_times_out(self):
        program = generate_program(
            random.Random(3), vulnerable=True, shape="dos-loop"
        )
        _, verdict = dynamic_verdict(program.source, stdin=program.stdin)
        assert "dos-timeout" in verdict.events

    def test_missing_entry_is_invalid(self):
        _, verdict = dynamic_verdict("class Only { public: int x; };")
        assert not verdict.valid
        assert "no runnable entry" in verdict.reason

    def test_stdin_exhaustion_is_invalid_not_divergent(self):
        source = "void run() { int x = 0; cin >> x; }"
        _, verdict = dynamic_verdict(source, config=OracleConfig(stdin=()))
        assert not verdict.valid

    def test_entry_plan_prefers_run_then_main(self):
        source = "void main() { }\nvoid run() { }"
        entry, verdict = dynamic_verdict(source)
        assert entry == "run" and verdict.valid

    def test_entry_plan_synthesizes_scalar_args(self):
        source = "int doubled(int x) { return x + x; }"
        entry, verdict = dynamic_verdict(source)
        assert entry == "doubled" and verdict.valid


class TestRunProgram:
    """The one run harness behind the dynamic oracle and matrix cells."""

    def test_events_are_kept_after_a_fault(self):
        config = MachineConfig(canary_policy=CanaryPolicy.RANDOM)
        run = run_program(TYPE_CONFUSION, lambda: Machine(config), (7, 7, 7))
        assert run.entry == "run"
        assert isinstance(run.fault, StackSmashingDetected)
        assert {"placement-fit", "write:stack"} <= run.events
        assert run.error == ""

    def test_a_fault_keeps_no_machine_alive(self):
        # Reference counting alone must free the machine: a fault that
        # kept its traceback would hold it in a cycle until a full
        # collection, and a fuzz campaign's peak memory would grow.
        import gc
        import weakref

        machines = []

        def make_machine():
            machine = Machine(MachineConfig(canary_policy=CanaryPolicy.RANDOM))
            machines.append(weakref.ref(machine))
            return machine

        gc.disable()
        try:
            run = run_program(TYPE_CONFUSION, make_machine, (7, 7, 7))
            assert run.fault is not None
            del run
            assert machines[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "run",
        [
            lambda source, stdin: dynamic_verdict(source, stdin),
            lambda source, stdin: run_program_cell(source, stdin, "none"),
            lambda source, stdin: run_program_cell(source, stdin, "nx-stack"),
        ],
        ids=["dynamic_verdict", "program_cell-none", "program_cell-nx-stack"],
    )
    def test_a_finished_run_leaves_nothing_to_the_collector(self, run):
        # The event tap and the address space refer to each other; a run
        # that left the tap attached left every machine, segments and
        # all, for the cyclic collector to find.
        import gc

        sources = [
            (LEAK_VULNERABLE, ()),
            (TYPE_CONFUSION, (7, 7, 7)),
            (CONSTANT_FILL, ()),
        ]
        for source, stdin in sources:  # warm the caches first
            run(source, stdin)
        gc.collect()
        gc.disable()
        try:
            for source, stdin in sources:
                run(source, stdin)
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_interpreter_refusal_is_an_error_not_a_fault(self):
        run = run_program("void run() { int x = 0; cin >> x; }", Machine, ())
        assert run.fault is None
        assert run.error == "ApiMisuseError: simulated stdin exhausted"

    def test_no_runnable_entry_is_none_and_builds_no_machine(self):
        def no_machine():
            raise AssertionError("machine built for an unrunnable program")

        assert run_program("class Only { public: int x; };", no_machine, ()) is None

    def test_unparsable_source_raises(self):
        with pytest.raises(ParseError):
            run_program("class {{{", Machine, ())

    def test_matrix_cell_and_oracle_agree_on_the_leak(self):
        for source, vulnerable in ((LEAK_VULNERABLE, True), (LEAK_SAFE, False)):
            cell = run_program_cell(source, (), "none")
            assert cell["succeeded"] is vulnerable
            assert dynamic_verdict(source)[1].vulnerable is vulnerable


class TestObservationAndCoverage:
    def test_agreeing_oracles_no_divergence(self):
        for source in (LEAK_VULNERABLE, LEAK_SAFE):
            observation = run_oracles(source)
            assert observation.divergence_kind is None

    def test_static_only_divergence(self):
        source = """\
char pool[64];
void run() {
  int n = 0;
  cin >> n;
  char* p = new (pool) char[n];
}
"""
        observation = run_oracles(source, stdin=(8,))
        assert observation.divergence_kind == "static-only"

    def test_coverage_keys_mix_rules_and_events(self):
        observation = run_oracles(LEAK_VULNERABLE)
        keys = coverage_keys(observation)
        assert any(key.startswith("rule:") for key in keys)
        assert "event:leak-detected" in keys

    def test_coverage_map_grow_only(self):
        cov = CoverageMap()
        fresh = cov.observe(("rule:A", "event:b"))
        assert set(fresh) == {"rule:A", "event:b"}
        assert cov.observe(("rule:A",)) == ()
        assert cov.sorted_keys() == ("event:b", "rule:A")

    def test_coverage_map_snapshot_restores(self):
        cov = CoverageMap(("rule:A",))
        assert cov.observe(("rule:A", "rule:B")) == ("rule:B",)


class TestMemoryEventTap:
    def test_legit_vptr_install_not_reported(self):
        source = """\
class Acct {
  public:
    virtual int balance() { return 1; }
};
void run() {
  Acct a;
  Acct* p = new (&a) Acct();
}
"""
        _, verdict = dynamic_verdict(source)
        assert "vtable-slot-overwritten" not in verdict.events

    def test_vptr_tamper_reported(self):
        source = """\
class Acct {
  public:
    virtual int balance() { return 1; }
};
void run() {
  Acct a;
  Acct* p = new (&a) Acct();
  char* c = &a;
  cin >> c[0];
}
"""
        _, verdict = dynamic_verdict(source, stdin=(65,))
        assert "vtable-slot-overwritten" in verdict.events

    def test_tap_records_segment_writes(self):
        machine = Machine()
        tap = MemoryEventTap(machine.space)
        machine.space.add_access_hook(tap)
        from repro.cxx.types import INT

        frame = machine.push_frame("f")
        local = frame.local_scalar(INT, "x")
        machine.space.write(local, b"\x01")
        assert "write:stack" in tap.kinds

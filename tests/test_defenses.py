"""Tests for the defense harness, libsafe guard, and the E14 matrix."""

import pytest

from repro.attacks import all_attacks
from repro.core import new_object
from repro.attacks import CHECKED_PLACEMENT, UNPROTECTED
from repro.defenses import LibSafePlacementGuard
from repro.errors import BoundsCheckViolation
from repro.memory import SegmentKind
from repro.runtime import Machine
from repro.workloads import make_student_classes


class TestLibSafeGuard:
    def test_blocks_known_arena_overflow(self):
        machine = Machine()
        student, grad = make_student_classes()
        arena = machine.static_object(student, "arena")
        guard = LibSafePlacementGuard(machine)
        with pytest.raises(BoundsCheckViolation):
            guard.place(arena.address, grad)
        assert guard.records[-1].blocked

    def test_allows_fitting_placement(self):
        machine = Machine()
        student, grad = make_student_classes()
        big = new_object(machine, grad)
        guard = LibSafePlacementGuard(machine)
        placed = guard.place(big.address, student)
        assert placed.address == big.address
        assert not guard.records[-1].blocked

    def test_blind_spot_raw_interior_address(self):
        # The paper's caveat: an address the library never saw allocated
        # cannot be bounds-checked.
        machine = Machine()
        student, grad = make_student_classes()
        arena = machine.static_object(student, "arena")
        guard = LibSafePlacementGuard(machine)
        interior = arena.address + 4  # not an allocation start
        placed = guard.place(interior, grad)  # sails through
        assert placed.address == interior
        report = guard.coverage_report()
        assert report["blind_spots"] == 1
        assert report["coverage"] < 1.0

    def test_coverage_report_counts(self):
        machine = Machine()
        student, grad = make_student_classes()
        big = new_object(machine, grad)
        guard = LibSafePlacementGuard(machine)
        guard.place(big.address, student)
        bss = machine.space.segment(SegmentKind.BSS)
        guard.place(bss.base + 100, student)
        report = guard.coverage_report()
        assert report["placements"] == 2
        assert report["arena_known"] == 1


class TestEvaluationMatrix:
    """The E14 cells, evaluated through the sweep's attack rows."""

    @pytest.fixture(scope="class")
    def matrix(self):
        from repro.matrix import MatrixRow, run_sweep

        return run_sweep(
            rows=[
                MatrixRow(kind="attack", row_id="overflow-via-construction"),
                MatrixRow(kind="attack", row_id="data-bss-overflow"),
            ]
        )

    def test_baseline_loses_everywhere(self, matrix):
        assert matrix["attacks_succeeding"]["none"] == 2

    def test_correct_coding_blocks_overflows(self, matrix):
        assert matrix["attacks_succeeding"]["checked-placement"] == 0

    def test_stackguard_blind_to_object_overflow(self, matrix):
        # The paper's §1 claim: StackGuard doesn't see these.
        assert matrix["attacks_succeeding"]["stackguard"] == 2

    def test_cell_lookup(self, matrix):
        cells = {row["id"]: row["cells"] for row in matrix["rows"]}
        assert (
            cells["overflow-via-construction"]["checked-placement"]
            == "detected(bounds-check)"
        )
        assert cells["data-bss-overflow"]["none"] == "ATTACK-WINS"

    def test_render_contains_rows_and_totals(self, matrix):
        from repro.matrix import render_attack_table

        text = render_attack_table(matrix)
        assert "overflow-via-construction" in text
        assert "attacks succeeding" in text


class TestShadowReturnStack:
    """§5.2's return-address stack: catches what StackGuard cannot."""

    def test_selective_overwrite_caught(self):
        from repro.attacks import SHADOW_RETURN_STACK, selective_overwrite

        result = selective_overwrite(SHADOW_RETURN_STACK).run(SHADOW_RETURN_STACK)
        assert not result.succeeded
        assert result.detected_by == "shadow-return-stack"

    def test_normal_returns_unaffected(self):
        from repro.attacks import SHADOW_RETURN_STACK

        machine = SHADOW_RETURN_STACK.make_machine()
        frame = machine.push_frame("f")
        exit_ = machine.pop_frame(frame)
        assert exit_.normal
        assert machine.defense.checks == 1
        assert machine.defense.tamper_events == 0

    def test_nested_frames_tracked(self):
        from repro.attacks import SHADOW_RETURN_STACK

        machine = SHADOW_RETURN_STACK.make_machine()
        outer = machine.push_frame("outer")
        inner = machine.push_frame("inner")
        assert machine.defense.depth == 2
        machine.pop_frame(inner)
        machine.pop_frame(outer)
        assert machine.defense.depth == 0

    def test_data_only_attacks_unaffected(self):
        from repro.attacks import SHADOW_RETURN_STACK, DataBssOverflowAttack

        result = DataBssOverflowAttack().run(SHADOW_RETURN_STACK)
        assert result.succeeded  # not a control-flow defense


class TestVtableIntegrity:
    def test_subterfuge_caught(self):
        from repro.attacks import VTABLE_INTEGRITY, VtableSubterfugeDataAttack

        result = VtableSubterfugeDataAttack().run(VTABLE_INTEGRITY)
        assert not result.succeeded
        assert result.detected_by == "vtable-integrity"

    def test_legitimate_dispatch_unaffected(self):
        from repro.attacks import VTABLE_INTEGRITY
        from repro.core import construct
        from repro.workloads import make_student_classes

        machine = VTABLE_INTEGRITY.make_machine()
        student, grad = make_student_classes(virtual=True)
        inst = machine.static_object(grad, "g")
        construct(machine, grad, inst.address)
        result = machine.virtual_call(inst.as_type(student), "getInfo")
        assert result.function_name == "GradStudent::getInfo"
        assert machine.defense.checks == 1
        assert machine.defense.violations == 0


class TestFullGalleryUnprotected:
    def test_every_attack_succeeds_on_baseline(self):
        """The paper's central result: all attacks demonstrated on the
        unprotected Ubuntu/gcc configuration."""
        for scenario in all_attacks():
            result = scenario.run(UNPROTECTED)
            assert result.succeeded, f"{scenario.name} failed: {result.detail}"

    def test_correct_coding_blocks_all_overflow_attacks(self):
        overflow_names = {
            "overflow-via-construction",
            "overflow-via-copy-constructor",
            "overflow-via-indirect-construction",
            "internal-overflow",
            "data-bss-overflow",
            "heap-overflow",
            "stack-return-address",
            "arc-injection",
            "code-injection",
            "data-variable-overwrite",
            "stack-local-overwrite",
            "member-variable-overwrite",
            "vtable-subterfuge-bss",
            "vtable-subterfuge-stack",
            "function-pointer-subterfuge",
            "variable-pointer-subterfuge",
            "two-step-stack-array",
            "two-step-bss-array",
            "dos-loop-inflation",
            "dos-auth-bypass",
            "dos-resource-exhaustion",
        }
        for scenario in all_attacks():
            if scenario.name not in overflow_names:
                continue
            result = scenario.run(CHECKED_PLACEMENT)
            assert not result.succeeded, f"{scenario.name} won under checked placement"

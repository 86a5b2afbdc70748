"""Tests for the forensics toolkit."""

import pytest

from repro.core import construct, new_object, placement_new
from repro.forensics import (
    AttackForensics,
    MemorySnapshot,
    annotate_address,
)
from repro.memory import SegmentKind
from repro.workloads import set_ssn


class TestSnapshots:
    def test_identical_snapshots_diff_empty(self, machine):
        a = MemorySnapshot(machine)
        b = MemorySnapshot(machine)
        assert a.diff(b) == []

    def test_diff_finds_changed_range(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        before = MemorySnapshot(machine)
        machine.space.write(base + 10, b"\x01\x02\x03")
        after = MemorySnapshot(machine)
        changes = before.diff(after)
        assert len(changes) == 1
        assert changes[0].address == base + 10
        assert changes[0].after == b"\x01\x02\x03"
        assert changes[0].segment is SegmentKind.BSS

    def test_diff_separates_disjoint_ranges(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        before = MemorySnapshot(machine)
        machine.space.write(base, b"\xff")
        machine.space.write(base + 100, b"\xff")
        changes = before.diff(MemorySnapshot(machine))
        assert len(changes) == 2


class TestAnnotation:
    def test_global_annotation(self, machine, student_classes):
        student, _ = student_classes
        stud = machine.static_object(student, "stud")
        assert annotate_address(machine, stud.address) == "global 'stud'+0"
        assert annotate_address(machine, stud.address + 8) == "global 'stud'+8"

    def test_heap_annotation(self, machine, student_classes):
        student, _ = student_classes
        inst = new_object(machine, student)
        note = annotate_address(machine, inst.address)
        assert note.startswith("heap payload 'Student'")
        header_note = annotate_address(machine, inst.address - 4)
        assert "header" in header_note

    def test_frame_annotation(self, machine, student_classes):
        student, _ = student_classes
        frame = machine.push_frame("f")
        stud = frame.local_object(student, "stud")
        assert (
            annotate_address(machine, frame.slots.return_slot, frame)
            == "return address of f()"
        )
        assert "local 'stud'" in annotate_address(machine, stud.address, frame)
        machine.pop_frame(frame)

    def test_text_annotation(self, machine):
        entry = machine.text.function_named("system")
        assert annotate_address(machine, entry.address) == "function entry system()"

    def test_unmapped_annotation(self, machine):
        assert annotate_address(machine, 0x10) == "unmapped"


class TestAttackForensics:
    def test_overflow_diff_names_the_victims(self, machine, student_classes):
        student, grad = student_classes
        stud1 = machine.static_object(student, "stud1")
        stud2 = machine.static_object(student, "stud2")
        construct(machine, student, stud2.address, 3.5, 2009, 1)

        forensics = AttackForensics(machine)
        forensics.begin()
        gs = placement_new(machine, stud1, grad, 4.0, 2009, 1)
        set_ssn(gs, 0x11111111, 0x22222222, 777)
        changes = forensics.end()

        annotations = " | ".join(change.annotation for change in changes)
        assert "stud1" in annotations
        assert "stud2" in annotations  # the collateral damage, by name
        assert "stud2" in forensics.report()

    def test_begin_required(self, machine):
        forensics = AttackForensics(machine)
        with pytest.raises(RuntimeError):
            forensics.end()

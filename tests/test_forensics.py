"""Tests for watchpoints and the forensics toolkit."""

import pytest

from repro.core import construct, new_object, placement_new
from repro.errors import ApiMisuseError
from repro.forensics import (
    AttackForensics,
    MemorySnapshot,
    annotate_address,
)
from repro.memory import SegmentKind, WatchpointManager
from repro.workloads import set_ssn


class TestWatchpoints:
    def test_write_hit_recorded(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        watches = WatchpointManager(machine.space)
        watches.watch("victim", base + 8, 4)
        machine.space.write(base + 8, b"\xde\xad\xbe\xef")
        assert len(watches.hits) == 1
        assert watches.hits[0].is_write

    def test_overlap_detection(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        watches = WatchpointManager(machine.space)
        watches.watch("victim", base + 8, 4)
        machine.space.write(base + 6, b"\x00" * 4)  # straddles the start
        assert watches.hits_for("victim")

    def test_non_overlapping_writes_ignored(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        watches = WatchpointManager(machine.space)
        watches.watch("victim", base + 8, 4)
        machine.space.write(base, b"\x01" * 8)
        machine.space.write(base + 12, b"\x01")
        assert not watches.hits

    def test_reads_opt_in(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        watches = WatchpointManager(machine.space)
        watches.watch("w", base, 4, on_read=True)
        machine.space.read(base, 4)
        kinds = [hit.is_write for hit in watches.hits]
        assert False in kinds

    def test_first_writer_identifies_overflow(self, machine, student_classes):
        # Which write clobbered stud2? The placement-new overflow's
        # set_ssn — observable via the watchpoint.
        student, grad = student_classes
        stud1 = machine.static_object(student, "stud1")
        stud2 = machine.static_object(student, "stud2")
        watches = WatchpointManager(machine.space)
        watches.watch("stud2.gpa", stud2.address + stud2.layout.slot("gpa").offset, 8)
        gs = placement_new(machine, stud1, grad)
        set_ssn(gs, 1, 2, 3)
        first = watches.first_writer("stud2.gpa")
        assert first is not None
        assert first.address == stud2.address

    def test_unwatch_and_clear(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        watches = WatchpointManager(machine.space)
        watches.watch("w", base, 4)
        machine.space.write(base, b"\x01")
        watches.clear()
        watches.unwatch("w")
        machine.space.write(base, b"\x02")
        assert not watches.hits

    def test_bad_length_rejected(self, machine):
        watches = WatchpointManager(machine.space)
        with pytest.raises(ApiMisuseError):
            watches.watch("w", 0x1000, 0)


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

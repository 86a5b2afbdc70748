"""Tests for placement new (unchecked), checked placement, delete, sanitize."""

import pytest

from repro.core import (
    ArenaOwner,
    checked_placement_new,
    checked_placement_new_array,
    leaked_bytes,
    new_object,
    placement_delete,
    placement_new,
    placement_new_array,
    residual_ranges,
    sanitize,
)
from repro.cxx import CHAR
from repro.errors import ApiMisuseError, BoundsCheckViolation
from repro.memory import SegmentKind


class TestPlacementNew:
    def test_places_at_given_address(self, machine, student_classes):
        student, _ = student_classes
        arena = machine.static_object(student, "arena")
        placed = placement_new(machine, arena, student)
        assert placed.address == arena.address

    def test_raw_address_target(self, machine, student_classes):
        student, _ = student_classes
        base = machine.space.segment(SegmentKind.BSS).base + 128
        placed = placement_new(machine, base, student)
        assert placed.address == base

    def test_null_address_rejected(self, machine, student_classes):
        student, _ = student_classes
        with pytest.raises(ApiMisuseError):
            placement_new(machine, 0, student)

    def test_no_bounds_check_larger_object_succeeds(
        self, machine, student_classes
    ):
        # The vulnerability itself: 32 bytes into a 16-byte arena.
        student, grad = student_classes
        arena = machine.static_object(student, "arena")
        placed = placement_new(machine, arena, grad)
        assert placed.size == 32
        assert placed.size > arena.size

    def test_overflow_recorded_in_audit_log(self, machine, student_classes):
        student, grad = student_classes
        arena = machine.static_object(student, "arena")
        placement_new(machine, arena, grad)
        overflows = machine.placement_log.overflowing()
        assert len(overflows) == 1
        assert overflows[0].type_name == "GradStudent"
        assert overflows[0].arena_size == 16 and overflows[0].size == 32

    def test_raw_address_has_unknown_arena(self, machine, student_classes):
        student, _ = student_classes
        base = machine.space.segment(SegmentKind.BSS).base + 128
        placement_new(machine, base, student)
        record = machine.placement_log.records[-1]
        assert record.arena_size is None
        assert record.overflows_arena is None

    def test_no_type_check_incompatible_types(self, machine, student_classes):
        # Section 2.5 item 3: placing T2 over T1 succeeds regardless.
        student, _ = student_classes
        buf = machine.static_array(CHAR, 16, "buf")
        placed = placement_new(machine, buf, student)
        assert placed.address == buf.address

    def test_misalignment_reported_not_blocked(self, machine, student_classes):
        student, _ = student_classes
        base = machine.space.segment(SegmentKind.BSS).base + 3
        placement_new(machine, base, student)
        assert machine.placement_log.records[-1].misaligned

    def test_constructor_runs_at_target(self, machine, student_classes):
        student, _ = student_classes
        arena = machine.static_object(student, "arena")
        placed = placement_new(machine, arena, student, 3.3, 2011, 1)
        assert arena.get("gpa") == 3.3
        assert placed.get("year") == 2011

    def test_relabels_tracked_arena(self, machine, student_classes):
        student, grad = student_classes
        grad_obj = new_object(machine, grad)
        placement_new(machine, grad_obj.address, student)
        record = machine.tracker.lookup(grad_obj.address)
        assert record.believed_size == 16
        assert record.true_size == 32


class TestPlacementNewArray:
    def test_array_over_buffer(self, machine):
        buf = machine.static_array(CHAR, 32, "uname_buf")
        view = placement_new_array(machine, buf, CHAR, 16)
        assert view.address == buf.address
        assert view.size == 16

    def test_no_zeroing_previous_contents_visible(self, machine):
        # Section 2.5 item on leaks: new[] placement does not sanitize.
        buf = machine.static_array(CHAR, 32, "buf")
        machine.space.write(buf.address, b"SECRET--")
        view = placement_new_array(machine, buf, CHAR, 8)
        assert machine.space.read(view.address, 8) == b"SECRET--"

    def test_oversize_array_allowed(self, machine):
        buf = machine.static_array(CHAR, 8, "small")
        view = placement_new_array(machine, buf, CHAR, 64)
        assert view.size == 64
        assert machine.placement_log.overflowing()

    def test_bad_count_rejected(self, machine):
        buf = machine.static_array(CHAR, 8, "b")
        with pytest.raises(ApiMisuseError):
            placement_new_array(machine, buf, CHAR, 0)

class TestCheckedPlacement:
    def test_fits_passes_through(self, machine, student_classes):
        student, grad = student_classes
        grad_arena = new_object(machine, grad)
        placed = checked_placement_new(machine, grad_arena, student)
        assert placed.address == grad_arena.address

    def test_oversize_rejected(self, machine, student_classes):
        student, grad = student_classes
        arena = machine.static_object(student, "arena")
        with pytest.raises(BoundsCheckViolation):
            checked_placement_new(machine, arena, grad)

    def test_raw_address_requires_size(self, machine, student_classes):
        student, _ = student_classes
        base = machine.space.segment(SegmentKind.BSS).base + 128
        with pytest.raises(ApiMisuseError):
            checked_placement_new(machine, base, student)
        placed = checked_placement_new(machine, base, student, arena_size=16)
        assert placed.address == base

    def test_misalignment_rejected(self, machine, student_classes):
        student, _ = student_classes
        base = machine.space.segment(SegmentKind.BSS).base + 4
        with pytest.raises(BoundsCheckViolation):
            checked_placement_new(machine, base, student, arena_size=64)

    def test_misalignment_opt_out(self, machine, student_classes):
        student, _ = student_classes
        base = machine.space.segment(SegmentKind.BSS).base + 4
        placed = checked_placement_new(
            machine, base, student, arena_size=64, enforce_alignment=False
        )
        assert placed.address == base

    def test_checked_array(self, machine):
        buf = machine.static_array(CHAR, 16, "buf")
        view = checked_placement_new_array(machine, buf, CHAR, 16)
        assert view.size == 16
        with pytest.raises(BoundsCheckViolation):
            checked_placement_new_array(machine, buf, CHAR, 17)

class TestPlacementDelete:
    def test_scrubs_extent(self, machine, student_classes):
        student, _ = student_classes
        arena = new_object(machine, student, 3.9, 2008, 2)
        placement_delete(machine, arena)
        assert machine.space.read(arena.address, 16) == b"\x00" * 16

    def test_runs_destructor(self, machine, student_classes):
        student, _ = student_classes
        arena = new_object(machine, student)
        calls = []
        placement_delete(machine, arena, destructor=lambda c, i: calls.append(i))
        assert calls == [arena]

    def test_arena_owner_no_leak(self, machine, student_classes):
        student, grad = student_classes
        with ArenaOwner(machine, machine.sizeof(grad), label="arena") as owner:
            placement_new(machine, owner.address, student)
        assert machine.tracker.leaked_bytes == 0
        assert owner.released

    def test_arena_owner_address_after_release(self, machine):
        owner = ArenaOwner(machine, 32)
        owner.release()
        with pytest.raises(ApiMisuseError):
            owner.address
        owner.release()  # idempotent


class TestSanitize:
    def test_full_sanitize(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        machine.space.write(base, b"secret")
        report = sanitize(machine.space, base, 6)
        assert machine.space.read(base, 6) == b"\x00" * 6
        assert report.end == base + 6

    def test_residual_ranges(self):
        gaps = residual_ranges(100, 32, occupied=[(100, 8), (116, 4)])
        assert gaps == [(108, 8), (120, 12)]

    def test_residual_ranges_full_coverage(self):
        assert residual_ranges(100, 16, occupied=[(100, 16)]) == []

    def test_residual_ranges_ignores_outside(self):
        gaps = residual_ranges(100, 16, occupied=[(0, 50), (200, 8)])
        assert gaps == [(100, 16)]

    def test_leaked_bytes_counts_residue(self, machine):
        base = machine.space.segment(SegmentKind.BSS).base
        secret = b"ABCDEFGHIJKLMNOP"
        machine.space.write(base, secret)
        # New occupant covers only the first 8 bytes.
        count = leaked_bytes(
            machine.space, base, 16, occupied=[(base, 8)], secret=secret
        )
        assert count == 8

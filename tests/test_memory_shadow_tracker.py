"""Tests for shadow memory (red zones) and the allocation tracker."""

import pytest

from repro.errors import RedZoneViolation
from repro.memory import (
    AddressSpace,
    AllocationTracker,
    ArenaOrigin,
    SegmentKind,
    ShadowMemory,
)


@pytest.fixture
def space():
    return AddressSpace()


class TestShadowMemory:
    @staticmethod
    def _armed(space, *arenas):
        shadow = ShadowMemory(space, zone_size=8)
        for base, size in arenas:
            shadow.protect_arena(base, size)
        shadow.arm()
        return shadow

    def test_red_zones_bracket_the_arena(self, space):
        base = space.segment(SegmentKind.BSS).base + 64
        self._armed(space, (base, 16))
        space.write(base, b"x")
        space.write(base + 15, b"x")
        space.write(base + 16 + 8, b"x")  # past the right zone: untracked
        space.write(base - 9, b"x")  # below the left zone
        for red in (base + 16, base + 23, base - 1, base - 8):
            with pytest.raises(RedZoneViolation):
                space.write(red, b"\x00")

    def test_armed_write_into_red_zone_raises(self, space):
        base = space.segment(SegmentKind.BSS).base + 64
        self._armed(space, (base, 16))
        with pytest.raises(RedZoneViolation):
            space.write(base + 16, b"\x00")

    def test_violation_names_the_first_red_byte(self, space):
        base = space.segment(SegmentKind.BSS).base + 64
        self._armed(space, (base, 16))
        with pytest.raises(RedZoneViolation) as excinfo:
            space.write(base + 12, b"A" * 8)
        assert excinfo.value.address == base + 16
        with pytest.raises(RedZoneViolation) as excinfo:
            space.write(base - 20, b"A" * 40)
        assert excinfo.value.address == base - 8

    def test_write_inside_arena_allowed(self, space):
        base = space.segment(SegmentKind.BSS).base + 64
        self._armed(space, (base, 16))
        space.write(base, b"x" * 16)

    def test_reads_are_never_checked(self, space):
        base = space.segment(SegmentKind.BSS).base + 64
        self._armed(space, (base, 16))
        assert space.read(base - 8, 32) == bytes(32)

    def test_disarm_stops_checking(self, space):
        base = space.segment(SegmentKind.BSS).base + 64
        shadow = self._armed(space, (base, 16))
        shadow.disarm()
        space.write(base + 16, b"\x00")  # no raise

    def test_adjacent_arenas_do_not_poison_each_other(self, space):
        base = space.segment(SegmentKind.BSS).base + 64
        # arena 1's right red zone overlaps arena 2, and arena 2's left
        # zone overlaps arena 1: neither reddens the other's bytes
        self._armed(space, (base, 16), (base + 16, 16))
        space.write(base, b"x" * 32)
        with pytest.raises(RedZoneViolation):
            space.write(base + 32, b"\x00")

    def test_a_later_arena_clears_red_bytes_it_covers(self, space):
        base = space.segment(SegmentKind.BSS).base + 64
        self._armed(space, (base, 16), (base + 20, 8))
        space.write(base + 20, b"x" * 8)
        for red in (base + 16, base + 19, base + 28):
            with pytest.raises(RedZoneViolation):
                space.write(red, b"\x00")


class TestAllocationTracker:
    def test_record_and_lookup(self):
        tracker = AllocationTracker()
        tracker.record(0x1000, 32, ArenaOrigin.HEAP_NEW, label="GradStudent")
        record = tracker.lookup(0x1000)
        assert record is not None
        assert record.true_size == 32
        assert record.believed_size == 32

    def test_relabel_shrinks_believed_size(self):
        tracker = AllocationTracker()
        tracker.record(0x1000, 32, ArenaOrigin.HEAP_NEW)
        tracker.relabel(0x1000, 16, label="Student")
        assert tracker.lookup(0x1000).believed_size == 16
        assert tracker.lookup(0x1000).true_size == 32

    def test_listing23_leak_accounting(self):
        # GradStudent(32) arena freed as Student(16): 16 bytes leak.
        tracker = AllocationTracker()
        tracker.record(0x1000, 32, ArenaOrigin.HEAP_NEW, label="GradStudent")
        tracker.relabel(0x1000, 16, label="Student")
        tracker.mark_freed(0x1000)
        assert tracker.leaked_bytes == 16

    def test_no_leak_when_freed_at_true_size(self):
        tracker = AllocationTracker()
        tracker.record(0x1000, 32, ArenaOrigin.HEAP_NEW)
        tracker.mark_freed(0x1000)
        assert tracker.leaked_bytes == 0

    def test_live_accounting(self):
        tracker = AllocationTracker()
        tracker.record(0x1000, 32, ArenaOrigin.HEAP_NEW)
        tracker.record(0x2000, 16, ArenaOrigin.STATIC)
        assert sorted(r.address for r in tracker.live_records) == [0x1000, 0x2000]
        tracker.mark_freed(0x1000)
        assert [r.address for r in tracker.live_records] == [0x2000]
        assert tracker.lookup(0x1000) is None
        assert tracker.lookup(0x2000).true_size == 16

    def test_relabel_unknown_address_is_noop(self):
        tracker = AllocationTracker()
        assert tracker.relabel(0x9999, 8) is None

    def test_mark_freed_unknown_is_noop(self):
        tracker = AllocationTracker()
        assert tracker.mark_freed(0x9999) is None


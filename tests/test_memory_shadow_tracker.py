"""Tests for shadow memory (red zones) and the allocation tracker."""

import pytest

from repro.errors import RedZoneViolation
from repro.memory import (
    AddressSpace,
    AllocationTracker,
    ArenaOrigin,
    SegmentKind,
    ShadowMemory,
    ShadowState,
)


@pytest.fixture
def space():
    return AddressSpace()


class TestShadowMemory:
    def test_states_after_protect(self, space):
        shadow = ShadowMemory(space, zone_size=8)
        base = space.segment(SegmentKind.BSS).base + 64
        shadow.protect_arena(base, 16)
        assert shadow.state_at(base) is ShadowState.ADDRESSABLE
        assert shadow.state_at(base + 15) is ShadowState.ADDRESSABLE
        assert shadow.state_at(base + 16) is ShadowState.RED_ZONE
        assert shadow.state_at(base - 1) is ShadowState.RED_ZONE
        assert shadow.state_at(base + 16 + 8) is ShadowState.UNTRACKED

    def test_armed_write_into_red_zone_raises(self, space):
        shadow = ShadowMemory(space, zone_size=8)
        base = space.segment(SegmentKind.BSS).base + 64
        shadow.protect_arena(base, 16)
        shadow.arm()
        with pytest.raises(RedZoneViolation):
            space.write(base + 16, b"\x00")

    def test_write_inside_arena_allowed(self, space):
        shadow = ShadowMemory(space, zone_size=8)
        base = space.segment(SegmentKind.BSS).base + 64
        shadow.protect_arena(base, 16)
        shadow.arm()
        space.write(base, b"x" * 16)
        assert not shadow.violations

    def test_record_only_mode(self, space):
        shadow = ShadowMemory(space, zone_size=8)
        base = space.segment(SegmentKind.BSS).base + 64
        shadow.protect_arena(base, 16)
        shadow.arm(halt_on_violation=False)
        space.write(base + 16, b"\x00")
        assert len(shadow.violations) == 1
        assert shadow.first_violation().address == base + 16

    def test_disarm_stops_checking(self, space):
        shadow = ShadowMemory(space, zone_size=8)
        base = space.segment(SegmentKind.BSS).base + 64
        shadow.protect_arena(base, 16)
        shadow.arm()
        shadow.disarm()
        space.write(base + 16, b"\x00")  # no raise
        assert not shadow.violations

    def test_adjacent_arenas_do_not_poison_each_other(self, space):
        shadow = ShadowMemory(space, zone_size=8)
        base = space.segment(SegmentKind.BSS).base + 64
        shadow.protect_arena(base, 16)
        shadow.protect_arena(base + 16, 16)  # red zone overlaps arena 2
        assert shadow.state_at(base + 16) is ShadowState.ADDRESSABLE


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
        tracker.record(0x2000, 16, ArenaOrigin.POOL)
        assert tracker.live_bytes == 48
        assert tracker.outstanding_arenas == 2
        tracker.mark_freed(0x1000)
        assert tracker.live_bytes == 16

    def test_relabel_unknown_address_is_noop(self):
        tracker = AllocationTracker()
        assert tracker.relabel(0x9999, 8) is None

    def test_mark_freed_unknown_is_noop(self):
        tracker = AllocationTracker()
        assert tracker.mark_freed(0x9999) is None

    def test_report_mentions_leak(self):
        tracker = AllocationTracker()
        tracker.record(0x1000, 32, ArenaOrigin.HEAP_NEW, label="g")
        tracker.relabel(0x1000, 16)
        tracker.mark_freed(0x1000)
        assert "16B" in tracker.report()

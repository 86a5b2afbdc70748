"""Tests for the stack region and memory pools."""

import pytest

from repro.errors import ApiMisuseError, StackOverflowError_
from repro.memory import AddressSpace, MemoryPool, SegmentKind, StackRegion


@pytest.fixture
def space():
    return AddressSpace()


@pytest.fixture
def stack(space):
    return StackRegion(space)


class TestStackRegion:
    def test_grows_downward(self, stack):
        first = stack.push_region(16)
        second = stack.push_region(16)
        assert second < first

    def test_push_respects_alignment(self, stack):
        address = stack.push_region(10, alignment=8)
        assert address % 8 == 0

    def test_exhaustion(self, stack):
        with pytest.raises(StackOverflowError_):
            stack.push_region(10**9)

    def test_pop_to_restores(self, stack):
        saved = stack.stack_pointer
        stack.push_region(64)
        stack.pop_to(saved)
        assert stack.stack_pointer == saved

    def test_pop_below_current_rejected(self, stack):
        saved = stack.stack_pointer
        stack.push_region(16)
        with pytest.raises(ApiMisuseError):
            stack.pop_to(stack.stack_pointer - 32)
        stack.pop_to(saved)

    def test_reserve_to(self, stack):
        target = stack.stack_pointer - 128
        stack.reserve_to(target)
        assert stack.stack_pointer == target

    def test_reserve_to_above_sp_rejected(self, stack):
        with pytest.raises(ApiMisuseError):
            stack.reserve_to(stack.stack_pointer + 8)

    def test_usage_accounting(self, space, stack):
        lowest = space.segment(SegmentKind.STACK).base
        sp_before = stack.stack_pointer
        base = stack.push_region(32, alignment=4)
        assert base == stack.stack_pointer <= sp_before - 32
        free_after = stack.stack_pointer - lowest
        with pytest.raises(StackOverflowError_, match=rf"\({free_after} free\)"):
            stack.push_region(free_after + 1)

class TestMemoryPool:
    def test_reserve_bumps(self, space):
        base = space.segment(SegmentKind.BSS).base
        pool = MemoryPool(space, base, 64)
        first = pool.reserve(16)
        second = pool.reserve(16)
        assert first == base
        assert second == base + 16

    def test_unchecked_pool_allows_oversize(self, space):
        # The vulnerability: reserving more than capacity succeeds.
        base = space.segment(SegmentKind.BSS).base
        pool = MemoryPool(space, base, 32)
        address = pool.reserve(64)
        assert address == base
        assert pool.stats.oversize_placements == 1

    def test_alignment(self, space):
        base = space.segment(SegmentKind.BSS).base
        pool = MemoryPool(space, base, 64)
        pool.reserve(3)
        aligned = pool.reserve(8, alignment=8)
        assert aligned % 8 == 0

    def test_reset_does_not_sanitize(self, space):
        # The Listing 21 information-leak precondition.
        base = space.segment(SegmentKind.BSS).base
        pool = MemoryPool(space, base, 32)
        address = pool.reserve(16)
        space.write(address, b"secretdata")
        pool.reset()
        again = pool.reserve(16)
        assert space.read(again, 10) == b"secretdata"

    def test_invalid_geometry(self, space):
        with pytest.raises(ApiMisuseError):
            MemoryPool(space, 0x10, 16)  # unmapped
        base = space.segment(SegmentKind.BSS).base
        with pytest.raises(ApiMisuseError):
            MemoryPool(space, base, 0)

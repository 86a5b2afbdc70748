"""E15 — the performance motivation and defense-cost ablations (§1, §5.1).

Claims: placement new into a pre-allocated pool is cheaper than heap
``new`` per object (the paper's stated reason the idiom exists), and the
§5.1 bounds check adds only a small constant per placement — the cost of
correctness.
"""

import pytest

from repro.core import (
    checked_placement_new,
    new_object,
    placement_new,
)
from repro.memory import MemoryPool, SegmentKind
from repro.runtime import Machine
from repro.workloads import make_student_classes

OBJECTS_PER_ROUND = 64


@pytest.fixture
def pool_machine():
    machine = Machine()
    student_cls, grad_cls = make_student_classes()
    base = machine.space.segment(SegmentKind.HEAP).base + 0x8000
    pool = MemoryPool(machine.space, base, OBJECTS_PER_ROUND * 16 + 64)
    return machine, student_cls, pool


def test_e15_heap_new_throughput(benchmark, pool_machine):
    machine, student_cls, _ = pool_machine

    def allocate_batch():
        instances = [new_object(machine, student_cls) for _ in range(OBJECTS_PER_ROUND)]
        for instance in instances:
            machine.tracker.mark_freed(instance.address)
            machine.heap.free(instance.address)

    benchmark(allocate_batch)


def test_e15_pool_placement_throughput(benchmark, pool_machine):
    machine, student_cls, pool = pool_machine

    def place_batch():
        pool.reset()
        for _ in range(OBJECTS_PER_ROUND):
            address = pool.reserve(16, alignment=8)
            placement_new(machine, address, student_cls)

    benchmark(place_batch)


def test_e15_unchecked_placement(benchmark, pool_machine):
    machine, student_cls, pool = pool_machine
    address = pool.reserve(16, alignment=8)

    def place():
        placement_new(machine, address, student_cls)

    benchmark(place)


def test_e15_checked_placement(benchmark, pool_machine):
    machine, student_cls, pool = pool_machine
    address = pool.reserve(16, alignment=8)

    def place():
        checked_placement_new(machine, address, student_cls, arena_size=16)

    benchmark(place)


def test_e15_shape():
    """The non-timing half of the claim: a pool never calls the heap
    allocator on the hot path, so its work is O(1) bumps; heap new walks
    a free list.  Verified structurally (counters), with timings above.
    """
    machine = Machine()
    student_cls, _ = make_student_classes()
    base = machine.space.segment(SegmentKind.HEAP).base + 0x8000
    pool = MemoryPool(machine.space, base, 4096)
    allocations_before = machine.heap.allocation_count
    for _ in range(32):
        placement_new(machine, pool.reserve(16, alignment=8), student_cls)
    assert machine.heap.allocation_count == allocations_before
    assert pool.stats.placements == 32

"""Property-based tests for the core overflow invariants.

These pin down the *mechanism* of the paper as laws: what an overflow
can and cannot touch, that placement never moves data it was not asked
to move, and that the checked primitive is exactly the unchecked one
minus the overflows.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import checked_placement_new, construct, placement_new
from repro.cxx import CHAR, DOUBLE, INT, make_class
from repro.errors import BoundsCheckViolation
from repro.memory import SegmentKind
from repro.runtime import Machine
from repro.workloads import make_student_classes, set_ssn

SCALARS = st.sampled_from([CHAR, INT, DOUBLE])


def _class_of(name, field_types):
    return make_class(
        name, fields=[(f"f{i}", t) for i, t in enumerate(field_types)]
    )


@settings(max_examples=30, deadline=None)
@given(
    arena_fields=st.lists(SCALARS, min_size=1, max_size=6),
    placed_fields=st.lists(SCALARS, min_size=1, max_size=6),
)
def test_placement_writes_stay_within_sizeof(arena_fields, placed_fields):
    """Constructing at an arena touches at most sizeof(placed) bytes —
    never more, never fewer than the constructor writes."""
    machine = Machine()
    arena_cls = _class_of("ArenaP", arena_fields)
    placed_cls = _class_of("PlacedP", placed_fields)
    arena = machine.static_object(arena_cls, "arena")
    guard_offset = machine.sizeof(placed_cls)
    # Paint a sentinel pattern around the placement.
    base = arena.address
    machine.space.write(base, b"\xa5" * (guard_offset + 64))
    placed = placement_new(machine, base, placed_cls)
    after = machine.space.read(base + guard_offset, 64)
    assert after == b"\xa5" * 64, "bytes beyond sizeof(placed) must be untouched"
    assert placed.size == guard_offset


@settings(max_examples=30, deadline=None)
@given(
    arena_fields=st.lists(SCALARS, min_size=1, max_size=5),
    placed_fields=st.lists(SCALARS, min_size=1, max_size=8),
)
def test_checked_equals_unchecked_when_it_fits(arena_fields, placed_fields):
    """checked_placement_new admits exactly the size-respecting subset."""
    from repro.memory import is_aligned

    machine_a = Machine()
    machine_b = Machine()
    arena_cls = _class_of("ArenaC", arena_fields)
    placed_cls = _class_of("PlacedC", placed_fields)
    arena_a = machine_a.static_object(arena_cls, "arena")
    arena_b = machine_b.static_object(arena_cls, "arena")
    # The checked primitive verifies the *address* alignment (what C++
    # actually requires), not the arena type's alignment.
    fits = machine_a.layouts.sizeof(placed_cls) <= machine_a.layouts.sizeof(
        arena_cls
    ) and is_aligned(arena_b.address, machine_a.layouts.layout_of(placed_cls).alignment)
    unchecked = placement_new(machine_a, arena_a, placed_cls)
    if fits:
        checked = checked_placement_new(machine_b, arena_b, placed_cls)
        assert machine_b.space.read(checked.address, checked.size) == machine_a.space.read(
            unchecked.address, unchecked.size
        )
    else:
        with pytest.raises(BoundsCheckViolation):
            checked_placement_new(machine_b, arena_b, placed_cls)


@settings(max_examples=25, deadline=None)
@given(
    ssn=st.tuples(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
)
def test_listing11_overflow_is_deterministic_reinterpretation(ssn):
    """Whatever the attacker's words, stud2's fields afterwards are
    exactly those words reinterpreted — byte-for-byte determinism."""
    from repro.memory.encoding import decode_double, encode_int

    machine = Machine()
    student_cls, grad_cls = make_student_classes()
    stud1 = machine.static_object(student_cls, "stud1")
    stud2 = machine.static_object(student_cls, "stud2")
    construct(machine, student_cls, stud2.address, 3.5, 2009, 1)
    gs = placement_new(machine, stud1, grad_cls)
    set_ssn(gs, *ssn)
    expected_gpa = decode_double(encode_int(ssn[0], 4) + encode_int(ssn[1], 4))
    got = stud2.get("gpa")
    assert got == expected_gpa or (got != got and expected_gpa != expected_gpa)
    assert stud2.get("year") == ssn[2]
    assert stud2.get("semester") == 1  # one word past the overflow: untouched


@settings(max_examples=25, deadline=None)
@given(
    pool_size=st.integers(min_value=8, max_value=128),
    reserve=st.integers(min_value=1, max_value=512),
)
def test_pool_oversize_accounting(pool_size, reserve):
    """A pool reports an oversize placement iff the bump ran past its
    capacity — the exact condition the two-step attack abuses."""
    from repro.memory import MemoryPool

    machine = Machine()
    base = machine.space.segment(SegmentKind.BSS).base
    pool = MemoryPool(machine.space, base, pool_size)
    pool.reserve(reserve)
    assert pool.stats.oversize_placements == (1 if reserve > pool_size else 0)


@settings(max_examples=20, deadline=None)
@given(iterations=st.integers(min_value=1, max_value=40))
def test_leak_law(iterations):
    """Listing 23's law: leaked bytes == iterations × (size delta)."""
    from repro.core import new_object

    machine = Machine()
    student_cls, grad_cls = make_student_classes()
    delta = machine.sizeof(grad_cls) - machine.sizeof(student_cls)
    for _ in range(iterations):
        arena = new_object(machine, grad_cls)
        placement_new(machine, arena.address, student_cls)
        machine.tracker.mark_freed(arena.address)
        machine.heap.free(arena.address)
    assert machine.tracker.leaked_bytes == iterations * delta


@settings(max_examples=20, deadline=None)
@given(
    secret=st.binary(min_size=16, max_size=64),
    user_len=st.integers(min_value=1, max_value=63),
)
def test_info_leak_residue_law(secret, user_len):
    """Residue after a shorter write == the secret's untouched suffix."""
    assume(user_len < len(secret))
    machine = Machine()
    base = machine.space.segment(SegmentKind.BSS).base
    machine.space.write(base, secret)
    machine.space.write(base, b"u" * user_len)
    residue = machine.space.read(base + user_len, len(secret) - user_len)
    assert residue == secret[user_len:]

"""Tests for the record-layout engine — the paper's sizeof ground truth."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cxx import (
    CHAR,
    DOUBLE,
    INT,
    LayoutEngine,
    VirtualMethod,
    array_of,
    class_type,
    make_class,
)
from repro.errors import LayoutError
from repro.workloads import make_student_classes


@pytest.fixture
def engine():
    return LayoutEngine()


class TestPaperGroundTruth:
    """DESIGN.md §4: the numbers every attack offset derives from."""

    def test_student_layout(self, engine):
        student, _ = make_student_classes()
        layout = engine.layout_of(student)
        assert layout.size == 16
        assert layout.alignment == 8
        assert layout.slot("gpa").offset == 0
        assert layout.slot("year").offset == 8
        assert layout.slot("semester").offset == 12
        assert not layout.has_vptr

    def test_gradstudent_layout(self, engine):
        student, grad = make_student_classes()
        layout = engine.layout_of(grad)
        assert layout.size == 32
        assert layout.slot("ssn").offset == 16

    def test_overflow_distance(self, engine):
        # Placing GradStudent at a Student arena writes 16 extra bytes.
        student, grad = make_student_classes()
        assert engine.sizeof(grad) - engine.sizeof(student) == 16

    def test_virtual_student_has_vptr_first(self, engine):
        student, _ = make_student_classes(virtual=True)
        layout = engine.layout_of(student)
        assert layout.has_vptr
        assert layout.primary_vptr_offset == 0
        assert layout.slot("gpa").offset == 8  # vptr 4B + 4B padding
        assert layout.size == 24

    def test_virtual_grad_shares_primary_vptr(self, engine):
        _, grad = make_student_classes(virtual=True)
        layout = engine.layout_of(grad)
        assert layout.vptr_offsets == (0,)
        assert layout.slot("ssn").offset == 24
        assert layout.size == 40


class TestGeneralLayout:
    def test_empty_class_size_one(self, engine):
        empty = make_class("Empty")
        assert engine.sizeof(empty) == 1

    def test_char_then_int_padding(self, engine):
        cls = make_class("Padded", fields=[("c", CHAR), ("i", INT)])
        layout = engine.layout_of(cls)
        assert layout.slot("c").offset == 0
        assert layout.slot("i").offset == 4
        assert layout.size == 8

    def test_tail_padding_for_alignment(self, engine):
        cls = make_class("Tail", fields=[("d", DOUBLE), ("c", CHAR)])
        layout = engine.layout_of(cls)
        assert layout.slot("c").offset == 8  # 7 tail bytes round 9 up to 16
        assert layout.size == 16

    def test_inherited_fields_keep_base_offsets(self, engine):
        base = make_class("Base", fields=[("x", INT)])
        derived = make_class("Derived", bases=[base], fields=[("y", INT)])
        layout = engine.layout_of(derived)
        assert layout.slot("x").offset == 0
        assert layout.slot("y").offset == 4

    def test_field_shadowing_most_derived_wins(self, engine):
        base = make_class("Base2", fields=[("x", INT)])
        derived = make_class("Derived2", bases=[base], fields=[("x", DOUBLE)])
        layout = engine.layout_of(derived)
        assert layout.slot("x").ctype is DOUBLE

    def test_multiple_inheritance_two_vptrs(self, engine):
        # Section 3.8.2: "In case of multiple inheritance, there are
        # more than one vtable pointers in a given instance."
        info = VirtualMethod("info", lambda m, i: "x")
        a = make_class("PolyA", fields=[("a", INT)], virtuals=[info])
        b = make_class("PolyB", fields=[("b", INT)], virtuals=[info])
        both = make_class("PolyBoth", bases=[a, b], fields=[("c", INT)])
        layout = engine.layout_of(both)
        assert len(layout.vptr_offsets) == 2
        assert layout.vptr_offsets[0] == 0
        assert layout.slot("b").offset == layout.vptr_offsets[1] + 4  # PolyB's vptr first

    def test_second_base_after_first(self, engine):
        a = make_class("MA", fields=[("a", INT)])
        b = make_class("MB", fields=[("b", INT)])
        both = make_class("MBoth", bases=[a, b])
        layout = engine.layout_of(both)
        assert layout.slot("a").offset == 0
        assert layout.slot("b").offset == 4

    def test_transitive_base_offsets(self, engine):
        a = make_class("GA", fields=[("a", INT)])
        b = make_class("GB", bases=[a], fields=[("b", INT)])
        c = make_class("GC", bases=[b], fields=[("c", INT)])
        layout = engine.layout_of(c)
        assert layout.slot("a").offset == 0
        assert layout.slot("b").offset == 4
        assert layout.slot("c").offset == 8

    def test_array_member(self, engine):
        cls = make_class("WithArr", fields=[("vals", array_of(INT, 3))])
        layout = engine.layout_of(cls)
        assert layout.slot("vals").ctype.size == 12
        assert layout.size == 12

    def test_class_type_member_matches_nested_layout(self, engine):
        student, _ = make_student_classes()
        member = class_type(student)
        host = make_class(
            "Host", fields=[("s1", member), ("s2", member), ("n", INT)]
        )
        layout = engine.layout_of(host)
        assert layout.slot("s1").offset == 0
        assert layout.slot("s2").offset == 16
        assert layout.slot("n").offset == 32
        assert layout.size == 40  # 36 rounded to align 8

    def test_unknown_field_raises(self, engine):
        student, _ = make_student_classes()
        with pytest.raises(LayoutError):
            engine.layout_of(student).slot("nope")

    def test_cache_consistency(self, engine):
        student, _ = make_student_classes()
        assert engine.layout_of(student) is engine.layout_of(student)


SCALARS = st.sampled_from([CHAR, INT, DOUBLE])


@given(st.lists(SCALARS, min_size=1, max_size=8))
def test_property_layout_invariants(field_types):
    """Offsets are aligned, non-overlapping, and within sizeof."""
    engine = LayoutEngine()
    cls = make_class(
        "Prop", fields=[(f"f{i}", t) for i, t in enumerate(field_types)]
    )
    layout = engine.layout_of(cls)
    previous_end = 0
    for slot in layout.field_slots:
        assert slot.offset % slot.ctype.alignment == 0
        assert slot.offset >= previous_end
        previous_end = slot.offset + slot.ctype.size
    assert layout.size >= previous_end
    assert layout.size % layout.alignment == 0
    assert layout.alignment == max(t.alignment for t in field_types)


@given(st.lists(SCALARS, min_size=1, max_size=6), st.lists(SCALARS, min_size=1, max_size=6))
def test_property_derived_at_least_base(base_fields, derived_fields):
    """sizeof(Derived) >= sizeof(Base) — the overflow precondition."""
    engine = LayoutEngine()
    base = make_class(
        "PB", fields=[(f"b{i}", t) for i, t in enumerate(base_fields)]
    )
    derived = make_class(
        "PD",
        bases=[base],
        fields=[(f"d{i}", t) for i, t in enumerate(derived_fields)],
    )
    assert engine.sizeof(derived) > engine.sizeof(base) or (
        engine.sizeof(derived) == engine.sizeof(base)
    )
    base_layout = engine.layout_of(base)
    derived_layout = engine.layout_of(derived)
    for slot in base_layout.field_slots:
        assert derived_layout.slot(slot.name).offset == slot.offset

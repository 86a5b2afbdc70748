"""Tests for typed memory views, vtables, and virtual dispatch."""

import pytest

from repro.core import construct, new_object
from repro.cxx import INT, make_class
from repro.errors import ApiMisuseError, LayoutError, SegmentationFault
from repro.workloads import set_ssn


class TestInstanceFieldAccess:
    def test_set_get_roundtrip(self, machine, student_classes):
        student, _ = student_classes
        inst = machine.static_object(student, "s")
        inst.set("gpa", 3.9)
        inst.set("year", 2008)
        assert inst.get("gpa") == 3.9
        assert inst.get("year") == 2008

    def test_field_address_matches_layout(self, machine, student_classes):
        student, _ = student_classes
        inst = machine.static_object(student, "s")
        assert inst.field_address("semester") == inst.address + 12

    def test_inherited_field_access(self, machine, student_classes):
        _, grad = student_classes
        inst = machine.static_object(grad, "g")
        inst.set("gpa", 4.0)  # declared in Student
        assert inst.get("gpa") == 4.0

    def test_field_values_snapshot(self, machine, student_classes):
        student, _ = student_classes
        inst = machine.static_object(student, "s")
        construct(machine, student, inst.address, 3.5, 2009, 2)
        values = inst.field_values()
        assert values == {"gpa": 3.5, "year": 2009, "semester": 2}

    def test_as_type_reinterprets_without_conversion(self, machine, student_classes):
        student, grad = student_classes
        inst = machine.static_object(student, "s")
        reinterpreted = inst.as_type(grad)
        assert reinterpreted.address == inst.address
        assert reinterpreted.size == 32

    def test_raw_bytes_length(self, machine, student_classes):
        student, _ = student_classes
        inst = machine.static_object(student, "s")
        assert len(inst.raw_bytes()) == 16


class TestUncheckedArrayAccess:
    def test_in_bounds(self, machine, student_classes):
        _, grad = student_classes
        inst = machine.static_object(grad, "g")
        inst.set_element("ssn", 2, 123456789)
        assert inst.get_element("ssn", 2) == 123456789

    def test_out_of_bounds_writes_neighbour(self, machine, student_classes):
        # The Listing 6 copy loop: indexes past the declared length
        # silently write past the object.
        _, grad = student_classes
        g1 = machine.static_object(grad, "g1")
        g2 = machine.static_object(grad, "g2")
        g1.set_element("ssn", 4, 777)  # ssn has 3 elements
        assert g1.element_address("ssn", 4) == g2.address
        assert machine.space.read_int(g2.address) == 777

    def test_wildly_out_of_bounds_faults(self, machine, student_classes):
        _, grad = student_classes
        inst = machine.static_object(grad, "g")
        with pytest.raises(SegmentationFault):
            inst.set_element("ssn", 10**7, 1)

    def test_non_array_field_rejected(self, machine, student_classes):
        student, _ = student_classes
        inst = machine.static_object(student, "s")
        with pytest.raises(ApiMisuseError):
            inst.get_element("gpa", 0)


class TestNestedMembers:
    def test_nested_view(self, machine, student_classes):
        student, _ = student_classes
        from repro.workloads import make_mobile_player

        player_cls = make_mobile_player(student)
        player = machine.static_object(player_cls, "p")
        stud1 = player.nested("stud1")
        stud1.set("gpa", 2.5)
        assert stud1.address == player.address
        assert player.nested("stud2").address == player.address + 16

    def test_nested_on_scalar_rejected(self, machine, student_classes):
        student, _ = student_classes
        inst = machine.static_object(student, "s")
        with pytest.raises(ApiMisuseError):
            inst.nested("gpa")


class TestVTableDispatch:
    def test_constructor_installs_vptr(self, machine, virtual_student_classes):
        student, _ = virtual_student_classes
        inst = machine.static_object(student, "s")
        construct(machine, student, inst.address)
        table = machine.vtables.lookup("Student")
        assert inst.read_vptr() == table.address

    def test_virtual_dispatch_selects_override(self, machine, virtual_student_classes):
        student, grad = virtual_student_classes
        inst = machine.static_object(grad, "g")
        construct(machine, grad, inst.address)
        result = machine.virtual_call(inst.as_type(student), "getInfo")
        assert result.function_name == "GradStudent::getInfo"

    def test_base_dispatch(self, machine, virtual_student_classes):
        student, _ = virtual_student_classes
        inst = machine.static_object(student, "s")
        construct(machine, student, inst.address)
        result = machine.virtual_call(inst, "getInfo")
        assert result.function_name == "Student::getInfo"

    def test_corrupted_vptr_to_garbage_faults(self, machine, virtual_student_classes):
        student, _ = virtual_student_classes
        inst = machine.static_object(student, "s")
        construct(machine, student, inst.address)
        machine.space.write_pointer(
            inst.address + inst.layout.primary_vptr_offset, 0x41414141
        )
        with pytest.raises(SegmentationFault):
            machine.virtual_call(inst, "getInfo")

    def test_vptr_on_non_polymorphic_rejected(self, machine, student_classes):
        student, _ = student_classes
        inst = machine.static_object(student, "s")
        with pytest.raises(LayoutError):
            inst.read_vptr()

    def test_unknown_virtual_rejected(self, machine, virtual_student_classes):
        student, _ = virtual_student_classes
        inst = machine.static_object(student, "s")
        construct(machine, student, inst.address)
        with pytest.raises(ApiMisuseError):
            machine.virtual_call(inst, "nope")

    def test_vtable_slots_live_in_text(self, machine, virtual_student_classes):
        student, _ = virtual_student_classes
        machine.vtables.ensure(student)
        table = machine.vtables.lookup("Student")
        entry = machine.space.read_pointer(table.slot_address(0))
        assert machine.text.function_at(entry) is not None


class TestConstructors:
    def test_default_constructor_zeroes(self, machine, student_classes):
        student, _ = student_classes
        inst = machine.static_object(student, "s")
        machine.space.write(inst.address, b"\xff" * 16)
        construct(machine, student, inst.address)
        assert inst.get("gpa") == 0.0
        assert inst.get("year") == 0

    def test_value_constructor(self, machine, student_classes):
        _, grad = student_classes
        inst = machine.static_object(grad, "g")
        construct(machine, grad, inst.address, 4.0, 2009, 1)
        assert inst.get("gpa") == 4.0
        assert inst.get("year") == 2009

    def test_grad_ctor_leaves_ssn_uninitialized(self, machine, student_classes):
        _, grad = student_classes
        inst = machine.static_object(grad, "g")
        machine.space.write_int(inst.address + 16, 0x5A5A5A5A, signed=False)
        construct(machine, grad, inst.address, 4.0, 2009, 1)
        # C++ does not zero ssn[]; neither do we.
        assert inst.get_element("ssn", 0) == 0x5A5A5A5A

    def test_copy_construct_from_instance(self, machine, student_classes):
        student, _ = student_classes
        a = machine.static_object(student, "a")
        construct(machine, student, a.address, 3.7, 2010, 2)
        b = machine.static_object(student, "b")
        construct(machine, student, b.address, a)
        assert b.get("gpa") == 3.7

    def test_default_shallow_copy_when_no_ctor(self, machine):
        plain = make_class("Plain", fields=[("x", INT)])
        a = machine.static_object(plain, "a")
        a.set("x", 5)
        b = machine.static_object(plain, "b")
        construct(machine, plain, b.address, a)
        assert b.get("x") == 5

    def test_no_ctor_with_args_rejected(self, machine):
        plain = make_class("Plain2", fields=[("x", INT)])
        inst = machine.static_object(plain, "p")
        with pytest.raises(ApiMisuseError):
            construct(machine, plain, inst.address, 1, 2)

    def test_new_object_allocates_on_heap(self, machine, student_classes):
        student, _ = student_classes
        inst = new_object(machine, student)
        from repro.memory import SegmentKind

        assert machine.space.segment(SegmentKind.HEAP).contains(
            inst.address, inst.size
        )
        assert machine.tracker.lookup(inst.address) is not None

    def test_set_ssn_helper(self, machine, student_classes):
        _, grad = student_classes
        inst = machine.static_object(grad, "g")
        set_ssn(inst, 1, 2, 3)
        assert [inst.get_element("ssn", i) for i in range(3)] == [1, 2, 3]

"""Tests for strict-alignment faults (§2.5) and multiple-inheritance
vptr subterfuge (§3.8.2's "more than one vtable pointers")."""

import pytest

from repro.core import construct, placement_new
from repro.cxx import INT, UINT, Instance, VirtualMethod, make_class
from repro.errors import BusError
from repro.memory import SegmentKind, encode_double
from repro.runtime import Machine, MachineConfig
from repro.workloads import make_student_classes


class TestStrictAlignment:
    @pytest.fixture
    def strict(self):
        return Machine(MachineConfig(strict_alignment=True))

    def test_aligned_access_fine(self, strict):
        base = strict.space.segment(SegmentKind.BSS).base
        strict.space.write(base, encode_double(1.5))
        assert strict.space.read_double(base) == 1.5

    def test_misaligned_double_faults(self, strict):
        base = strict.space.segment(SegmentKind.BSS).base
        with pytest.raises(BusError):
            strict.space.read_double(base + 4)

    def test_misaligned_int_faults(self, strict):
        base = strict.space.segment(SegmentKind.BSS).base
        with pytest.raises(BusError):
            strict.space.read_int(base + 2)

    def test_char_access_never_faults(self, strict):
        base = strict.space.segment(SegmentKind.BSS).base
        strict.space.write_int(base + 3, 0x41, width=1)
        assert strict.space.read_int(base + 3, width=1) == 0x41

    def test_default_machine_is_permissive(self, machine):
        # The paper's x86 testbed tolerates misalignment.
        base = machine.space.segment(SegmentKind.BSS).base
        machine.space.write(base + 4, encode_double(2.5))
        assert machine.space.read_double(base + 4) == 2.5

    def test_misaligned_placement_terminates_on_strict_target(self, strict):
        """§2.5 item 4: no alignment check at placement → the program
        dies later, at the first real member access."""
        student_cls, _ = make_student_classes()
        base = strict.space.segment(SegmentKind.BSS).base + 4  # 4-misaligned
        with pytest.raises(BusError):
            # The constructor writes gpa (8-aligned) at base+0.
            placement_new(strict, base, student_cls, 3.0, 2010, 1)


def _make_mi_classes():
    """Two polymorphic bases → the derived object holds two vptrs."""
    info_a = VirtualMethod("describe", lambda m, i: "A")
    info_b = VirtualMethod("identify", lambda m, i: "B")
    base_a = make_class("PolyA", fields=[("a", INT)], virtuals=[info_a])
    base_b = make_class("PolyB", fields=[("b", INT)], virtuals=[info_b])
    derived = make_class("Both", bases=[base_a, base_b], fields=[("c", INT)])
    return base_a, base_b, derived


class TestMultipleInheritanceVptrs:
    def test_two_vptrs_in_layout(self, machine):
        _, _, derived = _make_mi_classes()
        layout = machine.layouts.layout_of(derived)
        assert len(layout.vptr_offsets) == 2

    def test_construction_installs_both(self, machine):
        base_a, base_b, derived = _make_mi_classes()
        inst = machine.static_object(derived, "obj")
        construct(machine, derived, inst.address)
        layout = inst.layout
        for offset in layout.vptr_offsets:
            vptr = machine.space.read_pointer(inst.address + offset)
            assert machine.text.vtable_at(vptr) is not None

    def test_overflow_reaches_second_vptr(self, machine):
        """The §3.8.2 remark made concrete: an overflow running through
        a multiple-inheritance object meets a *second* vptr after the
        first base subobject — another control word at a fixed offset."""
        base_a, base_b, derived = _make_mi_classes()
        inst = machine.static_object(derived, "victim")
        construct(machine, derived, inst.address)
        layout = inst.layout
        second_vptr_offset = layout.vptr_offsets[1]
        # Simulate an overflow from the first subobject writing a fake
        # vtable pointer into the second vptr slot.
        fake_table = machine.static_array(UINT, 2, "fake")
        target = machine.text.function_named("grantAdminAccess").address
        machine.space.write_pointer(fake_table.address, target)
        machine.space.write_pointer(
            inst.address + second_vptr_offset, fake_table.address
        )
        # Dispatch through the second base: reads the corrupted vptr.
        # PolyB's subobject starts at its vptr (the vptr is its first entry)
        base_view = Instance(machine, base_b, inst.address + second_vptr_offset)
        result = machine.virtual_call(base_view, "identify")
        assert result.function_name == "grantAdminAccess"
        assert result.privileged

"""Tests for segments and the flat address space."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ApiMisuseError, SegmentationFault
from repro.memory import (
    AddressSpace,
    MemoryEventTap,
    Permissions,
    Segment,
    SegmentKind,
    ShadowMemory,
)
from repro.memory.watchpoints import WatchpointManager


@pytest.fixture
def space():
    return AddressSpace()


class TestSegment:
    def test_contains(self):
        seg = Segment(SegmentKind.HEAP, base=0x1000, size=0x100)
        assert seg.contains(0x1000)
        assert seg.contains(0x10FF)
        assert not seg.contains(0x1100)
        assert seg.contains(0x1000, 0x100)
        assert not seg.contains(0x1000, 0x101)

    def test_read_write_roundtrip(self):
        seg = Segment(SegmentKind.HEAP, base=0x1000, size=0x100)
        seg.write(0x1010, b"hello")
        assert seg.read(0x1010, 5) == b"hello"

    def test_write_past_end_faults(self):
        seg = Segment(SegmentKind.HEAP, base=0x1000, size=0x10)
        with pytest.raises(SegmentationFault):
            seg.write(0x100C, b"12345")

    def test_unwritable_segment_faults(self):
        seg = Segment(
            SegmentKind.TEXT,
            base=0x1000,
            size=0x10,
            permissions=Permissions(read=True, write=False, execute=True),
        )
        with pytest.raises(SegmentationFault):
            seg.write(0x1000, b"x")

    def test_fill(self):
        seg = Segment(SegmentKind.BSS, base=0, size=16)
        seg.fill(4, 8, 0xAA)
        assert seg.read(4, 8) == b"\xaa" * 8
        assert seg.read(0, 4) == b"\x00" * 4

    def test_fill_rejects_bad_byte(self):
        seg = Segment(SegmentKind.BSS, base=0, size=16)
        with pytest.raises(ApiMisuseError):
            seg.fill(0, 4, 300)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ApiMisuseError):
            Segment(SegmentKind.BSS, base=0, size=0)
        with pytest.raises(ApiMisuseError):
            Segment(SegmentKind.BSS, base=-4, size=16)

    def test_describe_maps_style(self):
        seg = Segment(SegmentKind.STACK, base=0xBFFF0000, size=0x10000)
        assert seg.describe() == "bfff0000-c0000000 rwx stack"


class TestAddressSpace:
    def test_default_segments_present(self, space):
        kinds = {seg.kind for seg in space.segments}
        assert kinds == set(SegmentKind)

    def test_segments_do_not_overlap(self, space):
        ordered = sorted(space.segments, key=lambda s: s.base)
        for before, after in zip(ordered, ordered[1:]):
            assert before.end <= after.base

    def test_unmapped_read_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(0x1000, 4)

    def test_unmapped_write_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.write(0x1000, b"\x00")

    def test_cross_segment_write_faults(self, space):
        bss = space.segment(SegmentKind.BSS)
        with pytest.raises(SegmentationFault):
            space.write(bss.end - 2, b"\x00" * 8)

    def test_nx_stack_configuration(self):
        space = AddressSpace(nx_stack=True)
        assert not space.segment(SegmentKind.STACK).permissions.execute
        assert AddressSpace().segment(SegmentKind.STACK).permissions.execute

    def test_typed_int_roundtrip(self, space):
        base = space.segment(SegmentKind.BSS).base
        space.write_int(base, -42)
        assert space.read_int(base) == -42

    def test_typed_double_roundtrip(self, space):
        base = space.segment(SegmentKind.BSS).base
        space.write_double(base, 3.9)
        assert space.read_double(base) == 3.9

    def test_typed_pointer_roundtrip(self, space):
        base = space.segment(SegmentKind.BSS).base
        space.write_pointer(base, 0x08048000)
        assert space.read_pointer(base) == 0x08048000

    def test_c_string_roundtrip(self, space):
        base = space.segment(SegmentKind.HEAP).base
        space.write_c_string(base, "alice")
        assert space.read_c_string(base) == "alice"

    def test_strncpy_copies_exactly_count(self, space):
        base = space.segment(SegmentKind.BSS).base
        space.write(base, b"\xff" * 16)
        space.strncpy(base, "ab", 8)
        assert space.read(base, 8) == b"ab\x00\x00\x00\x00\x00\x00"
        assert space.read(base + 8, 8) == b"\xff" * 8

    def test_access_hooks_observe_writes(self, space):
        seen = []
        space.add_access_hook(lambda addr, data, w: seen.append((addr, data, w)))
        base = space.segment(SegmentKind.BSS).base
        space.write(base, b"hi")
        space.read(base, 2)
        assert (base, b"hi", True) in seen
        assert (base, b"hi", False) in seen

    def test_hook_removal(self, space):
        seen = []
        hook = lambda addr, data, w: seen.append(addr)
        space.add_access_hook(hook)
        space.remove_access_hook(hook)
        space.write(space.segment(SegmentKind.BSS).base, b"x")
        assert not seen

    def test_unobserved_records_accesses_and_restores_observers(self, space):
        seen, guarded = [], []
        space.add_access_hook(lambda addr, data, w: seen.append(addr))
        space.add_typed_guard(lambda base, addr, length, w: guarded.append(addr))
        bss = space.segment(SegmentKind.BSS).base
        with pytest.raises(SegmentationFault):
            with space.unobserved() as accesses:
                space.write(bss, b"ab")
                space.check_typed_access(bss, bss, 1, False)
                space.read(bss, 1)
                space.read(0, 1)
        assert accesses == [(bss, 2, True), (bss, 1, False)]
        assert not seen and not guarded
        space.read(bss, 1)
        space.check_typed_access(bss, bss, 1, False)
        assert seen == [bss] and guarded == [bss]

    def test_repeat_safe_declarations(self, space):
        assert space.observers_repeat_safe()
        space.add_access_hook(MemoryEventTap(space))
        shadow = ShadowMemory(space)
        shadow.arm()
        assert space.observers_repeat_safe()
        shadow.disarm()
        shadow.arm(halt_on_violation=False)
        assert not space.observers_repeat_safe()
        shadow.disarm()
        WatchpointManager(space).watch("bss", space.segment(SegmentKind.BSS).base, 4)
        assert not space.observers_repeat_safe()

    def test_segment_view_hands_out_the_live_hook_list(self, space):
        heap = space.segment(SegmentKind.HEAP)
        view, hooks = space.segment_view(SegmentKind.HEAP)
        space.write(heap.base + 4, b"\x2a")
        assert len(view) == heap.size and view[4] == 0x2A and hooks == []
        hook = lambda addr, data, w: None  # noqa: E731
        space.add_access_hook(hook)
        assert hooks == [hook]

    def test_is_mapped(self, space):
        bss = space.segment(SegmentKind.BSS)
        assert space.is_mapped(bss.base, bss.size)
        assert not space.is_mapped(bss.base, bss.size + 1)
        assert not space.is_mapped(0)

    def test_negative_read_rejected(self, space):
        with pytest.raises(ApiMisuseError):
            space.read(space.segment(SegmentKind.BSS).base, -1)

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=1000))
    def test_write_read_roundtrip_property(self, data, offset):
        space = AddressSpace()
        base = space.segment(SegmentKind.HEAP).base + offset
        space.write(base, data)
        assert space.read(base, len(data)) == data

    def test_describe_contains_all_segments(self, space):
        text = space.describe()
        for kind in SegmentKind:
            assert kind.value in text


class TestFaultingBulkWrites:
    """A zero-padded bulk write that runs off its segment faults at its
    destination without building the whole padded buffer: a corrupted
    72 MB count peaks well under 1 MB and raises the fault the full
    write raises."""

    HUGE = 9_000_001 * 8

    @staticmethod
    def _peak(action):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(SegmentationFault) as caught:
                action()
            return caught.value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _full_write_fault(space, address):
        with pytest.raises(SegmentationFault) as caught:
            space.write(address, bytes(0x10000))
        return caught.value

    def test_huge_strncpy_peaks_small_and_faults_as_before(self, space):
        stack = space.segment(SegmentKind.STACK)
        dest = stack.end - 32
        fault, peak = self._peak(lambda: space.strncpy(dest, "root", self.HUGE))
        assert peak < 1 << 20
        expected = self._full_write_fault(space, dest)
        assert (fault.address, fault.access, str(fault)) == (
            expected.address,
            expected.access,
            str(expected),
        )
        assert str(fault) == (
            f"segmentation fault: invalid write at {dest:#010x} (outside stack segment)"
        )

    def test_huge_strncpy_to_unwritable_or_unmapped_memory(self, space):
        for dest in (space.segment(SegmentKind.TEXT).base, 0x10):
            fault, peak = self._peak(lambda: space.strncpy(dest, "x", self.HUGE))
            assert peak < 1 << 20
            expected = self._full_write_fault(space, dest)
            assert str(fault) == str(expected) and fault.address == dest

    def test_strncpy_that_fits_still_pads_and_negative_counts_refused(self, space):
        dest = space.segment(SegmentKind.STACK).end - 8
        space.write(dest, b"\xff" * 8)
        space.strncpy(dest, "ab", 8)
        assert space.read(dest, 8) == b"ab" + bytes(6)
        with pytest.raises(ApiMisuseError, match="negative buffer size -1"):
            space.strncpy(dest, "ab", -1)

    @given(
        segment=st.sampled_from(list(SegmentKind)),
        back=st.integers(-4, 64),
        count=st.integers(-2, 0x12000),
        text=st.text(max_size=40),
    )
    def test_strncpy_matches_the_full_padded_write(self, segment, back, count, text):
        """Against the reference (build all ``count`` bytes, then
        write): the same fault or the same bytes, near every segment
        end, including just past it and below the next base."""
        from repro.memory.encoding import encode_c_string

        def outcome(copy):
            space = AddressSpace()
            dest = space.segment(segment).end - back
            try:
                copy(space, dest)
            except (SegmentationFault, ApiMisuseError) as error:
                return type(error), str(error), getattr(error, "address", None)
            return [bytes(seg._data) for seg in space.segments]

        assert outcome(lambda space, dest: space.strncpy(dest, text, count)) == outcome(
            lambda space, dest: space.write(dest, encode_c_string(text, buffer_size=count))
        )

    def test_huge_read_file_peaks_small_and_faults_as_before(self):
        from repro.execution import run_source
        from repro.runtime import CanaryPolicy, Machine, MachineConfig, password_file

        def run(count):
            machine = Machine(MachineConfig(canary_policy=CanaryPolicy.NONE))
            machine.files.add(password_file())
            source = (
                "int main() {\n"
                "  char buf[16];\n"
                f'  readFile("/etc/passwd", buf, {count});\n'
                "  return 0;\n"
                "}\n"
            )
            run_source(source, machine=machine)
            return machine

        assert run(16) is not None  # parses once, outside the traced window
        fault, peak = self._peak(lambda: run(self.HUGE))
        assert peak < 1 << 20
        space = Machine(MachineConfig(canary_policy=CanaryPolicy.NONE)).space
        expected = self._full_write_fault(space, fault.address)
        assert (fault.access, str(fault)) == (expected.access, str(expected))
        assert space.find_segment(fault.address).kind is SegmentKind.STACK

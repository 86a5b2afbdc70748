"""Tests for the boundary-tag heap allocator."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ApiMisuseError,
    DoubleFree,
    InvalidFree,
    OutOfMemory,
    SegmentationFault,
    SimulatedProcessError,
)
from repro.defenses.vrt import VariableRecordTable
from repro.memory import (
    HEADER_SIZE,
    AddressSpace,
    BlockInfo,
    HeapAllocator,
    Permissions,
    SegmentKind,
)
from repro.memory.tracker import ArenaOrigin
from repro.runtime import Machine, MachineConfig


@pytest.fixture
def space():
    return AddressSpace()


@pytest.fixture
def heap(space):
    return HeapAllocator(space)


class TestAllocate:
    def test_returns_payload_inside_heap(self, space, heap):
        address = heap.allocate(32)
        segment = space.segment(SegmentKind.HEAP)
        assert segment.contains(address, 32)

    def test_payloads_are_8_aligned(self, heap):
        for size in (1, 7, 13, 100):
            assert heap.allocate(size) % 8 == 0

    def test_sequential_allocations_do_not_overlap(self, heap):
        a = heap.allocate(16)
        b = heap.allocate(16)
        assert abs(a - b) >= 16 + HEADER_SIZE

    def test_adjacent_layout_header_between_payloads(self, heap):
        # Listing 12 relies on a heap object's neighbour being reachable
        # by a small overflow: payloads are separated by one header.
        a = heap.allocate(16)
        b = heap.allocate(16)
        assert b == a + 16 + HEADER_SIZE

    def test_zero_size_rejected(self, heap):
        with pytest.raises(ApiMisuseError):
            heap.allocate(0)

    def test_exhaustion_raises_oom(self, heap):
        with pytest.raises(OutOfMemory):
            heap.allocate(10**9)

    def test_many_small_until_oom(self, heap):
        count = 0
        with pytest.raises(OutOfMemory):
            while True:
                heap.allocate(4096)
                count += 1
        assert count > 10


class TestFree:
    def test_free_then_reuse(self, heap):
        a = heap.allocate(64)
        heap.free(a)
        b = heap.allocate(64)
        assert b == a  # first-fit reuses the freed block

    def test_double_free_detected(self, heap):
        a = heap.allocate(32)
        heap.free(a)
        with pytest.raises(DoubleFree):
            heap.free(a)

    def test_wild_free_detected(self, heap, space):
        with pytest.raises(InvalidFree):
            heap.free(space.segment(SegmentKind.HEAP).base + 1024)

    def test_unmapped_free_detected(self, heap):
        with pytest.raises(InvalidFree):
            heap.free(0x1000)

    def test_free_outside_the_heap_is_wild_whatever_precedes_it(self, space, heap):
        # A forged free header in front of a global does not make its
        # delete a double free: the allocator reads headers in its heap
        # only.
        bss = space.segment(SegmentKind.BSS).base
        space.write(bss, struct.pack("<II", 16, 0xF4EEF4EE))
        with pytest.raises(InvalidFree):
            heap.free(bss + HEADER_SIZE)

    def test_coalescing_restores_large_block(self, heap):
        before = heap.largest_free_block()
        blocks = [heap.allocate(1000) for _ in range(8)]
        for block in blocks:
            heap.free(block)
        assert heap.largest_free_block() == before

    def test_bytes_in_use_accounting(self, heap):
        assert heap.bytes_in_use == 0
        a = heap.allocate(100)
        used = heap.bytes_in_use
        assert used >= 100
        heap.free(a)
        assert heap.bytes_in_use == 0


class TestCorruption:
    def test_overflow_tramples_next_header(self, space, heap):
        # Writing past one payload corrupts the next block's header,
        # exactly what a placement-new heap overflow does.
        a = heap.allocate(16)
        heap.allocate(16)
        assert not heap.is_corrupted()
        space.write(a + 16, b"\xde\xad\xbe\xef" * 2)
        assert heap.is_corrupted()

    def test_free_of_corrupted_block_is_invalid(self, space, heap):
        a = heap.allocate(16)
        b = heap.allocate(16)
        space.write(a + 16, b"\x00" * HEADER_SIZE)
        with pytest.raises(InvalidFree):
            heap.free(b)

    def test_block_walk_stops_at_corruption(self, space, heap):
        a = heap.allocate(16)
        heap.allocate(16)
        space.write(a + 16, b"\xff" * HEADER_SIZE)
        infos = list(heap.blocks())
        assert infos[-1].corrupted


class TestCounters:
    def test_allocation_count_and_live_blocks(self, heap):
        a = heap.allocate(8)
        b = heap.allocate(8)
        heap.free(a)
        assert heap.allocation_count == 2
        live = [block for block in heap.blocks() if block.allocated]
        assert [block.payload_address for block in live] == [b]
        assert heap.bytes_in_use == live[0].payload_size


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=40)
)
def test_property_allocate_free_all_restores_heap(sizes):
    """Allocating any mix then freeing everything restores one block."""
    space = AddressSpace()
    heap = HeapAllocator(space)
    initial = heap.largest_free_block()
    addresses = [heap.allocate(size) for size in sizes]
    assert len(set(addresses)) == len(addresses)
    for address in addresses:
        heap.free(address)
    assert heap.largest_free_block() == initial
    assert heap.bytes_in_use == 0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=512), min_size=2, max_size=30),
    st.randoms(),
)
def test_property_interleaved_blocks_never_overlap(sizes, rng):
    """Live payload ranges stay pairwise disjoint under any free order."""
    space = AddressSpace()
    heap = HeapAllocator(space)
    live: dict[int, int] = {}
    for index, size in enumerate(sizes):
        address = heap.allocate(size)
        live[address] = size
        if index % 3 == 2 and live:
            victim = rng.choice(sorted(live))
            heap.free(victim)
            del live[victim]
        ranges = sorted((addr, addr + sz) for addr, sz in live.items())
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 <= s2


# -- generated heap sessions ----------------------------------------------

_MAGICS = (0xA110C8ED, 0xF4EEF4EE, 0x0, 0x41414141)

#: One step of a heap session.  Frees and tramples pick an issued payload
#: by index (so a freed one is a double free); ``wild`` frees an arbitrary
#: heap address; ``trample`` writes raw bytes around a header; ``magic``
#: overwrites only a header's status word; ``header`` forges a whole
#: header (size, magic), e.g. a free block whose size runs past the
#: segment end.  Allocations and frees are drawn more often than the
#: tramples, and a few common sizes make exact first fits likely.
_SMALL_ALLOC = st.tuples(st.just("alloc"), st.sampled_from([1, 8, 16, 24, 40, 100]))
_FREE = st.tuples(st.just("free"), st.integers(min_value=0, max_value=63))
_HEAP_OP = st.one_of(
    _SMALL_ALLOC,
    _SMALL_ALLOC,
    _FREE,
    _FREE,
    st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=600)),
    st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=0x48000)),
    st.tuples(st.just("wild"), st.integers(min_value=0, max_value=0x3FFF8)),
    st.tuples(
        st.just("trample"),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=-8, max_value=8),
        st.binary(min_size=1, max_size=12),
    ),
    st.tuples(
        st.just("magic"),
        st.integers(min_value=0, max_value=63),
        st.sampled_from(_MAGICS),
    ),
    st.tuples(
        st.just("header"),
        st.integers(min_value=0, max_value=63),
        st.one_of(
            st.integers(min_value=0, max_value=2048),
            st.sampled_from([0x3FFF8, 0x40000, 0xFFFFFFF0, 0xFFFFFFF8]),
        ),
        st.sampled_from(_MAGICS),
    ),
)
_HEAP_OPS = st.lists(_HEAP_OP, max_size=40)


def _run_heap_session(
    ops,
    hooked: bool,
    strict: bool = False,
    recorder=None,
    heap_cls=HeapAllocator,
) -> tuple:
    """Replay ``ops`` on a fresh ``heap_cls``; returns ``(transcript,
    state, reads)``, where ``reads`` are the addresses a read-observing
    hook attached when ``hooked`` saw.  ``recorder``, when given, is
    attached as an access hook before the heap is built, so it sees
    every header write."""
    space = AddressSpace(strict_alignment=strict)
    reads = []
    if hooked:
        space.add_access_hook(
            lambda address, data, is_write: is_write or reads.append(address)
        )
    if recorder is not None:
        space.add_access_hook(recorder)
    heap = heap_cls(space)
    segment = space.segment(SegmentKind.HEAP)
    issued: list[int] = []
    transcript = []
    for op in ops:
        try:
            transcript.append(("ok", _apply(op, heap, space, segment, issued)))
        except Exception as error:  # compared by type and message
            transcript.append((type(error).__name__, str(error)))
    try:
        walk = list(heap.blocks())
    except Exception as error:
        walk = (type(error).__name__, str(error))
    state = (
        heap.bytes_in_use,
        heap.allocation_count,
        walk,
        bytes(segment.read(segment.base, segment.size)),
    )
    return transcript, state, reads


def _apply(op, heap, space, segment, issued):
    """Run one session step; the payload address of an allocation, else
    None."""
    if op[0] == "alloc":
        address = heap.allocate(op[1])
        issued.append(address)
        return address
    if not issued and op[0] != "wild":
        return None
    if op[0] == "free":
        heap.free(issued[op[1] % len(issued)])
    elif op[0] == "wild":
        heap.free(segment.base + op[1])
    elif op[0] == "trample":
        _, index, delta, data = op
        header = issued[index % len(issued)] - HEADER_SIZE
        target = max(segment.base, header + delta)
        space.write(min(target, segment.end - len(data)), data)
    elif op[0] == "magic":
        _, index, magic = op
        status = issued[index % len(issued)] - 4
        space.write(status, struct.pack("<I", magic))
    else:
        _, index, size, magic = op
        header = issued[index % len(issued)] - HEADER_SIZE
        space.write(header, struct.pack("<II", size, magic))
    return None


# -- the unpacked walk vs its read_int reference model --------------------


class _Recorder:
    """An access hook that logs every ``(address, bytes, is_write)``."""

    def __init__(self) -> None:
        self.log: list = []

    def __call__(self, address: int, data: bytes, is_write: bool) -> None:
        self.log.append((address, bytes(data), is_write))


class _RestartWalk(HeapAllocator):
    """Reference model: every header read through ``read_int``.

    First fit walks :meth:`blocks`; coalescing merges the first pair of
    adjacent free blocks and restarts from the base, until a walk finds
    no pair or a merge stores a (header, size) an earlier merge stored.
    Its header reads reach every hook, as all of them once did.
    """

    def __init__(self, space):
        super().__init__(space)
        self._header = self._read_int_header  # free's header check too

    def _read_int_header(self, offset):
        read_int, address = self._space.read_int, self._base + offset
        return read_int(address, 4, False), read_int(address + 4, 4, False)

    def _read_header(self, header_addr):
        payload_size, magic = self._read_int_header(header_addr - self._base)
        return BlockInfo(
            header_address=header_addr,
            payload_address=header_addr + HEADER_SIZE,
            payload_size=payload_size,
            allocated=magic == 0xA110C8ED,
            corrupted=magic not in (0xA110C8ED, 0xF4EEF4EE),
        )

    def blocks(self):
        cursor = self._base
        while cursor + HEADER_SIZE <= self._end:
            info = self._read_header(cursor)
            yield info
            cursor += HEADER_SIZE + info.payload_size
            if info.corrupted or cursor > self._end:
                return

    def _first_fit(self, needed):
        for block in self.blocks():
            if block.corrupted:
                return None
            if not block.allocated and block.payload_size >= needed:
                return block
        return None

    def _coalesce(self):
        cursor, previous, stored = self._base, None, []
        while cursor + HEADER_SIZE <= self._end:
            block = self._read_header(cursor)
            if block.corrupted:
                return
            if previous is not None and not previous.allocated and not block.allocated:
                combined = previous.payload_size + HEADER_SIZE + block.payload_size
                self._write_header(previous.header_address, combined, allocated=False)
                merge = (previous.header_address, combined % 2**32)
                if merge in stored:
                    return
                stored.append(merge)
                cursor, previous = self._base, None
                continue
            previous = block
            cursor = block.header_address + HEADER_SIZE + block.payload_size


def _writes(log):
    return [call for call in log if call[2]]


@settings(deadline=None)
@given(_HEAP_OPS, st.booleans())
@example([("alloc", 16), ("alloc", 16), ("free", 0), ("alloc", 16)], False)  # exact fit
@example([("alloc", 16), ("alloc", 16), ("magic", 0, 0x41414141), ("free", 1)], False)
@example(
    [("alloc", 16), ("alloc", 16), ("alloc", 16), ("free", 0), ("free", 2), ("free", 1)],
    False,
)
@example(
    [
        ("alloc", 32),
        ("alloc", 16),
        ("header", 1, 0x1_0000_0000 - 32, 0xF4EEF4EE),
        ("free", 0),
    ],
    False,
)
@example(
    [
        ("alloc", 8),
        ("alloc", 16),
        ("header", 1, 0xFFFFFFF0, 0xF4EEF4EE),
        ("trample", 0, 8, struct.pack("<II", 0, 0xF4EEF4EE)),
        ("free", 0),
    ],
    False,
)
def test_hook_log_matches_the_reference_walk(ops, strict):
    """The one-pass walk that unpacks its headers gives the restarting
    ``read_int`` model's payload addresses, exceptions, block walk and
    heap bytes, and every hook sees the model's header writes, in order
    and with their bytes, and no read at all."""
    recorder, reference = _Recorder(), _Recorder()
    transcript, state, _ = _run_heap_session(
        ops, hooked=False, strict=strict, recorder=recorder
    )
    expected_transcript, expected_state, _ = _run_heap_session(
        ops, hooked=False, strict=strict, recorder=reference, heap_cls=_RestartWalk
    )
    assert transcript == expected_transcript
    assert state == expected_state
    assert recorder.log == _writes(reference.log)
    assert recorder.log != reference.log  # the model's reads reached the hook


class _ReadLoggingVrt(VariableRecordTable):
    """A VRT that also logs every read notification it is given."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.reads: list = []

    def _on_access(self, address: int, data: bytes, is_write: bool) -> None:
        if not is_write:
            self.reads.append((address, len(data)))
        super()._on_access(address, data, is_write)


#: A session step that reads an issued payload, as the program would.
_READ = st.tuples(st.just("read"), st.integers(min_value=0, max_value=63))


@settings(deadline=None)
@given(st.lists(st.one_of(_HEAP_OP, _READ, _READ), max_size=40))
def test_vrt_sees_no_header_read(steps):
    """Under an armed VRT, allocate/free/trample sequences whose program
    reads payloads: every read notification the VRT is given is one of
    the program's own reads, and none falls on a header the allocator
    read during the step."""
    machine = Machine(MachineConfig())
    heap, space = machine.heap, machine.space
    segment = space.segment(SegmentKind.HEAP)
    table = _ReadLoggingVrt(machine)
    table.arm()
    headers: list = []
    walked = []
    unpack = heap._header
    heap._header = lambda offset: headers.append(segment.base + offset) or unpack(offset)
    issued: list = []
    sizes: dict = {}
    program_reads: list = []
    for step in steps:
        headers.clear()
        before = len(table.reads)
        try:
            if step[0] == "read":
                if not issued:
                    continue
                address = issued[step[1] % len(issued)]
                program_reads.append((address, sizes[address]))
                space.read(address, sizes[address])
            elif step[0] == "alloc":
                address = heap.allocate(step[1])
                machine.tracker.record(address, step[1], ArenaOrigin.HEAP_NEW)
                sizes[address] = step[1]
                issued.append(address)
            elif step[0] == "free" and issued:
                address = issued[step[1] % len(issued)]
                machine.tracker.mark_freed(address)
                heap.free(address)
            else:
                _apply(step, heap, space, segment, issued)
        except SimulatedProcessError:  # the heap's and the VRT's own faults
            pass
        for address, length in table.reads[before:]:
            for header in headers:
                assert not (address < header + HEADER_SIZE and header < address + length)
        walked.append(bool(headers))
    assert table.reads == program_reads
    if any(step[0] == "alloc" for step in steps):
        assert any(walked)  # the allocator really read its headers


def test_allocator_reads_reach_no_hook():
    """Allocating, freeing and coalescing read many headers; a hook that
    observes reads is told of none of them."""
    ops = [("alloc", 16), ("alloc", 24), ("alloc", 40), ("free", 1), ("free", 0)]
    ops += [("alloc", 8), ("free", 2), ("wild", 0x100)]
    transcript, _, reads = _run_heap_session(ops, hooked=True)
    assert [outcome for outcome, _ in transcript] == ["ok"] * 7 + ["InvalidFree"]
    assert reads == []


@pytest.mark.parametrize("hooked", [False, True])
def test_strict_alignment_walk_faults_on_a_trampled_size(hooked):
    """A trampled size that leaves the next header misaligned: on a
    strict-alignment target the walk's next header read is a bus error,
    with or without an observer."""
    ops = [
        ("alloc", 16),
        ("alloc", 16),
        ("header", 0, 17, 0xA110C8ED),
        ("alloc", 16),
        ("free", 1),
    ]
    transcript, _, _ = _run_heap_session(ops, hooked=hooked, strict=True)
    base = AddressSpace().segment(SegmentKind.HEAP).base
    misaligned = base + HEADER_SIZE + 17
    assert transcript[:3] == [("ok", base + 8), ("ok", base + 32), ("ok", None)]
    assert transcript[3][0] == "BusError"
    assert f"{misaligned:#010x}" in transcript[3][1]
    assert transcript[4][0] == "BusError"
    lenient, _, _ = _run_heap_session(ops, hooked=hooked, strict=False)
    assert lenient[3][0] != "BusError"


def test_unreadable_heap_faults_at_the_first_header():
    """The allocator's header reads bypass the hooks, not the segment's
    permissions: on an unreadable heap the first walk segfaults at the
    base, as ``read_int`` would."""
    space = AddressSpace()
    segment = space.segment(SegmentKind.HEAP)
    segment.permissions = Permissions(read=False, write=True, execute=False)
    segment._readable = False
    space._rebuild_index()
    heap = HeapAllocator(space)
    with pytest.raises(SegmentationFault, match="not readable") as excinfo:
        heap.allocate(16)
    assert excinfo.value.address == segment.base
    with pytest.raises(SegmentationFault):
        list(heap.blocks())


@pytest.mark.parametrize("hooked", [False, True])
def test_merges_that_cycle_through_wrapped_sizes_stop(hooked):
    """Free block A (8 bytes) absorbs a forged free neighbour whose size
    wraps A's to 0, which exposes a forged free header of size 0 at A+8;
    absorbing that gives A size 8 again, so A's neighbour follows once
    more.  The walk stops at the first repeated merge instead of
    cycling forever."""
    space = AddressSpace()
    if hooked:
        space.add_access_hook(lambda address, data, is_write: None)
    heap = HeapAllocator(space)
    a = heap.allocate(8)
    b = heap.allocate(16)
    space.write(b - HEADER_SIZE, struct.pack("<II", 0xFFFFFFF0, 0xF4EEF4EE))
    space.write(a, struct.pack("<II", 0, 0xF4EEF4EE))
    heap.free(a)
    header = struct.unpack("<II", space.read(a - HEADER_SIZE, HEADER_SIZE))
    assert header == (0, 0xF4EEF4EE)


@pytest.mark.parametrize("hooked", [False, True])
def test_merge_that_wraps_the_size_field_continues_from_the_stored_size(hooked):
    """Free block A absorbs a forged free neighbour whose size wraps the
    32-bit field to 8.  The restarting walk re-reads A's stored size, so
    it next finds the header forged at A+16 inside A's old payload and
    merges that too; the one-pass walk must do the same."""
    space = AddressSpace()
    if hooked:
        space.add_access_hook(lambda address, data, is_write: None)
    heap = HeapAllocator(space)
    a = heap.allocate(32)
    b = heap.allocate(16)
    base = a - HEADER_SIZE
    space.write(b - HEADER_SIZE, struct.pack("<II", 0x1_0000_0000 - 32, 0xF4EEF4EE))
    space.write(a + 8, struct.pack("<II", 8, 0xF4EEF4EE))
    heap.free(a)
    # 32 + 8 + (2**32 - 32) wraps to 8; then 8 + 8 + 8 = 24.
    assert struct.unpack("<II", space.read(base, HEADER_SIZE)) == (24, 0xF4EEF4EE)

"""Differential test: ``AddressSpace``'s fast paths against a slow reference.

``AddressSpace`` resolves an address by bisect over its sorted segment
bases, tries the last segment hit first (``_last_index``), copies
through the backing store in one frame, and scans C strings for their
terminator at C speed across adjacent segments.  The reference model
here does none of that: it finds the segment by a linear scan, moves
bytes only through ``Segment.read``/``Segment.write``, and reads a C
string one byte at a time.

Random operation sequences, with addresses drawn around every segment's
base and end and in the gaps between segments, must give the same
result or the same exception (type and message), the same hook log and
the same final bytes in every segment, with and without a recording
hook.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ApiMisuseError, BusError, SegmentationFault
from repro.memory import DEFAULT_LAYOUT, AddressSpace, Segment, SegmentKind

#: Five small segments: data follows text and bss follows data with no
#: gap, a gap separates bss from the heap, and the stack follows the
#: heap.  Every 0–64 byte access can reach a boundary.
COMPACT_LAYOUT = {
    SegmentKind.TEXT: (0x1000, 0x40),
    SegmentKind.DATA: (0x1040, 0x40),
    SegmentKind.BSS: (0x1080, 0x20),
    SegmentKind.HEAP: (0x10C0, 0x40),
    SegmentKind.STACK: (0x1100, 0x40),
}

LAYOUTS = {"default": DEFAULT_LAYOUT, "compact": COMPACT_LAYOUT}


def _boundaries(layout: dict) -> tuple[list[int], list[int]]:
    """``(exact, anchors)``: the addresses just around every segment's
    base and end plus the middle of every gap, and the bases and ends
    that random offsets are added to."""
    spans = sorted((base, base + size) for base, size in layout.values())
    exact, anchors = [0], []
    for base, end in spans:
        exact += [base - 1, base, base + 1, end - 1, end, end + 1]
        anchors += [base, end]
    for (_, end), (base, _) in zip(spans, spans[1:]):
        if end < base:
            exact.append((end + base) // 2)
    exact.append(spans[-1][1] + 0x1000)
    return exact, anchors


def _address(layout: dict) -> st.SearchStrategy:
    exact, anchors = _boundaries(layout)
    near = st.builds(
        lambda anchor, delta: anchor + delta,
        st.sampled_from(anchors),
        st.integers(-70, 70),
    )
    return st.one_of(st.sampled_from(exact), near)


_LENGTH = st.integers(0, 64)
_DATA = st.one_of(
    st.binary(max_size=64),
    # Runs of one non-zero byte: C strings that reach a segment end.
    st.builds(lambda byte, count: bytes((byte,)) * count, st.integers(1, 255), _LENGTH),
)
_WIDTH = st.sampled_from([1, 2, 4, 8])


def _ops(layout: dict) -> st.SearchStrategy:
    address = _address(layout)
    op = st.one_of(
        st.tuples(st.just("read"), address, st.integers(-1, 64)),
        st.tuples(st.just("write"), address, _DATA, st.booleans()),
        st.tuples(
            st.just("fill"),
            address,
            st.integers(-1, 64),
            st.sampled_from([0, 0x41, 0xFF, 256]),
        ),
        st.tuples(st.just("read_int"), address, _WIDTH, st.booleans()),
        st.tuples(
            st.just("write_int"),
            address,
            st.integers(-(2**65), 2**65),
            _WIDTH,
            st.booleans(),
        ),
        st.tuples(
            st.just("read_c_string"),
            address,
            st.one_of(st.integers(-1, 64), st.just(4096)),
        ),
        st.tuples(st.just("locate"), address, _LENGTH, st.booleans()),
        st.tuples(st.just("find_segment"), address),
    )
    return st.lists(op, max_size=40)


@st.composite
def _sessions(draw):
    name = draw(st.sampled_from(sorted(LAYOUTS)))
    return name, draw(_ops(LAYOUTS[name])), draw(st.booleans()), draw(st.booleans())


class _Recorder:
    """An access hook that logs every ``(address, type, bytes, is_write)``."""

    def __init__(self) -> None:
        self.log: list = []

    def __call__(self, address: int, data: bytes, is_write: bool) -> None:
        self.log.append((address, type(data), bytes(data), is_write))


class _Reference:
    """The slow path: linear segment lookup, ``Segment.read``/``write``
    only, and a per-byte C-string scan."""

    def __init__(self, layout: dict, strict: bool, hooked: bool) -> None:
        geometry = dict(DEFAULT_LAYOUT)
        geometry.update(layout)
        self.segments = [
            Segment(kind=kind, base=base, size=size)
            for kind, (base, size) in sorted(geometry.items(), key=lambda kv: kv[1][0])
        ]
        self.strict = strict
        self.hooked = hooked
        self.log: list = []

    def _segment(self, address: int):
        for segment in self.segments:
            if segment.base <= address < segment.base + segment.size:
                return segment
        return None

    def _notify(self, address: int, data: bytes, is_write: bool) -> None:
        if self.hooked:
            self.log.append((address, bytes, data, is_write))

    def _check_aligned(self, address: int, width: int, access: str) -> None:
        if self.strict and address % width != 0:
            raise BusError(address, width, access)

    def read(self, address: int, length: int) -> bytes:
        if length < 0:
            raise ApiMisuseError(f"negative read length {length}")
        segment = self._segment(address)
        if segment is None:
            raise SegmentationFault(address, "read", "address is unmapped")
        data = segment.read(address, length)
        self._notify(address, data, False)
        return data

    def write(self, address: int, data: bytes, as_bytearray: bool = False) -> None:
        data = bytes(data)
        segment = self._segment(address)
        if segment is None:
            raise SegmentationFault(address, "write", "address is unmapped")
        segment.write(address, data)
        self._notify(address, data, True)

    def fill(self, address: int, length: int, byte: int) -> None:
        segment = self._segment(address)
        if segment is None:
            raise SegmentationFault(address, "write", "address is unmapped")
        if not 0 <= byte <= 0xFF:
            raise ApiMisuseError(f"fill byte out of range: {byte}")
        data = bytes((byte,)) * max(length, 0)
        segment.write(address, data)
        self._notify(address, data, True)

    def read_int(self, address: int, width: int, signed: bool) -> int:
        self._check_aligned(address, width, "read")
        return int.from_bytes(self.read(address, width), "little", signed=signed)

    def write_int(self, address: int, value: int, width: int, signed: bool) -> None:
        self._check_aligned(address, width, "write")
        self.write(address, (value % (1 << (8 * width))).to_bytes(width, "little"))

    def read_c_string(self, address: int, max_length: int) -> str:
        segment = self._segment(address)
        if segment is None:
            raise SegmentationFault(address, "read", "address is unmapped")
        if not segment.permissions.read:
            raise SegmentationFault(address, "read", "segment is not readable")
        scanned = bytearray()
        terminated = False
        for cursor in range(address, address + max(max_length, 0)):
            segment = self._segment(cursor)
            if segment is None:
                raise SegmentationFault(cursor, "read", "address is unmapped")
            if not segment.permissions.read:
                raise SegmentationFault(cursor, "read", "segment is not readable")
            byte = segment.read(cursor, 1)
            scanned += byte
            if byte == b"\x00":
                terminated = True
                break
        if max_length > 0:
            self._notify(address, bytes(scanned), False)
        text = scanned[:-1] if terminated else scanned
        return text.decode("latin-1", errors="replace")

    def locate(self, address: int, length: int, writable: bool):
        if self.hooked or self.strict:
            return None
        segment = self._segment(address)
        if segment is None:
            return None
        if not (segment.permissions.write if writable else segment.permissions.read):
            return None
        offset = address - segment.base
        if offset + length > segment.size:
            return None
        return segment.kind, offset

    def find_segment(self, address: int):
        segment = self._segment(address)
        return None if segment is None else segment.kind

    def snapshot(self) -> list:
        return [segment.snapshot() for segment in self.segments]


class _Fast:
    """The same operations on a real ``AddressSpace``, with ``locate``
    and ``find_segment`` results reduced to comparable values."""

    def __init__(self, layout: dict, strict: bool, hooked: bool) -> None:
        self.space = AddressSpace(layout=layout, strict_alignment=strict)
        self.recorder = _Recorder()
        if hooked:
            self.space.add_access_hook(self.recorder)
        self.log = self.recorder.log

    def __getattr__(self, name):
        return getattr(self.space, name)

    def write(self, address: int, data: bytes, as_bytearray: bool = False) -> None:
        self.space.write(address, bytearray(data) if as_bytearray else data)

    def locate(self, address: int, length: int, writable: bool):
        located = self.space.locate(address, length, writable)
        if located is None:
            return None
        view, offset = located
        owner = next(s for s in self.space.segments if s._view.obj is view.obj)
        return owner.kind, offset

    def find_segment(self, address: int):
        segment = self.space.find_segment(address)
        return None if segment is None else segment.kind

    def snapshot(self) -> list:
        return [segment.snapshot() for segment in self.space.segments]


def _replay(model, ops: list) -> list:
    transcript = []
    for op in ops:
        name, *args = op
        try:
            transcript.append(("ok", getattr(model, name)(*args)))
        except Exception as error:  # compared by type and message
            transcript.append((type(error).__name__, str(error)))
    return transcript


def _compare(layout_name: str, ops: list, strict: bool, hooked: bool) -> None:
    layout = LAYOUTS[layout_name]
    fast = _Fast(layout, strict, hooked)
    reference = _Reference(layout, strict, hooked)
    assert _replay(fast, ops) == _replay(reference, ops)
    assert fast.log == reference.log
    assert fast.snapshot() == reference.snapshot()


@settings(deadline=None)
@given(_sessions())
@example(  # alternate segments so the locality cache misses every time
    (
        "default",
        [
            ("write", 0x0804FFFE, b"AB", False),
            ("read", 0xBFFF0000, 4),
            ("read", 0x0804FFFE, 2),
            ("read", 0x08060000, 0),
            ("read_c_string", 0x0804FFFE, 4096),
        ],
        False,
        True,
    )
)
@example(  # a string running from data through bss into the gap
    (
        "compact",
        [
            ("fill", 0x1040, 0x40, 0x41),
            ("fill", 0x1080, 0x20, 0x42),
            ("read_c_string", 0x107E, 4096),
            ("read_c_string", 0x107E, 34),
        ],
        False,
        True,
    )
)
@example(  # zero-length accesses one past a segment's end
    (
        "compact",
        [
            ("read", 0x1140, 0),
            ("write", 0x10A0, b"", False),
            ("fill", 0x1100 - 1, 0, 0),
            ("locate", 0x1140, 0, False),
            ("read", 0x1040, -1),
        ],
        True,
        False,
    )
)
@example(  # raw views that end exactly at a segment's end
    (
        "compact",
        [
            ("locate", 0x10FC, 4, True),
            ("locate", 0x103C, 4, True),
            ("locate", 0x103C, 4, False),
            ("locate", 0x109F, 2, False),
        ],
        False,
        False,
    )
)
def test_fast_paths_match_the_reference(session):
    """Every result, exception, hook notification and final byte of a
    random access sequence equals the slow-path reference's."""
    _compare(*session)

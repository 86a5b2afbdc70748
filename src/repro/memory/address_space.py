"""The flat virtual address space of the simulated process.

An :class:`AddressSpace` maps virtual addresses to :class:`Segment`
objects laid out like a classic 32-bit Linux/ELF process image::

    0x08048000  text   (code; vtables and function entry points live here)
    0x0804c000  data   (initialized globals)
    0x08050000  bss    (zero-initialized globals)
    0x08060000  heap   (grows upward)
    0xbfff0000  stack  (grows downward from 0xc0000000)

All reads and writes in the library flow through this class, so it is the
single choke point where watchpoints, taint propagation and the shadow
memory sanitizer hook in.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

from ..errors import ApiMisuseError, SegmentationFault
from . import encoding
from .segments import Permissions, Segment, SegmentKind

# Default image geometry (see module docstring).
DEFAULT_LAYOUT = {
    SegmentKind.TEXT: (0x08048000, 0x4000),
    SegmentKind.DATA: (0x0804C000, 0x4000),
    SegmentKind.BSS: (0x08050000, 0x8000),
    SegmentKind.HEAP: (0x08060000, 0x40000),
    SegmentKind.STACK: (0xBFFF0000, 0x10000),
}

#: Signature of a memory-access observer: (address, data, is_write).
AccessHook = Callable[[int, bytes, bool], None]

#: Signature of a typed-access guard: (base, address, length, is_write).
#: Unlike an :data:`AccessHook`, a guard also receives the *referent* —
#: the base address of the object or array the access was derived from —
#: so provenance-aware defenses (per-allocation bounds tables, memory
#: tagging) can reject a dereference that a raw address trace cannot
#: distinguish from a legitimate neighbour access.
TypedGuard = Callable[[int, int, int, bool], None]


class AddressSpace:
    """Byte-addressable memory of one simulated process."""

    def __init__(
        self,
        layout: Optional[dict] = None,
        nx_stack: bool = False,
        nx_heap: bool = False,
        strict_alignment: bool = False,
    ) -> None:
        """Create the process image.

        ``nx_stack`` / ``nx_heap`` strip execute permission from those
        segments, modelling the non-executable-stack mitigation the paper
        discusses for legacy software (Section 5.2).  ``strict_alignment``
        makes misaligned typed accesses fault with a bus error, modelling
        the strict targets behind the paper's §2.5 alignment warning
        (x86, the paper's testbed, is permissive — the default).
        """
        self.strict_alignment = strict_alignment
        self._segments: list[Segment] = []
        self._hooks: list[AccessHook] = []
        self._typed_guards: list[TypedGuard] = []
        geometry = dict(DEFAULT_LAYOUT)
        if layout:
            geometry.update(layout)
        for kind, (base, size) in sorted(geometry.items(), key=lambda kv: kv[1][0]):
            permissions = None
            if kind is SegmentKind.STACK and nx_stack:
                permissions = Permissions(read=True, write=True, execute=False)
            if kind is SegmentKind.HEAP and nx_heap:
                permissions = Permissions(read=True, write=True, execute=False)
            self._segments.append(
                Segment(kind=kind, base=base, size=size, permissions=permissions)
            )
        self._check_no_overlap()
        self._rebuild_index()

    def _check_no_overlap(self) -> None:
        ordered = sorted(self._segments, key=lambda s: s.base)
        for before, after in zip(ordered, ordered[1:]):
            if before.end > after.base:
                raise ApiMisuseError(
                    f"segments overlap: {before.describe()} vs {after.describe()}"
                )

    # -- segment lookup ---------------------------------------------------

    def _rebuild_index(self) -> None:
        """Precompute the sorted lookup tables every access uses.

        Must be called after any change to the segment list (segments
        are immutable after construction today, so in practice this
        runs once).  ``find_segment`` then costs one C-level bisect
        instead of a linear scan of method calls.
        """
        ordered = tuple(sorted(self._segments, key=lambda s: s.base))
        self._ordered: tuple[Segment, ...] = ordered
        self._bases: list[int] = [seg.base for seg in ordered]
        self._ends: list[int] = [seg.end for seg in ordered]
        # Parallel views of each segment's backing store and permission
        # bits: read/write then run as one Python frame over C-level
        # bisect + slice operations, with the Segment methods kept as
        # the slow path that raises the precise fault.
        self._sizes: list[int] = [seg.size for seg in ordered]
        self._datas: list[bytearray] = [seg._data for seg in ordered]
        self._views: list[memoryview] = [seg._view for seg in ordered]
        self._readable: list[bool] = [seg.permissions.read for seg in ordered]
        self._writable: list[bool] = [seg.permissions.write for seg in ordered]
        self._by_kind: dict[SegmentKind, Segment] = {}
        for seg in ordered:
            self._by_kind.setdefault(seg.kind, seg)
        # Locality cache: most access sequences stay within one segment,
        # so read/write try the last segment hit before bisecting.  Only
        # ever set to a valid index (the layout always maps the five
        # default kinds, so ordered is never empty).
        self._last_index = 0

    @property
    def segments(self) -> Iterable[Segment]:
        """The mapped segments, in address order (cached, never re-sorted)."""
        return self._ordered

    def segment(self, kind: SegmentKind) -> Segment:
        """Return the (single) segment of ``kind``."""
        try:
            return self._by_kind[kind]
        except KeyError:
            raise ApiMisuseError(f"no segment of kind {kind}") from None

    def find_segment(self, address: int) -> Optional[Segment]:
        """Return the segment mapping ``address``, or None if it is unmapped."""
        i = bisect_right(self._bases, address) - 1
        if i >= 0 and address < self._ends[i]:
            return self._ordered[i]
        return None

    def is_mapped(self, address: int, length: int = 1) -> bool:
        """True if the whole range is inside one mapped segment."""
        seg = self.find_segment(address)
        return seg is not None and seg.contains(address, length)

    # -- observers ---------------------------------------------------------

    def add_access_hook(self, hook: AccessHook) -> None:
        """Register an observer called on every read and write."""
        self._hooks.append(hook)

    def remove_access_hook(self, hook: AccessHook) -> None:
        """Unregister a previously added observer."""
        self._hooks.remove(hook)

    def _notify(self, address: int, data: bytes, is_write: bool) -> None:
        # Callers guard with ``if self._hooks`` so the zero-observer hot
        # path never pays for the call or the notification copy.
        for hook in self._hooks:
            hook(address, data, is_write)

    def add_typed_guard(self, guard: TypedGuard) -> None:
        """Register a provenance-aware guard for typed accesses.

        Typed views (:class:`~repro.cxx.object_model.Instance`,
        :class:`~repro.cxx.object_model.CArrayView`) call every guard
        before each field/element access with the view's base address as
        the referent.  Guards raise to fault the access.  Note that
        ``locate()`` keeps returning fast-path ranges while only typed
        guards are registered — typed access never goes through
        ``locate`` — so guards that also need to see *raw* bulk accesses
        must register an :data:`AccessHook` as well.
        """
        self._typed_guards.append(guard)

    def remove_typed_guard(self, guard: TypedGuard) -> None:
        """Unregister a previously added typed guard."""
        self._typed_guards.remove(guard)

    def check_typed_access(
        self, base: int, address: int, length: int, is_write: bool
    ) -> None:
        """Run every typed guard for an access derived from ``base``."""
        for guard in self._typed_guards:
            guard(base, address, length, is_write)

    def observers_repeat_safe(self) -> bool:
        """True when every hook and typed guard declares itself
        repeat-safe: repeating an access it has already seen at the same
        (address, length, is_write) changes neither its state nor its
        outcome.  An observer declares it with a true ``repeat_safe``
        attribute on itself or, for a bound method, on its owner."""
        return all(
            getattr(getattr(observer, "__self__", observer), "repeat_safe", False)
            for observer in (*self._hooks, *self._typed_guards)
        )

    @contextmanager
    def unobserved(self) -> Iterator[list]:
        """Run a block that no hook or typed guard sees.

        Yields the list the block's raw accesses are recorded into, as
        ``(address, length, is_write)``; every observer is back in place
        on exit.  For side-effect-free probes that must not touch any
        observer's state.
        """
        # In place: typed views hold the guard list itself.
        hooks, guards = self._hooks[:], self._typed_guards[:]
        accesses: list = []
        self._hooks[:] = [
            lambda address, data, is_write: accesses.append(
                (address, len(data), is_write)
            )
        ]
        self._typed_guards.clear()
        try:
            yield accesses
        finally:
            self._hooks[:] = hooks
            self._typed_guards[:] = guards

    # -- raw access ----------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``.

        The range may not straddle two segments — real processes have
        unmapped guard gaps between segments, and running off the end of
        one is exactly the segfault the paper's wild overflows produce.
        """
        if length < 0:
            raise ApiMisuseError(f"negative read length {length}")
        i = self._last_index
        if not self._bases[i] <= address < self._ends[i]:
            i = bisect_right(self._bases, address) - 1
            if i < 0 or address >= self._ends[i]:
                raise SegmentationFault(address, "read", "address is unmapped")
            self._last_index = i
        offset = address - self._bases[i]
        stop = offset + length
        if stop <= self._sizes[i] and self._readable[i]:
            data = bytes(self._views[i][offset:stop])
            for hook in self._hooks:
                hook(address, data, False)
            return data
        # Unreadable segment or a range straddling the segment end: the
        # segment raises the precise fault.
        return self._ordered[i].read(address, length)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address`` (no bounds checking
        beyond segment limits — this is what makes overflows possible)."""
        if not isinstance(data, bytes):
            # Convert exactly once; the same object feeds the segment
            # store and the hook notification.
            data = bytes(data)
        i = self._last_index
        if not self._bases[i] <= address < self._ends[i]:
            i = bisect_right(self._bases, address) - 1
            if i < 0 or address >= self._ends[i]:
                raise SegmentationFault(address, "write", "address is unmapped")
            self._last_index = i
        offset = address - self._bases[i]
        stop = offset + len(data)
        if stop <= self._sizes[i] and self._writable[i]:
            self._datas[i][offset:stop] = data
            for hook in self._hooks:
                hook(address, data, True)
            return
        # Unwritable segment or a straddling range: precise fault.
        self._ordered[i].write(address, data)

    def locate(
        self, address: int, length: int, writable: bool = False
    ) -> Optional[tuple]:
        """Resolve an unobserved in-bounds range to ``(memoryview, offset)``.

        The bytecode VM's raw access path: when no observer is
        registered, alignment is not enforced and the whole range sits
        inside one segment with the required permission, the caller may
        (un)pack values straight from the backing store.  Any other
        case — hooks attached, ``strict_alignment`` on, unmapped
        address, a range straddling the segment end, missing permission
        — returns None, and the caller must go through
        :meth:`read`/:meth:`write` (or the typed accessors) so the
        precise fault or notification happens exactly as it always has.
        """
        if self._hooks or self.strict_alignment:
            return None
        i = self._last_index
        if not self._bases[i] <= address < self._ends[i]:
            i = bisect_right(self._bases, address) - 1
            if i < 0 or address >= self._ends[i]:
                return None
            self._last_index = i
        if not (self._writable[i] if writable else self._readable[i]):
            return None
        offset = address - self._bases[i]
        if offset + length > self._sizes[i]:
            return None
        return self._views[i], offset

    def segment_view(self, kind: SegmentKind) -> Optional[tuple]:
        """``(memoryview, hooks)`` over the whole segment of ``kind``.

        For walks that read many small fields, like the heap's header
        walk: the caller unpacks from the view and calls every hook in
        ``hooks`` (the live list, in order) with exactly the
        ``(address, data, False)`` that :meth:`read` would have passed.
        Under ``strict_alignment`` the caller must go through
        :meth:`read_int` instead, so misaligned reads fault.  None for
        an unreadable segment, where every read faults.
        """
        segment = self.segment(kind)
        if not segment.permissions.read:
            return None
        return segment._view, self._hooks

    def fill(self, address: int, length: int, byte: int = 0) -> None:
        """memset: used by the sanitization defense (Section 5.1).

        Delegates to the segment's slice-assignment fill; no
        ``length``-sized buffer is built unless a hook needs the bytes.
        """
        seg = self.find_segment(address)
        if seg is None:
            raise SegmentationFault(address, "write", "address is unmapped")
        seg.fill(address, length, byte)
        if self._hooks:
            self._notify(address, bytes((byte,)) * max(length, 0), True)

    # -- typed access -------------------------------------------------------

    def _check_aligned(self, address: int, alignment: int, access: str) -> None:
        if self.strict_alignment and address % alignment != 0:
            from ..errors import BusError

            raise BusError(address, alignment, access)

    def read_int(self, address: int, width: int = 4, signed: bool = True) -> int:
        """Read a little-endian integer."""
        self._check_aligned(address, width, "read")
        return encoding.decode_int(self.read(address, width), signed=signed)

    def write_int(
        self, address: int, value: int, width: int = 4, signed: bool = True
    ) -> None:
        """Write a little-endian integer (wraps modulo width)."""
        self._check_aligned(address, width, "write")
        self.write(address, encoding.encode_int(value, width, signed=signed))

    def read_double(self, address: int) -> float:
        """Read an IEEE-754 binary64."""
        self._check_aligned(address, encoding.DOUBLE_ALIGN, "read")
        return encoding.decode_double(self.read(address, encoding.DOUBLE_SIZE))

    def write_double(self, address: int, value: float) -> None:
        """Write an IEEE-754 binary64."""
        self._check_aligned(address, encoding.DOUBLE_ALIGN, "write")
        self.write(address, encoding.encode_double(value))

    def read_pointer(self, address: int) -> int:
        """Read a 32-bit pointer."""
        self._check_aligned(address, encoding.POINTER_SIZE, "read")
        return encoding.decode_pointer(self.read(address, encoding.POINTER_SIZE))

    def write_pointer(self, address: int, value: int) -> None:
        """Write a 32-bit pointer."""
        self._check_aligned(address, encoding.POINTER_SIZE, "write")
        self.write(address, encoding.encode_pointer(value))

    def read_c_string(self, address: int, max_length: int = 4096) -> str:
        """Read a NUL-terminated string (capped at ``max_length`` bytes).

        The terminator is located with one C-speed scan per backing
        segment instead of a hooked 1-byte read per character.  A string
        that runs off the end of one segment continues into an adjacent
        mapped segment (in DEFAULT_LAYOUT text/data/bss are contiguous,
        and data overflowing into bss is exactly the scenario the paper
        reproduces), faulting only where the next byte really is
        unmapped or unreadable — the same addresses the per-byte loop
        faulted on.  With hooks registered, the whole scanned range
        (string plus terminator, when found) is notified as a single
        read.
        """
        seg = self.find_segment(address)
        if seg is None:
            raise SegmentationFault(address, "read", "address is unmapped")
        if not seg.permissions.read:
            raise SegmentationFault(address, "read", "segment is not readable")
        if max_length <= 0:
            return ""
        chunks: list[bytes] = []
        cursor = address
        remaining = max_length
        nul = -1
        while True:
            span = min(remaining, seg.end - cursor)
            nul = seg.find_byte(0, cursor, span)
            if nul >= 0:
                chunks.append(seg.read(cursor, nul - cursor + 1))
                break
            chunks.append(seg.read(cursor, span))
            remaining -= span
            if remaining == 0:
                break
            # No terminator before this segment ran out: the next
            # 1-byte read lands at seg.end, which may be the base of
            # an adjacent segment.
            cursor = seg.end
            seg = self.find_segment(cursor)
            if seg is None:
                raise SegmentationFault(cursor, "read", "address is unmapped")
            if not seg.permissions.read:
                raise SegmentationFault(cursor, "read", "segment is not readable")
        scanned = chunks[0] if len(chunks) == 1 else b"".join(chunks)
        if self._hooks:
            self._notify(address, scanned, False)
        text = scanned if nul < 0 else scanned[:-1]
        return text.decode("latin-1", errors="replace")

    def write_c_string(self, address: int, text: str) -> None:
        """Write a NUL-terminated string."""
        self.write(address, encoding.encode_c_string(text))

    def strncpy(self, dest: int, src_text: str, count: int) -> None:
        """C ``strncpy``: copy at most ``count`` bytes, zero-padding.

        Faithful to the libc contract the paper's Listing 19 relies on:
        perfectly "safe" as long as ``count`` matches the destination size
        — and an overflow vehicle the moment the size variable has been
        corrupted.
        """
        self.write(dest, encoding.encode_c_string(src_text, buffer_size=count))

    def describe(self) -> str:
        """Render the memory map like ``/proc/<pid>/maps``."""
        return "\n".join(seg.describe() for seg in self.segments)

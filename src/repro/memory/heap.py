"""A dlmalloc-style free-list heap allocator for the simulated process.

``operator new`` without placement (Section 2 of the paper) bottoms out
here.  The allocator implements the classic boundary-tag design: each
block carries an 8-byte header (size + status) written *into simulated
memory*, blocks are split on allocation and coalesced with free
neighbours on free.  Keeping the metadata in-band matters: heap overflows
(Listing 12) clobber real allocator state, exactly as on glibc.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Callable, Iterator, Optional

from .._record import record
from ..errors import ApiMisuseError, DoubleFree, InvalidFree, OutOfMemory
from .address_space import AddressSpace
from .alignment import align_up
from .segments import SegmentKind

HEADER_SIZE = 8
#: Minimum payload so a freed block can always rejoin the free list.
MIN_PAYLOAD = 8
#: All payloads are 8-aligned, matching glibc's 2*sizeof(size_t) on i386.
PAYLOAD_ALIGNMENT = 8

_MAGIC_ALLOCATED = 0xA110C8ED
_MAGIC_FREE = 0xF4EEF4EE

#: One in-band header (payload size, status magic) as the fast walk reads it.
_HEADER = struct.Struct("<II")
#: The header's size field is 32 bits: stored sizes wrap like any write_int.
_SIZE_MASK = 0xFFFFFFFF


@record(frozen=True)
class BlockInfo:
    """Descriptor of one heap block, as read back from simulated memory."""

    header_address: int
    payload_address: int
    payload_size: int
    allocated: bool
    corrupted: bool = False

    @property
    def total_size(self) -> int:
        """Header plus payload."""
        return HEADER_SIZE + self.payload_size


class HeapAllocator:
    """First-fit free-list allocator with boundary tags and coalescing."""

    def __init__(self, space: AddressSpace) -> None:
        self._space = space
        segment = space.segment(SegmentKind.HEAP)
        self._base = segment.base
        self._end = segment.end
        heap_view = space.segment_view(SegmentKind.HEAP)
        self._view, self._read_hooks = heap_view or (None, ())
        self._unpack_header = partial(_HEADER.unpack_from, self._view)
        # One giant free block spanning the whole segment.
        self._write_header(self._base, segment.size - HEADER_SIZE, allocated=False)
        self._allocated_payloads: set[int] = set()
        self._bytes_in_use = 0
        self._allocation_count = 0
        self._free_count = 0

    # -- header helpers ------------------------------------------------------

    def _write_header(self, header_addr: int, payload_size: int, allocated: bool) -> None:
        magic = _MAGIC_ALLOCATED if allocated else _MAGIC_FREE
        self._space.write_int(header_addr, payload_size, width=4, signed=False)
        self._space.write_int(header_addr + 4, magic, width=4, signed=False)

    def _read_header(self, header_addr: int) -> BlockInfo:
        payload_size = self._space.read_int(header_addr, width=4, signed=False)
        magic = self._space.read_int(header_addr + 4, width=4, signed=False)
        allocated = magic == _MAGIC_ALLOCATED
        corrupted = magic not in (_MAGIC_ALLOCATED, _MAGIC_FREE)
        return BlockInfo(
            header_address=header_addr,
            payload_address=header_addr + HEADER_SIZE,
            payload_size=payload_size,
            allocated=allocated,
            corrupted=corrupted,
        )

    def _header_reader(self) -> Callable[[int], tuple]:
        """``offset -> (payload_size, magic)`` of the header that far
        into the heap, for one walk.

        Both fields come straight from the heap segment's view, and every
        hook that observes reads is told about them as ``read_int`` would
        tell it: the size word, then the status word, each
        ``(address, 4 bytes, False)``.  With none, the walk unpacks
        without building those bytes.
        Under ``strict_alignment`` they go through ``read_int`` itself,
        so a misaligned header raises the bus error.
        """
        space = self._space
        if space.strict_alignment or self._view is None:
            read_int, base = space.read_int, self._base
            return lambda offset: (
                read_int(base + offset, 4, False),
                read_int(base + offset + 4, 4, False),
            )
        return self._notify_header if self._read_hooks else self._unpack_header

    def _notify_header(self, offset: int) -> tuple:
        view, address = self._view, self._base + offset
        size = bytes(view[offset : offset + 4])
        for hook in self._read_hooks:
            hook(address, size, False)
        magic = bytes(view[offset + 4 : offset + 8])
        for hook in self._read_hooks:
            hook(address + 4, magic, False)
        return int.from_bytes(size, "little"), int.from_bytes(magic, "little")

    def blocks(self) -> Iterator[BlockInfo]:
        """Walk the heap from the first block; stops at corruption.

        A heap overflow that tramples a header truncates this walk — the
        same way ``malloc_consolidate`` crashes a real process.
        """
        cursor = self._base
        while cursor + HEADER_SIZE <= self._end:
            info = self._read_header(cursor)
            if info.corrupted:
                yield info
                return
            yield info
            step = info.total_size
            if step <= 0 or cursor + step > self._end:
                return
            cursor += step

    # -- allocation api --------------------------------------------------------

    def allocate(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the payload address.

        Raises :class:`OutOfMemory` when no free block fits — the
        allocation failure placement-new users are trying to avoid
        (paper Section 1, advantage 2).
        """
        if size <= 0:
            raise ApiMisuseError(f"allocation size must be positive, got {size}")
        needed = align_up(max(size, MIN_PAYLOAD), PAYLOAD_ALIGNMENT)
        block = self._first_fit(needed)
        if block is None:
            raise OutOfMemory(f"heap cannot satisfy allocation of {size} bytes")
        self._carve(block, needed)
        self._allocated_payloads.add(block.payload_address)
        self._bytes_in_use += needed
        self._allocation_count += 1
        return block.payload_address

    def _first_fit(self, needed: int) -> Optional[BlockInfo]:
        """The first free block with at least ``needed`` payload bytes,
        walking from the base and stopping at a corrupted header."""
        read, base = self._header_reader(), self._base
        offset, size = 0, self._end - base
        while offset + HEADER_SIZE <= size:
            payload_size, magic = read(offset)
            if magic == _MAGIC_FREE:
                if payload_size >= needed:
                    return BlockInfo(
                        header_address=base + offset,
                        payload_address=base + offset + HEADER_SIZE,
                        payload_size=payload_size,
                        allocated=False,
                    )
            elif magic != _MAGIC_ALLOCATED:
                return None
            offset += HEADER_SIZE + payload_size
        return None

    def _carve(self, block: BlockInfo, needed: int) -> None:
        remainder = block.payload_size - needed
        if remainder >= HEADER_SIZE + MIN_PAYLOAD:
            # Split: new free block after the carved allocation.
            self._write_header(block.header_address, needed, allocated=True)
            tail_header = block.payload_address + needed
            self._write_header(
                tail_header, remainder - HEADER_SIZE, allocated=False
            )
        else:
            # Too small to split; hand over the whole block.
            self._write_header(
                block.header_address, block.payload_size, allocated=True
            )

    def free(self, payload_address: int) -> None:
        """Free a block previously returned by :meth:`allocate`.

        Detects double frees and wild frees by consulting both the
        in-band header and the allocator's own bookkeeping.
        """
        header_addr = payload_address - HEADER_SIZE
        if not self._space.is_mapped(header_addr, HEADER_SIZE):
            raise InvalidFree(payload_address)
        info = self._read_header(header_addr)
        if info.corrupted:
            raise InvalidFree(payload_address)
        if not info.allocated:
            raise DoubleFree(payload_address)
        if payload_address not in self._allocated_payloads:
            raise InvalidFree(payload_address)
        self._allocated_payloads.discard(payload_address)
        self._bytes_in_use -= info.payload_size
        self._free_count += 1
        self._write_header(header_addr, info.payload_size, allocated=False)
        self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent free blocks, stopping at a corrupted header.

        With only repeat-safe observers (or none), each run merges in
        one pass, going on from the merged header that a walk restarted
        from the base would re-read; other hooks see that restart after
        every merge.  Every hook counts here, not only those that
        observe reads, since each of them sees the merge writes.
        Both write the same headers in the same order.  A merge rewrites
        only its run's header and runs only move forward, so a repeated
        (header, size) means wrapped sizes make the merges cycle: stop.
        """
        one_pass = self._space.observers_repeat_safe()
        read, base = self._header_reader(), self._base
        offset, size = 0, self._end - base
        run: Optional[int] = None  # offset of the free block absorbing the run
        run_size = 0
        merges: set = set()
        while offset + HEADER_SIZE <= size:
            payload_size, magic = read(offset)
            if magic == _MAGIC_FREE and run is not None:
                run_size = (run_size + HEADER_SIZE + payload_size) & _SIZE_MASK
                self._write_header(base + run, run_size, allocated=False)
                if (run, run_size) in merges:
                    return
                merges.add((run, run_size))
                if not one_pass:
                    offset, run = 0, None
                    continue
                offset, payload_size = run, run_size
            elif magic == _MAGIC_FREE:
                run, run_size = offset, payload_size
            elif magic == _MAGIC_ALLOCATED:
                run = None
            else:
                return
            offset += HEADER_SIZE + payload_size

    # -- introspection -----------------------------------------------------

    @property
    def bytes_in_use(self) -> int:
        """Total payload bytes currently allocated."""
        return self._bytes_in_use

    @property
    def allocation_count(self) -> int:
        """Number of successful :meth:`allocate` calls."""
        return self._allocation_count

    @property
    def free_count(self) -> int:
        """Number of successful :meth:`free` calls."""
        return self._free_count

    def live_blocks(self) -> list[BlockInfo]:
        """Blocks currently allocated (per in-band headers)."""
        return [b for b in self.blocks() if b.allocated and not b.corrupted]

    def largest_free_block(self) -> int:
        """Payload size of the largest free block (0 if none)."""
        sizes = [
            b.payload_size for b in self.blocks() if not b.allocated and not b.corrupted
        ]
        return max(sizes, default=0)

    def is_corrupted(self) -> bool:
        """True if walking the heap encounters a trampled header."""
        return any(block.corrupted for block in self.blocks())

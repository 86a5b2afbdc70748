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
from typing import Iterator, Optional

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


class HeapAllocator:
    """First-fit free-list allocator with boundary tags and coalescing.

    The allocator's reads of its own headers are not program loads: they
    unpack straight from the heap segment and reach no access hook, as a
    real malloc's reads of its chunk headers are no variable access.  Its
    header *writes* go through :meth:`AddressSpace.write_int`, so every
    hook sees them.
    """

    def __init__(self, space: AddressSpace) -> None:
        self._space = space
        self._segment = segment = space.segment(SegmentKind.HEAP)
        self._base = segment.base
        self._end = segment.end
        self._view = space.segment_view(SegmentKind.HEAP)
        #: ``offset -> (payload_size, magic)`` of the header that far
        #: into the heap.
        self._header = (
            self._checked_header
            if self._view is None or space.strict_alignment
            else partial(_HEADER.unpack_from, self._view)
        )
        # One giant free block spanning the whole segment.
        self._write_header(self._base, segment.size - HEADER_SIZE, allocated=False)
        self._allocated_payloads: set[int] = set()
        self._bytes_in_use = 0
        self._allocation_count = 0

    # -- header helpers ------------------------------------------------------

    def _write_header(self, header_addr: int, payload_size: int, allocated: bool) -> None:
        magic = _MAGIC_ALLOCATED if allocated else _MAGIC_FREE
        self._space.write_int(header_addr, payload_size, width=4, signed=False)
        self._space.write_int(header_addr + 4, magic, width=4, signed=False)

    def _checked_header(self, offset: int) -> tuple:
        """The header at ``offset``, faulting as ``read_int`` would: a
        misaligned header is a bus error on a strict-alignment target,
        and any header of an unreadable heap a segfault."""
        address = self._base + offset
        self._space._check_aligned(address, 4, "read")
        if self._view is None:
            self._segment.read(address, HEADER_SIZE)  # raises the fault
        return _HEADER.unpack_from(self._view, offset)

    def blocks(self) -> Iterator[BlockInfo]:
        """Walk the heap from the first block; stops at corruption.

        A heap overflow that tramples a header truncates this walk — the
        same way ``malloc_consolidate`` crashes a real process.
        """
        header, base = self._header, self._base
        offset, size = 0, self._end - base
        while offset + HEADER_SIZE <= size:
            payload_size, magic = header(offset)
            corrupted = magic != _MAGIC_ALLOCATED and magic != _MAGIC_FREE
            yield BlockInfo(
                header_address=base + offset,
                payload_address=base + offset + HEADER_SIZE,
                payload_size=payload_size,
                allocated=magic == _MAGIC_ALLOCATED,
                corrupted=corrupted,
            )
            if corrupted:
                return
            offset += HEADER_SIZE + payload_size

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
        header, base = self._header, self._base
        offset, size = 0, self._end - base
        while offset + HEADER_SIZE <= size:
            payload_size, magic = header(offset)
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
        in-band header and the allocator's own bookkeeping; a header
        outside the heap is a wild free.
        """
        header_addr = payload_address - HEADER_SIZE
        offset = header_addr - self._base
        if not 0 <= offset <= self._end - self._base - HEADER_SIZE:
            raise InvalidFree(payload_address)
        payload_size, magic = self._header(offset)
        if magic != _MAGIC_ALLOCATED and magic != _MAGIC_FREE:
            raise InvalidFree(payload_address)
        if magic == _MAGIC_FREE:
            raise DoubleFree(payload_address)
        if payload_address not in self._allocated_payloads:
            raise InvalidFree(payload_address)
        self._allocated_payloads.discard(payload_address)
        self._bytes_in_use -= payload_size
        self._write_header(header_addr, payload_size, allocated=False)
        self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent free blocks in one pass, stopping at a
        corrupted header.

        After a merge the walk goes on from the merged header, which is
        what a walk restarted from the base would read there: it writes
        the same headers in the same order as that restart.  A merge
        rewrites only its run's header and runs only move forward, so a
        repeated (header, size) means wrapped sizes make the merges
        cycle: stop.
        """
        header, base = self._header, self._base
        offset, size = 0, self._end - base
        run: Optional[int] = None  # offset of the free block absorbing the run
        run_size = 0
        merges: set = set()
        while offset + HEADER_SIZE <= size:
            payload_size, magic = header(offset)
            if magic == _MAGIC_FREE and run is not None:
                run_size = (run_size + HEADER_SIZE + payload_size) & _SIZE_MASK
                self._write_header(base + run, run_size, allocated=False)
                if (run, run_size) in merges:
                    return
                merges.add((run, run_size))
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

    def largest_free_block(self) -> int:
        """Payload size of the largest free block (0 if none)."""
        sizes = [
            b.payload_size for b in self.blocks() if not b.allocated and not b.corrupted
        ]
        return max(sizes, default=0)

    def is_corrupted(self) -> bool:
        """True if walking the heap encounters a trampled header."""
        return any(block.corrupted for block in self.blocks())

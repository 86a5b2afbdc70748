"""Memory pools — the idiom placement new exists to serve.

The paper motivates placement new with memory pools (Section 1: *"the
program can make use of memory pools and is more efficient"*; Section 4:
*"a memory pool is already created and any new buffer needed is created
out of that memory pool using placement new"*).  A :class:`MemoryPool` is
a fixed arena carved out of any segment; placement allocations inside it
are plain bump allocations with **no enforcement** that the request fits
— enforcing that is the *programmer's* job, which is the whole
vulnerability.

:class:`CheckedMemoryPool` is the Section 5.1 corrected version.
"""

from __future__ import annotations

from .._record import record
from ..errors import ApiMisuseError, BoundsCheckViolation
from .address_space import AddressSpace
from .alignment import align_up


@record(frozen=True)
class PoolStats:
    """Counters describing a pool's usage."""

    capacity: int
    reserved: int
    placements: int
    oversize_placements: int

    @property
    def available(self) -> int:
        """Bytes the pool believes remain (may be negative after abuse)."""
        return self.capacity - self.reserved


class MemoryPool:
    """A fixed arena supporting unchecked placement-style suballocation."""

    def __init__(
        self,
        space: AddressSpace,
        base: int,
        capacity: int,
        name: str = "pool",
    ) -> None:
        if capacity <= 0:
            raise ApiMisuseError(f"pool capacity must be positive, got {capacity}")
        if not space.is_mapped(base, 1):
            raise ApiMisuseError(f"pool base {base:#010x} is unmapped")
        self._space = space
        self._base = base
        self._capacity = capacity
        self._name = name
        self._cursor = base
        self._placements = 0
        self._oversize = 0

    @property
    def base(self) -> int:
        """First address of the arena."""
        return self._base

    @property
    def capacity(self) -> int:
        """Declared size of the arena in bytes."""
        return self._capacity

    @property
    def end(self) -> int:
        """One past the declared end of the arena."""
        return self._base + self._capacity

    @property
    def name(self) -> str:
        """Human-readable label for diagnostics."""
        return self._name

    def reserve(self, size: int, alignment: int = 1) -> int:
        """Bump-allocate ``size`` bytes from the pool — *unchecked*.

        Deliberately does **not** verify that the reservation fits inside
        the pool: like ``new (pool) char[n]``, it trusts the caller's
        size.  A reservation running past :attr:`end` is recorded in
        :attr:`stats` but succeeds, handing back a pointer whose use will
        overflow whatever neighbours the pool.
        """
        if size <= 0:
            raise ApiMisuseError(f"reservation size must be positive, got {size}")
        address = align_up(self._cursor, alignment)
        self._cursor = address + size
        self._placements += 1
        if self._cursor > self.end:
            self._oversize += 1
        return address

    def reset(self) -> None:
        """Rewind the pool for reuse (contents are *not* sanitized —
        the Listing 21/22 information-leak precondition)."""
        self._cursor = self._base

    def sanitize(self, byte: int = 0) -> None:
        """memset the whole arena (the Section 5.1 leak countermeasure)."""
        self._space.fill(self._base, self._capacity, byte)

    @property
    def stats(self) -> PoolStats:
        """Usage counters, including how many placements overran."""
        return PoolStats(
            capacity=self._capacity,
            reserved=self._cursor - self._base,
            placements=self._placements,
            oversize_placements=self._oversize,
        )


class CheckedMemoryPool(MemoryPool):
    """Section 5.1 "correct coding": refuse oversize placements.

    The corrected discipline — at each placement point *"it has to be
    enforced that the size of the new object or array B being placed in a
    memory arena of another object/array A should never be larger"*.
    """

    def reserve(self, size: int, alignment: int = 1) -> int:
        address = align_up(self._cursor, alignment)
        if size <= 0:
            raise ApiMisuseError(f"reservation size must be positive, got {size}")
        if address + size > self.end:
            raise BoundsCheckViolation(
                arena_size=self.end - address if self.end > address else 0,
                object_size=size,
                detail=f"pool '{self.name}' rejected oversize placement",
            )
        return super().reserve(size, alignment)

"""Memory pools — the idiom placement new exists to serve.

The paper motivates placement new with memory pools (Section 1: *"the
program can make use of memory pools and is more efficient"*; Section 4:
*"a memory pool is already created and any new buffer needed is created
out of that memory pool using placement new"*).  A :class:`MemoryPool` is
a fixed arena carved out of any segment; placement allocations inside it
are plain bump allocations with **no enforcement** that the request fits
— enforcing that is the *programmer's* job, which is the whole
vulnerability.  The Section 5.1 size check lives in
:mod:`repro.core.checked`.
"""

from __future__ import annotations

from .._record import record
from ..errors import ApiMisuseError
from .address_space import AddressSpace
from .alignment import align_up


@record(frozen=True)
class PoolStats:
    """Counters describing a pool's usage."""

    capacity: int
    reserved: int
    placements: int
    oversize_placements: int


class MemoryPool:
    """A fixed arena supporting unchecked placement-style suballocation."""

    def __init__(self, space: AddressSpace, base: int, capacity: int) -> None:
        if capacity <= 0:
            raise ApiMisuseError(f"pool capacity must be positive, got {capacity}")
        if not space.is_mapped(base, 1):
            raise ApiMisuseError(f"pool base {base:#010x} is unmapped")
        self._base = base
        self._capacity = capacity
        self._cursor = base
        self._placements = 0
        self._oversize = 0

    @property
    def end(self) -> int:
        """One past the declared end of the arena."""
        return self._base + self._capacity

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

    @property
    def stats(self) -> PoolStats:
        """Usage counters, including how many placements overran."""
        return PoolStats(
            capacity=self._capacity,
            reserved=self._cursor - self._base,
            placements=self._placements,
            oversize_placements=self._oversize,
        )


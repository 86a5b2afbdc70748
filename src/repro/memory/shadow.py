"""Shadow memory with red zones — an AddressSanitizer-style detector.

The paper argues (Section 5.2) that runtime schemes are the practical
protection for legacy code but that bounds checking is hard because
placement new *"just operates on an address, not on a lexically declared
array"*.  This module implements the strongest runtime scheme we
evaluate: every byte of the simulated space has a shadow state, arenas
registered by the defended allocator are bracketed by *red zones*, and a
write touching a red byte raises :class:`RedZoneViolation`.

It hooks :class:`~repro.memory.address_space.AddressSpace` writes, so it
sees attacks no matter which code path performed the store.
"""

from __future__ import annotations

from ..errors import ApiMisuseError, RedZoneViolation
from .address_space import AddressSpace


class ShadowMemory:
    """Byte-granular shadow map plus the write hook enforcing it."""

    DEFAULT_ZONE = 16

    #: Only writes are checked, so reads are never delivered.
    observes_reads = False

    def __init__(self, space: AddressSpace, zone_size: int = DEFAULT_ZONE) -> None:
        if zone_size <= 0:
            raise ApiMisuseError(f"red zone size must be positive, got {zone_size}")
        self._space = space
        self._zone_size = zone_size
        #: Bytes of some protected arena, and the red bytes around them.
        self._addressable: set[int] = set()
        self._red: set[int] = set()
        self._armed = False

    # -- registration -------------------------------------------------------

    def protect_arena(self, base: int, size: int) -> None:
        """Mark ``[base, base+size)`` addressable and bracket it in red.

        The left zone is only laid down where the space is mapped, so
        protecting an arena at a segment start degrades gracefully.
        """
        if size <= 0:
            raise ApiMisuseError(f"arena size must be positive, got {size}")
        arena = range(base, base + size)
        self._addressable.update(arena)
        self._red.difference_update(arena)
        zone = self._zone_size
        for addr in (*range(base - zone, base), *range(arena.stop, arena.stop + zone)):
            # Never redden an addressable byte of another arena.
            if addr not in self._addressable and self._space.is_mapped(addr):
                self._red.add(addr)

    # -- enforcement -----------------------------------------------------

    def arm(self) -> None:
        """Start checking every write through the address space; the
        first write touching a red byte raises :class:`RedZoneViolation`."""
        if self._armed:
            return
        self._space.add_access_hook(self._on_access)
        self._armed = True

    def disarm(self) -> None:
        """Stop checking writes."""
        if not self._armed:
            return
        self._space.remove_access_hook(self._on_access)
        self._armed = False

    def _on_access(self, address: int, data: bytes, is_write: bool) -> None:
        span, red = range(address, address + len(data)), self._red
        if is_write and not red.isdisjoint(span):
            first = next(addr for addr in span if addr in red)
            raise RedZoneViolation(first, len(data))

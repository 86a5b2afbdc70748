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

import enum
from typing import Optional

from .._record import record
from ..errors import ApiMisuseError, RedZoneViolation
from .address_space import AddressSpace


class ShadowState(enum.IntEnum):
    """Per-byte classification."""

    UNTRACKED = 0
    ADDRESSABLE = 1
    RED_ZONE = 2


@record(frozen=True)
class RedZonePair:
    """The two guard ranges bracketing one protected arena."""

    arena_base: int
    arena_size: int
    zone_size: int

    @property
    def left(self) -> range:
        """Guard range below the arena."""
        return range(self.arena_base - self.zone_size, self.arena_base)

    @property
    def right(self) -> range:
        """Guard range above the arena."""
        end = self.arena_base + self.arena_size
        return range(end, end + self.zone_size)


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
        self._states: dict[int, ShadowState] = {}
        self._pairs: list[RedZonePair] = []
        self._violations: list[RedZoneViolation] = []
        self._armed = False
        self._halt_on_violation = True

    # -- registration -------------------------------------------------------

    def protect_arena(self, base: int, size: int) -> RedZonePair:
        """Mark ``[base, base+size)`` addressable and bracket it in red.

        The left zone is only laid down where the space is mapped, so
        protecting an arena at a segment start degrades gracefully.
        """
        if size <= 0:
            raise ApiMisuseError(f"arena size must be positive, got {size}")
        pair = RedZonePair(arena_base=base, arena_size=size, zone_size=self._zone_size)
        for addr in range(base, base + size):
            self._states[addr] = ShadowState.ADDRESSABLE
        for zone in (pair.left, pair.right):
            for addr in zone:
                if self._space.is_mapped(addr):
                    # Never demote an addressable byte of another arena.
                    if self._states.get(addr) != ShadowState.ADDRESSABLE:
                        self._states[addr] = ShadowState.RED_ZONE
        self._pairs.append(pair)
        return pair

    def state_at(self, address: int) -> ShadowState:
        """Shadow classification of one byte."""
        return self._states.get(address, ShadowState.UNTRACKED)

    # -- enforcement -----------------------------------------------------

    def arm(self, halt_on_violation: bool = True) -> None:
        """Start checking every write through the address space."""
        if self._armed:
            return
        self._halt_on_violation = halt_on_violation
        self._space.add_access_hook(self._on_access)
        self._armed = True

    def disarm(self) -> None:
        """Stop checking writes."""
        if not self._armed:
            return
        self._space.remove_access_hook(self._on_access)
        self._armed = False

    def _on_access(self, address: int, data: bytes, is_write: bool) -> None:
        if not is_write:
            return
        for offset in range(len(data)):
            if self._states.get(address + offset) == ShadowState.RED_ZONE:
                violation = RedZoneViolation(address + offset, len(data))
                self._violations.append(violation)
                if self._halt_on_violation:
                    raise violation
                return

    @property
    def repeat_safe(self) -> bool:
        """Repeating a write already seen changes nothing while every
        violation halts the process; without halting, each repeat of a
        red-zone write records the violation again."""
        return self._halt_on_violation

    @property
    def violations(self) -> tuple[RedZoneViolation, ...]:
        """All red-zone hits observed so far."""
        return tuple(self._violations)

    @property
    def protected_arenas(self) -> tuple[RedZonePair, ...]:
        """Currently protected arenas."""
        return tuple(self._pairs)

    def first_violation(self) -> Optional[RedZoneViolation]:
        """The earliest recorded violation, if any."""
        return self._violations[0] if self._violations else None

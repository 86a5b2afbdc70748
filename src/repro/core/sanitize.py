"""Memory sanitization — the Section 5.1 information-leak countermeasure.

*"Before a memory arena allocated to pointer A is allocated to another
pointer B, memset() or its other variants should be used to set the
memory to uniform bit patterns."*  The paper also walks through why
partial sanitization (only the bytes B will not occupy) is subtle once
padding and alignment enter the picture; :func:`residual_ranges` computes
exactly those hard-to-reason-about leftover ranges so callers — and the
E10 experiment — can measure what a partial scheme misses.
"""

from __future__ import annotations

from .._record import record
from ..errors import ApiMisuseError
from ..memory.address_space import AddressSpace

#: The uniform patterns the paper mentions as common choices.
PATTERN_ZERO = 0x00
PATTERN_ONES = 0xFF


@record(frozen=True)
class SanitizationReport:
    """What a sanitization call actually cleared."""

    base: int
    length: int
    pattern: int

    @property
    def end(self) -> int:
        """One past the last cleared byte."""
        return self.base + self.length


def sanitize(
    space: AddressSpace, base: int, length: int, pattern: int = PATTERN_ZERO
) -> SanitizationReport:
    """memset the full arena — the recommended, simple, correct option."""
    if length < 0:
        raise ApiMisuseError(f"negative sanitize length {length}")
    space.fill(base, length, pattern)
    return SanitizationReport(base=base, length=length, pattern=pattern)


def residual_ranges(
    arena_base: int, arena_size: int, occupied: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Byte ranges of the arena **not** covered by ``occupied`` extents.

    ``occupied`` is a list of (address, size) pairs describing where the
    new occupant's fields actually live; everything else — tail space,
    inter-field padding — still holds the previous occupant's bytes and
    will leak if stored/serialized (Listings 21/22).
    """
    arena_end = arena_base + arena_size
    spans = sorted(
        (max(addr, arena_base), min(addr + size, arena_end))
        for addr, size in occupied
        if size > 0 and addr < arena_end and addr + size > arena_base
    )
    gaps: list[tuple[int, int]] = []
    cursor = arena_base
    for start, end in spans:
        if start > cursor:
            gaps.append((cursor, start - cursor))
        cursor = max(cursor, end)
    if cursor < arena_end:
        gaps.append((cursor, arena_end - cursor))
    return gaps


def sanitize_residue(
    space: AddressSpace,
    arena_base: int,
    arena_size: int,
    occupied: list[tuple[int, int]],
    pattern: int = PATTERN_ZERO,
) -> list[SanitizationReport]:
    """The "efficient" partial scheme the paper warns about: clear only
    the not-to-be-occupied ranges.  Correct *only* when ``occupied`` is
    complete — forgetting a padding hole leaks it."""
    reports = []
    for base, length in residual_ranges(arena_base, arena_size, occupied):
        reports.append(sanitize(space, base, length, pattern))
    return reports


def leaked_bytes(
    space: AddressSpace,
    arena_base: int,
    arena_size: int,
    occupied: list[tuple[int, int]],
    secret: bytes,
) -> int:
    """Count bytes of ``secret`` still readable in the arena's residue.

    The measurement primitive behind experiment E10: after placing a new
    occupant, how much of the previous secret content remains?
    """
    count = 0
    for base, length in residual_ranges(arena_base, arena_size, occupied):
        data = space.read(base, length)
        offset = base - arena_base
        expected = secret[offset : offset + length]
        count += sum(1 for got, want in zip(data, expected) if got == want and want)
    return count

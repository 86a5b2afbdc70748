"""Alignment arithmetic used by the layout engine and the allocators.

The paper's Listing 15 attack hinges on padding: an overflowing
``GradStudent`` member lands in the padding *between* two stack locals
before it reaches the victim variable.  Getting padding right is therefore
load-bearing for the reproduction, and all of it funnels through the three
helpers in this module.
"""

from __future__ import annotations

from ..errors import ApiMisuseError


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def check_alignment(alignment: int) -> None:
    """Validate an alignment argument (positive power of two)."""
    if not is_power_of_two(alignment):
        raise ApiMisuseError(
            f"alignment must be a positive power of two, got {alignment}"
        )


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    check_alignment(alignment)
    if value < 0:
        raise ApiMisuseError(f"cannot align negative value {value}")
    return (value + alignment - 1) & ~(alignment - 1)


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to the previous multiple of ``alignment``."""
    check_alignment(alignment)
    if value < 0:
        raise ApiMisuseError(f"cannot align negative value {value}")
    return value & ~(alignment - 1)


def is_aligned(value: int, alignment: int) -> bool:
    """Return True if ``value`` is a multiple of ``alignment``."""
    check_alignment(alignment)
    return value % alignment == 0

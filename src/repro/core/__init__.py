"""The paper's primary contribution surface: placement new and friends.

:mod:`placement` is the faithful, **unchecked** primitive (the
vulnerability); :mod:`checked` and :mod:`placement_delete` implement the
Section 5.1 corrected discipline; :mod:`sanitize` covers the
information-leak countermeasures; :mod:`new_expr` supplies the ordinary
heap-backed ``new``/``delete`` the placements are contrasted with.
"""

from .._exports import exports_getattr

# These two functions share their submodule's name.  Importing a
# submodule binds it on the package, so a lazy export would turn into
# the module once anything imported it; bound here, the function wins.
from .placement_delete import placement_delete
from .sanitize import sanitize

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(
        ("checked_placement_new", "checked_placement_new_array", "place_or_heap_allocate"),
        "checked",
    ),
    **dict.fromkeys(
        ("NewContext", "construct", "delete_array", "delete_object", "new_array", "new_object"),
        "new_expr",
    ),
    **dict.fromkeys(
        (
            "PlacementAuditLog",
            "PlacementRecord",
            "PlacementTarget",
            "placement_new",
            "placement_new_array",
            "placement_new_in_pool",
            "resolve_target",
        ),
        "placement",
    ),
    **dict.fromkeys(("ArenaOwner", "Destructor"), "placement_delete"),
    **dict.fromkeys(
        (
            "PATTERN_ONES",
            "PATTERN_ZERO",
            "SanitizationReport",
            "leaked_bytes",
            "residual_ranges",
            "sanitize_residue",
        ),
        "sanitize",
    ),
}

__all__ = sorted([*_EXPORTS, "placement_delete", "sanitize"])

__getattr__ = exports_getattr(__name__, _EXPORTS)

"""Coverage feedback: which oracle behaviors has the campaign seen?

Coverage is deliberately coarse — the union of detector rule ids fired
and simulator event kinds observed.  An input earns a place in the live
corpus only when it lights up a key nobody has hit before, which keeps
the corpus small and behaviorally diverse without any real
instrumentation cost.
"""

from __future__ import annotations

from typing import Iterable

from .oracles import Observation


def coverage_keys(observation: Observation) -> frozenset:
    """The coverage keys one observation contributes."""
    keys = {f"rule:{rule}" for rule in observation.static.rules}
    if observation.valid:
        keys.update(f"event:{kind}" for kind in observation.dynamic.events)
    return frozenset(keys)


class CoverageMap:
    """A grow-only set of coverage keys with deterministic reporting."""

    def __init__(self, keys: Iterable[str] = ()) -> None:
        self._keys: set = set(keys)

    def observe(self, keys: Iterable[str]) -> tuple:
        """Add ``keys``; the sorted tuple of genuinely new ones."""
        fresh = sorted(set(keys) - self._keys)
        self._keys.update(fresh)
        return tuple(fresh)

    def sorted_keys(self) -> tuple:
        return tuple(sorted(self._keys))

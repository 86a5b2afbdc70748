"""The taint engine: labels, marking, propagation, queries."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, FrozenSet


class TaintLabel(enum.Enum):
    """Where attacker influence entered the process."""

    STDIN = "stdin"
    NETWORK = "network"
    FILE = "file"
    REMOTE_OBJECT = "remote-object"
    DERIVED = "derived"


@dataclass(frozen=True)
class TaintedValue:
    """A Python-level value paired with its taint labels.

    Used when data has not yet been written into simulated memory (e.g.
    a remote object's field before deserialization places it).
    """

    value: Any
    labels: FrozenSet[TaintLabel]

    @classmethod
    def from_source(cls, value: Any, label: TaintLabel) -> "TaintedValue":
        """Wrap a fresh external input."""
        return cls(value=value, labels=frozenset({label}))

    def derive(self, value: Any) -> "TaintedValue":
        """A computation result influenced by this value."""
        return TaintedValue(value=value, labels=self.labels | {TaintLabel.DERIVED})

    @property
    def tainted(self) -> bool:
        """Always true for instances; exists for symmetry with plain values."""
        return bool(self.labels)


class TaintEngine:
    """Per-byte taint map over one simulated address space."""

    def __init__(self) -> None:
        self._map: dict[int, FrozenSet[TaintLabel]] = {}

    def mark(self, address: int, length: int, *labels: TaintLabel) -> None:
        """Label ``length`` bytes starting at ``address``."""
        label_set = frozenset(labels)
        for offset in range(length):
            existing = self._map.get(address + offset, frozenset())
            self._map[address + offset] = existing | label_set

    def clear(self, address: int, length: int) -> None:
        """Remove labels (e.g. after sanitization overwrites the bytes)."""
        for offset in range(length):
            self._map.pop(address + offset, None)

    def labels_at(self, address: int, length: int = 1) -> FrozenSet[TaintLabel]:
        """Union of labels over a byte range."""
        combined: FrozenSet[TaintLabel] = frozenset()
        for offset in range(length):
            combined |= self._map.get(address + offset, frozenset())
        return combined

    def is_tainted(self, address: int, length: int = 1) -> bool:
        """True if any byte in the range carries a label."""
        return bool(self.labels_at(address, length))

    @property
    def tainted_byte_count(self) -> int:
        """How many bytes currently carry any label."""
        return len(self._map)

"""The taint engine: labels, marking, propagation, queries."""

from __future__ import annotations

import enum
from typing import FrozenSet


class TaintLabel(enum.Enum):
    """Where attacker influence entered the process."""

    STDIN = "stdin"
    NETWORK = "network"
    FILE = "file"
    REMOTE_OBJECT = "remote-object"


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

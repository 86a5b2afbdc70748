"""Debugger-style watchpoints over the simulated address space.

The paper's narrative is full of "X overwrites Y" claims; watchpoints
let tests and investigations observe exactly which write clobbered a
victim range, in order, with the bytes involved — the tooling a
researcher would use to validate the attacks on real hardware.
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from ..errors import ApiMisuseError
from .address_space import AddressSpace


@record(frozen=True)
class WatchHit:
    """One observed access overlapping a watched range."""

    watch_label: str
    address: int
    data: bytes
    is_write: bool
    sequence: int

    def describe(self) -> str:
        kind = "write" if self.is_write else "read"
        preview = self.data[:8].hex()
        return (
            f"#{self.sequence} {kind} of {len(self.data)}B at "
            f"{self.address:#010x} hits '{self.watch_label}' (data {preview})"
        )


@record
class _Watch:
    label: str
    start: int
    end: int
    on_write: bool
    on_read: bool


class WatchpointManager:
    """Registers ranges and records every overlapping access."""

    def __init__(self, space: AddressSpace) -> None:
        self._space = space
        self._watches: list[_Watch] = []
        self._hits: list[WatchHit] = []
        self._sequence = 0
        self._armed = False

    def watch(
        self,
        label: str,
        address: int,
        length: int,
        on_write: bool = True,
        on_read: bool = False,
    ) -> None:
        """Watch ``[address, address+length)``."""
        if length <= 0:
            raise ApiMisuseError(f"watch length must be positive, got {length}")
        self._watches.append(
            _Watch(
                label=label,
                start=address,
                end=address + length,
                on_write=on_write,
                on_read=on_read,
            )
        )
        self.arm()

    def unwatch(self, label: str) -> None:
        """Remove every watch with ``label``."""
        self._watches = [w for w in self._watches if w.label != label]

    def arm(self) -> None:
        """Attach to the address space (idempotent)."""
        if not self._armed:
            self._space.add_access_hook(self._on_access)
            self._armed = True

    def disarm(self) -> None:
        """Detach from the address space."""
        if self._armed:
            self._space.remove_access_hook(self._on_access)
            self._armed = False

    def _on_access(self, address: int, data: bytes, is_write: bool) -> None:
        self._sequence += 1
        end = address + len(data)
        for watch in self._watches:
            wanted = watch.on_write if is_write else watch.on_read
            if not wanted:
                continue
            if address < watch.end and end > watch.start:
                self._hits.append(
                    WatchHit(
                        watch_label=watch.label,
                        address=address,
                        data=bytes(data),
                        is_write=is_write,
                        sequence=self._sequence,
                    )
                )

    @property
    def hits(self) -> tuple[WatchHit, ...]:
        """All recorded hits, in access order."""
        return tuple(self._hits)

    def hits_for(self, label: str) -> tuple[WatchHit, ...]:
        """Hits on one watch."""
        return tuple(h for h in self._hits if h.watch_label == label)

    def first_writer(self, label: str) -> Optional[WatchHit]:
        """The first write that touched the watched range."""
        for hit in self._hits:
            if hit.watch_label == label and hit.is_write:
                return hit
        return None

    def clear(self) -> None:
        """Forget recorded hits (watches stay)."""
        self._hits.clear()

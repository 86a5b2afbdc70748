"""Result cache: in-memory LRU in front of an optional on-disk store.

Entries are keyed by ``(job key, version)``.  The version string
defaults to the package release plus the detector revision
(:data:`repro.analysis.DETECTOR_VERSION`), so bumping either invalidates
every cached analysis without touching files on disk — stale versions
simply stop being read.  Hit/miss/eviction accounting is kept on the
cache itself and folded into the service metrics snapshot.

The disk tier is best effort.  A write that fails (unwritable
directory, full disk, a result that is not JSON) is counted in
``write_errors`` and never raised, and an unreadable or corrupt entry
reads as a miss.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from ..fileio import atomic_write_text


def default_cache_version() -> str:
    """Package release + detector revision, e.g. ``1.0.0+d1``."""
    from .. import __version__
    from ..analysis import DETECTOR_VERSION

    return f"{__version__}+d{DETECTOR_VERSION}"


class ResultCache:
    """Thread-safe LRU result cache with optional disk persistence."""

    def __init__(
        self,
        directory: Optional[str] = None,
        max_entries: int = 1024,
        version: Optional[str] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.version = version or default_cache_version()
        self.max_entries = max_entries
        self.directory = Path(directory) if directory else None
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.stores = 0
        self.write_errors = 0

    # -- paths -------------------------------------------------------------

    def _path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        safe_version = self.version.replace("/", "_")
        return self.directory / safe_version / f"{key}.json"

    # -- lookups -----------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key`` under the current version."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            path = self._path(key)
            if path is not None and path.is_file():
                try:
                    value = json.loads(path.read_text())
                except (OSError, ValueError):
                    value = None
                if isinstance(value, dict):
                    self._insert(key, value)
                    self.hits += 1
                    self.disk_hits += 1
                    return value
            self.misses += 1
            return None

    def put(self, key: str, value: dict) -> bool:
        """Store a result in memory and (when configured) on disk.

        The in-memory insert happens under the lock; the disk write does
        NOT — a slow or wedged filesystem must never serialize readers
        behind it.  Disk errors (full disk, read-only directory) and
        non-JSON-serializable values are
        absorbed into :attr:`write_errors` rather than raised: a job
        whose worker succeeded stays succeeded even when the cache
        cannot persist its result.  Returns ``True`` when the entry is
        durable on disk (or no disk store is configured).
        """
        with self._lock:
            self._insert(key, value)
            self.stores += 1
        return self._write_disk(key, value)

    def _write_disk(self, key: str, value: dict) -> bool:
        """Best-effort persistence: any write failure returns ``False``."""
        path = self._path(key)
        if path is None:
            return True
        try:
            # Serialization stays inside the guarded region: a worker
            # result that is not JSON-able (sets, exotic objects) is a
            # write error like any other — never an exception out of a
            # job that already SUCCEEDED.
            data = json.dumps(value, sort_keys=True)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, data)
        except (OSError, TypeError, ValueError):
            with self._lock:
                self.write_errors += 1
            return False
        return True

    def _insert(self, key: str, value: dict) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Accounting snapshot for the metrics endpoint."""
        with self._lock:
            return {
                "version": self.version,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "stores": self.stores,
                "write_errors": self.write_errors,
                "hit_rate": round(self.hit_rate, 4),
                "persistent": self.directory is not None,
            }

"""Atomic file publication for the on-disk stores (checkpoints,
regression bundles, the result cache) and the canonical JSON encoding
their ids, digests and keys hash."""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path


def canonical_json(payload) -> str:
    """Deterministic encoding: sorted keys, no whitespace.  Bundle ids,
    checkpoint digests, job keys and matrix reports all hash or store
    this form, so it must stay byte-stable."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so a reader sees the old file or the
    new one, never a torn one.

    The text goes to a sibling ``<name>.<pid>.<tid>.tmp`` — unique per
    writer, so concurrent writers of one path never interleave — which
    is then renamed over ``path``.  On failure the tmp file is removed
    and the ``OSError`` propagates.
    """
    tmp = path.parent / f"{path.name}.{os.getpid():x}.{threading.get_ident():x}.tmp"
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise

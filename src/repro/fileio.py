"""Atomic file publication for the on-disk stores (checkpoints,
regression bundles, the result cache)."""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path


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

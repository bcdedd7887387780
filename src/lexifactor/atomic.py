"""Crash-safe artifact writes: a temporary file, then ``os.replace``.

An artifact is written to a temporary file in its own directory and
renamed over the target only once it is complete, so a reader sees
either the previous file or the new one, never a partial write. A write
that raises removes its temporary file. There is no ``fsync``: this
guards against a process that fails or is killed mid-write, not against
a power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace ``path`` when the block
    ends without an exception. Newlines are written as given."""
    path = Path(path)
    # One fixed name per target: runs in one directory are serialized by
    # the run lock, and a file left by a killed run is overwritten.
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``, crash-safely."""
    with atomic_open(path) as handle:
        handle.write(text)

"""Exception classes shared across the pipeline.

The command-line driver maps each kind to an exit status:
:class:`ValidationError` (bad arguments or configuration) to 1;
:class:`StageError` (unparseable inputs, empty intermediate products,
missing upstream artifacts, a LAPACK failure, a SciPy without a routine
the efa stage calls) to 2, :class:`ParseError` being the one that names
the file and line; ``OSError`` to 3.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class ValidationError(Exception):
    """Invalid user input: bad flag values, malformed configuration."""


class StageError(Exception):
    """A pipeline stage could not produce its artifact."""


class ParseError(StageError):
    """An input file violates its declared format.

    Carries enough context to point the user at the offending line.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


@contextmanager
def named_decode_errors(path: str | Path) -> Iterator[None]:
    """Turn a UTF-8 decode error in the block into a :class:`ParseError`
    that names ``path``. The error's offset counts from the start of the
    chunk a reader decoded, not of the file, so it is not shown."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=str(path)) from exc


_SURROGATE = re.compile("[\ud800-\udfff]")


def refuse_lone_surrogates(value: Any, raw: str, *, path: str | Path, line: int | None = None) -> None:
    """Raise a :class:`ParseError` naming ``path`` (and ``line``) if a
    string of ``value``, a key too, holds a surrogate code point, which
    no UTF-8 writer can encode. JSON parsed from ``raw`` holds one only
    through a lone ``\\u`` escape, so ``value`` is searched only when
    ``raw`` holds ``\\u``."""
    if "\\u" not in raw:
        return
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            if _SURROGATE.search(item):
                raise ParseError("lone surrogate escape, which UTF-8 cannot encode", path=str(path), line=line)
        elif isinstance(item, dict):
            pending.extend(item)
            pending.extend(item.values())
        elif isinstance(item, list):
            pending.extend(item)

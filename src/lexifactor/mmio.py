"""Matrix Market persistence for the binary document-term matrix.

The matrix itself goes into a ``coordinate pattern`` Matrix Market file
with 1-based ``row col`` entries in row-major order. Column labels live
in a ``<name>.terms.txt`` sidecar and row ids in ``<name>.docs.txt``,
one per line, aligned with the matrix dimensions. The header and the
size line are parsed in :mod:`lexifactor.artifacts`, where ``verify``
reads them too.

The reader takes back only what the writer writes. Its entry lines must
be in the writer's own form: unsigned indices, strictly increasing
row-major order, no comment, blank line or CR. Anything else is a
format error at the earliest offending line. A few array operations
over the whole entry section check and decode it; there is no
line-by-line path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .artifacts import MATRIX_MARKET_HEADER, _parse_size
from .atomic import atomic_open
from .errors import ParseError, named_decode_errors
from .matrix import DocTermMatrix

# More digits than this may overflow int64; such an index is out of range.
_MAX_DIGITS = 18


def terms_sidecar(mtx_path: str | Path) -> Path:
    return Path(mtx_path).with_suffix(".terms.txt")


def docs_sidecar(mtx_path: str | Path) -> Path:
    return Path(mtx_path).with_suffix(".docs.txt")


def write_matrix_market(matrix: DocTermMatrix, mtx_path: str | Path) -> None:
    """Write the matrix and both sidecars next to ``mtx_path``, each file
    crash-safely (see :mod:`lexifactor.atomic`)."""
    mtx_path = Path(mtx_path)
    # 1-based (row, column) pairs, interleaved, for one format call.
    pairs = np.column_stack((matrix.row_of_entry() + 1, matrix.indices + 1)).ravel().tolist()
    with atomic_open(mtx_path) as handle:
        handle.write(MATRIX_MARKET_HEADER + "\n")
        handle.write(f"{matrix.n_docs} {matrix.n_terms} {matrix.nnz()}\n")
        handle.write("%d %d\n" * matrix.nnz() % tuple(pairs))
    _write_lines(terms_sidecar(mtx_path), matrix.terms)
    _write_lines(docs_sidecar(mtx_path), matrix.doc_ids)


def read_matrix_market(mtx_path: str | Path) -> DocTermMatrix:
    """Read a matrix written by :func:`write_matrix_market`.

    Only the writer's form is read: ``row column`` lines of ASCII digits,
    each ending in a newline, in range and in strictly increasing
    row-major order; an index of more than 18 digits, even with leading
    zeros, is out of range. Anything else, or a wrong entry count, is a
    format error, which names the earliest offending line.
    """
    mtx_path = Path(mtx_path)
    path = str(mtx_path)
    terms = _read_lines(terms_sidecar(mtx_path))
    doc_ids = _read_lines(docs_sidecar(mtx_path))

    with open(mtx_path, "rb") as handle:
        lines = (line.decode("utf-8", "replace") for line in handle)
        n_docs, n_terms, nnz, lineno = _parse_size(lines, path)
        body = handle.read()  # the entry lines, which follow the size line
    if n_docs != len(doc_ids):
        raise ParseError(
            f"matrix declares {n_docs} rows but docs sidecar lists {len(doc_ids)}", path=path
        )
    if n_terms != len(terms):
        raise ParseError(
            f"matrix declares {n_terms} columns but terms sidecar lists {len(terms)}", path=path
        )

    rows, columns = _entries(body, lineno, n_docs, n_terms, path)
    if rows.size != nnz:
        raise ParseError(f"size line declares {nnz} entries, file has {rows.size}", path=path)

    return DocTermMatrix(
        doc_ids=tuple(doc_ids),
        terms=tuple(terms),
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_docs)))),
        indices=columns,
    )


def _entries(
    body: bytes, lineno: int, n_docs: int, n_terms: int, path: str
) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based rows and columns of the entry lines after the size
    line, at line ``lineno``, or a format error at the earliest offending
    line. Each check looks only at the lines before the first offence
    found so far, so within one line a malformed entry comes first, then
    an index out of range, then an entry out of order."""
    text = np.frombuffer(body, dtype=np.uint8)
    # Each non-digit byte is a separator: entry i ends its row at
    # separator 2i, a space, and its column at 2i + 1, a newline.
    separators = np.flatnonzero((text < ord("0")) | (text > ord("9")))
    kinds = text[separators]
    widths = np.diff(separators, prepend=-1) - 1
    # The first separator of the wrong kind or with no digit before it.
    first_bad = min(
        2 * _first(kinds[0::2] != ord(" ")),
        2 * _first(kinds[1::2] != ord("\n")) + 1,
        _first(widths == 0),
    )
    count = first_bad // 2  # the well-formed lines before the first malformed one
    unterminated = bool(body) and not body.endswith(b"\n")
    problem = "malformed" if first_bad < kinds.size or unterminated else None
    wide = _first(widths[: 2 * count] > _MAX_DIGITS) // 2
    if wide < count:
        count, problem = wide, "outside"
    del kinds, widths  # each array goes once its checks are done, to keep the peak down

    end = separators[2 * count - 1] + 1 if count else 0
    # Only a refused file is sliced: a slice copies the bytes.
    values = np.fromstring(body if end == len(body) else body[:end], dtype=np.int64, sep=" ")
    rows, columns = values[0::2] - 1, values[1::2] - 1
    del values
    outside = _first((rows < 0) | (rows >= n_docs) | (columns < 0) | (columns >= n_terms))
    if outside < count:
        count, problem = outside, "outside"
    keys = rows[:count] * n_terms + columns[:count]
    unordered = _first(keys[1:] <= keys[:-1]) + 1
    if unordered < count:
        count, problem = unordered, "order"
    if problem is None:
        return rows, columns

    def line(i: int) -> bytes:
        start = separators[2 * i - 1] + 1 if i else 0
        stop = body.find(b"\n", start)
        return body[start : stop if stop >= 0 else len(body)]

    def shown(i: int) -> str:
        return ", ".join(index.lstrip(b"0").decode() or "0" for index in line(i).split(b" "))

    if problem == "malformed":
        message = f"malformed entry: {line(count).decode('utf-8', 'replace')!r}"
    elif problem == "outside":
        message = f"entry ({shown(count)}) outside {n_docs}x{n_terms}"
    elif shown(count) == shown(count - 1):
        message = f"duplicate entry ({shown(count)})"
    else:
        message = f"entry ({shown(count)}) not after ({shown(count - 1)})"
    raise ParseError(message, path=path, line=lineno + 1 + count)


def _first(mask: np.ndarray) -> int:
    """The index of the first true element of ``mask``, or its length."""
    index = int(mask.argmax()) if mask.size else 0
    return index if mask.size and mask[index] else mask.size


def _write_lines(path: Path, lines: tuple[str, ...]) -> None:
    with atomic_open(path) as handle:
        handle.writelines(line + "\n" for line in lines)


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise ParseError(f"missing sidecar file: {path}", path=str(path))
    with named_decode_errors(path), open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle]

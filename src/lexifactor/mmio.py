"""Matrix Market persistence for the binary document-term matrix.

The matrix itself goes into a ``coordinate pattern`` Matrix Market file
with 1-based ``row col`` entries in row-major order. Column labels live
in a ``<name>.terms.txt`` sidecar and row ids in ``<name>.docs.txt``,
one per line, aligned with the matrix dimensions. The header and the
size line are parsed in :mod:`lexifactor.artifacts`, where ``verify``
reads them too.

The reader has two paths to one result. A line scan defines what it
accepts and every error it raises. An entry section in exactly the
writer's own form, which is every file the pipeline writes, is instead
checked and decoded in a few array operations; any other section, valid
or not, goes to the scan.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np

from .artifacts import MATRIX_MARKET_HEADER, _parse_size
from .atomic import atomic_open
from .errors import ParseError, named_decode_errors
from .matrix import DocTermMatrix

# More digits than this may overflow int64; such an index is out of range.
_MAX_DIGITS = 18

# The ASCII whitespace of str.isspace(); CRs are newlines by now.
_BLANK = rb"[ \t\x0b\x0c\x1c-\x1f]"
_BLANK_LINE = re.compile(_BLANK + rb"*")
_ENTRY_LINE = re.compile(
    _BLANK + rb"*(?P<row>[+-]?(?P<row_digits>[0-9]+))"
    + _BLANK + rb"+(?P<column>[+-]?(?P<column_digits>[0-9]+))" + _BLANK + rb"*"
)


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

    Entries may appear in any order, between ``%`` comment lines and
    blank lines. Each entry line holds two ASCII decimal indices, with
    an optional sign, separated by ASCII whitespace. Malformed entries,
    out-of-range indices, duplicates and a wrong entry count are format
    errors; when a file has several, the one on the earliest line is
    reported. An index of more than 18 digits is out of range, even with
    leading zeros, so that every index fits in int64.

    Entries exactly as the writer writes them are decoded in one array
    pass; anything else is read one line at a time.
    """
    mtx_path = Path(mtx_path)
    path = str(mtx_path)
    terms = _read_lines(terms_sidecar(mtx_path))
    doc_ids = _read_lines(docs_sidecar(mtx_path))

    data = mtx_path.read_bytes()
    if b"\r" in data:  # universal newlines, as a text-mode read sees them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")

    stream = io.BytesIO(data)
    lines = (line.decode("utf-8", "replace") for line in stream)
    n_docs, n_terms, nnz, lineno = _parse_size(lines, path)
    pos = stream.tell()  # just past the size line
    if n_docs != len(doc_ids):
        raise ParseError(
            f"matrix declares {n_docs} rows but docs sidecar lists {len(doc_ids)}", path=path
        )
    if n_terms != len(terms):
        raise ParseError(
            f"matrix declares {n_terms} columns but terms sidecar lists {len(terms)}", path=path
        )

    body = data[pos:]
    entries = _writer_entries(body, n_docs, n_terms)
    if entries is None:
        entries = _scan_entries(body, lineno, n_docs, n_terms, path)
    rows, columns = entries
    if rows.size != nnz:
        raise ParseError(f"size line declares {nnz} entries, file has {rows.size}", path=path)

    return DocTermMatrix(
        doc_ids=tuple(doc_ids),
        terms=tuple(terms),
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_docs)))),
        indices=columns,
    )


def _writer_entries(
    body: bytes, n_docs: int, n_terms: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode an entry section in exactly the writer's form, or return
    None and leave every other section, valid or not, to the scan.

    That form is ``row column\\n`` lines of 1-18 unsigned ASCII digits,
    indices in range and entries in strictly increasing row-major order.
    """
    text = np.frombuffer(body, dtype=np.uint8)
    if text.size and text[-1] != ord("\n") or np.any(text > ord("9")):
        return None
    # The only bytes below "0" are the separators: a space, then a newline.
    separators = np.flatnonzero(text < ord("0"))
    kinds = text[separators]
    if kinds.size % 2 or np.any(kinds[0::2] != ord(" ")) or np.any(kinds[1::2] != ord("\n")):
        return None
    widths = np.diff(separators, prepend=-1) - 1
    if np.any((widths < 1) | (widths > _MAX_DIGITS)):
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    rows, columns = values[0::2] - 1, values[1::2] - 1
    if np.any((rows < 0) | (rows >= n_docs) | (columns < 0) | (columns >= n_terms)):
        return None
    keys = rows * n_terms + columns
    if np.any(keys[1:] <= keys[:-1]):
        return None
    return rows, columns


def _scan_entries(
    body: bytes, lineno: int, n_docs: int, n_terms: int, path: str
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and decode the entry lines one at a time.

    ``lineno`` is the file line number of the size line. Raises at the
    first offending line. Returns 0-based row and column indices sorted
    row-major.
    """
    rows: list[int] = []
    columns: list[int] = []
    seen: set[tuple[int, int]] = set()
    for line, text in enumerate(body.split(b"\n"), start=lineno + 1):
        if text.startswith(b"%") or _BLANK_LINE.fullmatch(text):
            continue
        entry = _ENTRY_LINE.fullmatch(text)
        if entry is None:
            message = f"malformed entry: {text.decode('utf-8', 'replace').strip()!r}"
            raise ParseError(message, path=path, line=line)
        # The digit count alone puts a long index out of range; int() would
        # refuse one of thousands of digits.
        too_long = max(len(entry["row_digits"]), len(entry["column_digits"])) > _MAX_DIGITS
        row, column = (0, 0) if too_long else (int(entry["row"]), int(entry["column"]))
        if too_long or not (1 <= row <= n_docs and 1 <= column <= n_terms):
            shown = f"{_decimal(entry['row'])}, {_decimal(entry['column'])}"
            raise ParseError(f"entry ({shown}) outside {n_docs}x{n_terms}", path=path, line=line)
        if (row, column) in seen:
            raise ParseError(f"duplicate entry ({row}, {column})", path=path, line=line)
        seen.add((row, column))
        rows.append(row - 1)
        columns.append(column - 1)
    order = np.lexsort((columns, rows))
    return np.array(rows, dtype=np.int64)[order], np.array(columns, dtype=np.int64)[order]


def _decimal(index: bytes) -> str:
    """``str(int(index))`` for a signed ASCII index of any length."""
    digits = index.lstrip(b"+-").lstrip(b"0").decode() or "0"
    return "-" + digits if index.startswith(b"-") and digits != "0" else digits


def _write_lines(path: Path, lines: tuple[str, ...]) -> None:
    with atomic_open(path) as handle:
        handle.writelines(line + "\n" for line in lines)


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise ParseError(f"missing sidecar file: {path}", path=str(path))
    with named_decode_errors(path), open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle]

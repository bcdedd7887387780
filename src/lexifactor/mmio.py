"""Matrix Market persistence for the binary document-term matrix.

The matrix itself goes into a ``coordinate pattern`` Matrix Market file
with 1-based ``row col`` entries in row-major order. Column labels live
in a ``<name>.terms.txt`` sidecar and row ids in ``<name>.docs.txt``,
one per line, aligned with the matrix dimensions.

The reader works on whole arrays rather than line by line: it
classifies every byte of the entry section at once and accumulates the
digits of all indices together.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import ParseError
from .matrix import DocTermMatrix

_HEADER = "%%MatrixMarket matrix coordinate pattern general"

# More digits than this may overflow int64; such an index is out of range.
_MAX_DIGITS = 18

_SPACE, _DIGIT, _SIGN, _OTHER = 0, 1, 2, 3
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")] = _SPACE  # str.isspace() in ASCII
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN
_BYTE_CLASS.flags.writeable = False

_COMMENT_LINE = re.compile(rb"^%[^\n]*", re.MULTILINE)


def terms_sidecar(mtx_path: str | Path) -> Path:
    return Path(mtx_path).with_suffix(".terms.txt")


def docs_sidecar(mtx_path: str | Path) -> Path:
    return Path(mtx_path).with_suffix(".docs.txt")


def write_matrix_market(matrix: DocTermMatrix, mtx_path: str | Path) -> None:
    """Write the matrix and both sidecars next to ``mtx_path``."""
    mtx_path = Path(mtx_path)
    bounds = matrix.indptr.tolist()
    with open(mtx_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_HEADER + "\n")
        handle.write(f"{matrix.n_docs} {matrix.n_terms} {matrix.nnz()}\n")
        for row, (start, stop) in enumerate(zip(bounds, bounds[1:]), start=1):
            columns = (matrix.indices[start:stop] + 1).tolist()
            handle.writelines(f"{row} {column}\n" for column in columns)
    _write_lines(terms_sidecar(mtx_path), matrix.terms)
    _write_lines(docs_sidecar(mtx_path), matrix.doc_ids)


def read_matrix_market(mtx_path: str | Path) -> DocTermMatrix:
    """Read a matrix written by :func:`write_matrix_market`.

    Entries may appear in any order, between ``%`` comment lines and
    blank lines. Each entry line holds two ASCII decimal indices, with
    an optional sign. Malformed entries, out-of-range indices (including
    any of more than 18 digits), duplicates and a wrong entry count are
    format errors; when a file has several, the one on the earliest line
    is reported.
    """
    mtx_path = Path(mtx_path)
    path = str(mtx_path)
    terms = _read_lines(terms_sidecar(mtx_path))
    doc_ids = _read_lines(docs_sidecar(mtx_path))

    data = mtx_path.read_bytes()
    if b"\r" in data:  # universal newlines, as a text-mode read sees them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")

    pos = (data.find(b"\n") + 1) or len(data)
    header = data[:pos].decode("utf-8", "replace").rstrip("\n")
    if header.split() != _HEADER.split():
        raise ParseError(f"unsupported Matrix Market header: {header!r}", path=path, line=1)
    lineno = 1
    while True:  # comment and blank lines may precede the size line
        if pos >= len(data):
            raise ParseError("missing size line", path=path)
        end = (data.find(b"\n", pos) + 1) or len(data)
        size_line, pos = data[pos:end].decode("utf-8", "replace"), end
        lineno += 1
        if not size_line.startswith("%") and size_line.strip():
            break
    try:
        n_docs, n_terms, nnz = (int(x) for x in size_line.split())
    except ValueError as exc:
        raise ParseError(f"malformed size line: {size_line!r}", path=path, line=lineno) from exc
    if n_docs != len(doc_ids):
        raise ParseError(
            f"matrix declares {n_docs} rows but docs sidecar lists {len(doc_ids)}", path=path
        )
    if n_terms != len(terms):
        raise ParseError(
            f"matrix declares {n_terms} columns but terms sidecar lists {len(terms)}", path=path
        )

    body = data[pos:]
    if b"%" in body:  # blank out comment lines, keeping the line count
        body = _COMMENT_LINE.sub(b"", body)
    rows, columns = _parse_entries(body, lineno, n_docs, n_terms, path)
    if rows.size != nnz:
        raise ParseError(f"size line declares {nnz} entries, file has {rows.size}", path=path)

    return DocTermMatrix(
        doc_ids=tuple(doc_ids),
        terms=tuple(terms),
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_docs)))),
        indices=columns,
    )


def _parse_entries(
    body: bytes, lineno: int, n_docs: int, n_terms: int, path: str
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and decode the entry lines that follow the size line.

    ``lineno`` is the file line number of the size line. Returns 0-based
    row and column indices sorted row-major.
    """
    text = np.frombuffer(body, dtype=np.uint8)
    if not text.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    byte_class = _BYTE_CLASS.take(text)
    line_ends = np.flatnonzero(text == ord("\n"))
    if text[-1] != ord("\n"):
        line_ends = np.append(line_ends, text.size)
    line_starts = np.concatenate(([0], line_ends[:-1] + 1))

    def line_text(line: int) -> str:
        return body[line_starts[line] : line_ends[line]].decode("utf-8", "replace")

    def fail(message: str, line: int):
        raise ParseError(message, path=path, line=lineno + 1 + int(line))

    in_token = byte_class != _SPACE
    token_start = in_token.copy()
    token_start[1:] &= ~in_token[:-1]
    token_end = in_token  # updated in place: in_token is not read again
    token_end[:-1] &= ~token_end[1:]
    starts = np.flatnonzero(token_start)
    ends = np.flatnonzero(token_end) + 1
    # Every line segment holds at least its newline, so none is empty.
    tokens_per_line = np.add.reduceat(token_start, line_starts, dtype=np.int64)

    # A line is malformed when it holds a byte that is neither a digit,
    # whitespace nor a sign, a sign that does not open a token followed by
    # a digit, or a number of tokens other than zero (blank) or two.
    signs = np.flatnonzero(byte_class == _SIGN)
    # A sign in the last byte reads itself as its successor: not a digit.
    bad_signs = signs[~token_start[signs] | (byte_class.take(signs + 1, mode="clip") != _DIGIT)]
    bad_bytes = np.flatnonzero(byte_class == _OTHER)
    malformed = np.concatenate(
        (
            np.searchsorted(line_ends, bad_bytes[:1]),
            np.searchsorted(line_ends, bad_signs[:1]),
            np.flatnonzero((tokens_per_line != 0) & (tokens_per_line != 2))[:1],
        )
    )
    first_malformed = int(malformed.min()) if malformed.size else line_ends.size

    # Every line before the first malformed one is blank or an entry.
    entry_lines = np.flatnonzero(tokens_per_line[:first_malformed] == 2)
    n_tokens = 2 * entry_lines.size
    starts, ends = starts[:n_tokens], ends[:n_tokens]
    negative = text[starts] == ord("-")
    width = ends - starts - (byte_class[starts] == _SIGN)
    values = np.zeros(n_tokens, dtype=np.int64)
    power = 1
    for place in range(min(int(width.max(initial=0)), _MAX_DIGITS)):
        # Bytes left of a token's first digit are multiplied by zero.
        digit = text.take(ends - 1 - place, mode="clip") - ord("0")
        values += digit * ((place < width) * power)
        power *= 10
    values[width > _MAX_DIGITS] = np.iinfo(np.int64).max
    values[negative] *= -1
    rows, columns = values[0::2] - 1, values[1::2] - 1

    outside = np.flatnonzero((rows < 0) | (rows >= n_docs) | (columns < 0) | (columns >= n_terms))
    n_inside = int(outside[0]) if outside.size else rows.size

    # Duplicates among the entries before the first out-of-range one; the
    # second occurrence is the offending line.
    keys = rows[:n_inside] * n_terms + columns[:n_inside]
    order = None
    if np.any(keys[1:] <= keys[:-1]):
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if repeats.size:
            line = entry_lines[repeats.min()]
            row, column = (int(x) for x in line_text(line).split())
            fail(f"duplicate entry ({row}, {column})", line)
    if outside.size:
        line = entry_lines[outside[0]]
        row, column = (int(x) for x in line_text(line).split())
        fail(f"entry ({row}, {column}) outside {n_docs}x{n_terms}", line)
    if first_malformed < line_ends.size:
        fail(f"malformed entry: {line_text(first_malformed).strip()!r}", first_malformed)

    if order is not None:
        rows, columns = rows[order], columns[order]
    return rows, columns


def _write_lines(path: Path, lines: tuple[str, ...]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(line + "\n" for line in lines)


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise ParseError(f"missing sidecar file: {path}", path=str(path))
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle]

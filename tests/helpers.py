"""Shared test utilities: dense/sparse conversion and textbook oracles.

The oracles here are deliberately naive re-derivations (loops and
first-principles formulas) so the package implementations are checked
against something independent.
"""

from __future__ import annotations

import math

import numpy as np

from lexifactor import DocTermMatrix, ParseError


def from_rows(doc_ids, terms, rows) -> DocTermMatrix:
    """Matrix from one ascending tuple of column indices per document."""
    return DocTermMatrix(
        doc_ids=tuple(doc_ids),
        terms=tuple(terms),
        indptr=np.cumsum([0, *map(len, rows)], dtype=np.int64),
        indices=np.array([column for row in rows for column in row], dtype=np.int64),
    )


def rows_of(matrix: DocTermMatrix) -> tuple[tuple[int, ...], ...]:
    """The column indices of each row, as tuples."""
    bounds = matrix.indptr.tolist()
    return tuple(
        tuple(matrix.indices[start:stop].tolist()) for start, stop in zip(bounds, bounds[1:])
    )


def from_dense(dense: np.ndarray, doc_ids=None, terms=None) -> DocTermMatrix:
    dense = np.asarray(dense)
    rows = tuple(tuple(int(j) for j in np.nonzero(row)[0]) for row in dense)
    return from_rows(
        doc_ids or tuple(f"d{i}" for i in range(dense.shape[0])),
        terms or tuple(f"t{j}" for j in range(dense.shape[1])),
        rows,
    )


def to_dense(matrix: DocTermMatrix) -> np.ndarray:
    """Materialize as a float array, one row at a time."""
    dense = np.zeros((matrix.n_docs, matrix.n_terms), dtype=np.float64)
    for i, row in enumerate(rows_of(matrix)):
        dense[i, list(row)] = 1.0
    return dense


def reference_read_entries(mtx_path, n_sidecar_docs: int, n_sidecar_terms: int):
    """Line-by-line Matrix Market reader: the rows of the matrix.

    Reads the file in text mode and checks one line at a time, raising
    the same ``ParseError`` messages as the package reader. The sidecar
    lengths are passed in rather than read.
    """
    path = str(mtx_path)
    with open(mtx_path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header.split() != "%%MatrixMarket matrix coordinate pattern general".split():
            raise ParseError(f"unsupported Matrix Market header: {header!r}", path=path, line=1)
        lineno = 1
        size_line = None
        for raw in handle:
            lineno += 1
            if raw.startswith("%") or not raw.strip():
                continue
            size_line = raw
            break
        if size_line is None:
            raise ParseError("missing size line", path=path)
        try:
            n_docs, n_terms, nnz = (int(x) for x in size_line.split())
        except ValueError as exc:
            raise ParseError(f"malformed size line: {size_line!r}", path=path, line=lineno) from exc
        if n_docs != n_sidecar_docs:
            raise ParseError(
                f"matrix declares {n_docs} rows but docs sidecar lists {n_sidecar_docs}", path=path
            )
        if n_terms != n_sidecar_terms:
            raise ParseError(
                f"matrix declares {n_terms} columns but terms sidecar lists {n_sidecar_terms}",
                path=path,
            )
        row_sets: list[set[int]] = [set() for _ in range(n_docs)]
        seen = 0
        for raw in handle:
            lineno += 1
            if raw.startswith("%") or not raw.strip():
                continue
            try:
                row, column = (int(x) for x in raw.split())
            except ValueError as exc:
                raise ParseError(f"malformed entry: {raw.strip()!r}", path=path, line=lineno) from exc
            if not (1 <= row <= n_docs and 1 <= column <= n_terms):
                raise ParseError(
                    f"entry ({row}, {column}) outside {n_docs}x{n_terms}", path=path, line=lineno
                )
            if column - 1 in row_sets[row - 1]:
                raise ParseError(f"duplicate entry ({row}, {column})", path=path, line=lineno)
            row_sets[row - 1].add(column - 1)
            seen += 1
        if seen != nnz:
            raise ParseError(f"size line declares {nnz} entries, file has {seen}", path=path)
    return tuple(tuple(sorted(row)) for row in row_sets)


def reference_exemplars(matrix: DocTermMatrix, table, limit: int) -> dict[int, tuple[str, ...]]:
    """Exemplar reviews by scanning every row once per factor."""
    index = {term: i for i, term in enumerate(matrix.terms)}
    exemplars = {}
    for factor in table.factors:
        columns = {index[term] for term, _ in factor.entries}
        scored = []
        for doc_id, row in zip(matrix.doc_ids, rows_of(matrix)):
            hits = len(columns.intersection(row))
            if hits:
                scored.append((-hits, doc_id))
        scored.sort()
        exemplars[factor.factor] = tuple(doc_id for _, doc_id in scored[:limit])
    return exemplars


def random_binary(rng: np.random.Generator, n_docs: int, n_terms: int, density: float = 0.3) -> np.ndarray:
    """Random binary matrix where every column contains a 0 and a 1."""
    dense = (rng.random((n_docs, n_terms)) < density).astype(np.float64)
    for j in range(n_terms):
        column = dense[:, j]
        if column.sum() == 0:
            dense[rng.integers(0, n_docs), j] = 1.0
        if column.sum() == n_docs:
            dense[rng.integers(0, n_docs), j] = 0.0
    return dense


def textbook_phi(dense: np.ndarray) -> np.ndarray:
    """Pairwise phi coefficients straight from the definition."""
    n, p = dense.shape
    phi = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            a, b = dense[:, i], dense[:, j]
            p1, p2 = a.mean(), b.mean()
            p11 = float(np.mean(a * b))
            phi[i, j] = (p11 - p1 * p2) / math.sqrt(p1 * (1 - p1) * p2 * (1 - p2))
    return phi


def align_columns(estimated: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Permute and sign-flip estimated columns to best match the target.

    Greedy assignment on absolute column correlations; good enough for
    well-separated factors.
    """
    k = target.shape[1]
    remaining = list(range(k))
    aligned = np.zeros_like(target)
    for j in range(k):
        scores = [abs(float(estimated[:, c] @ target[:, j])) for c in remaining]
        pick = remaining.pop(int(np.argmax(scores)))
        column = estimated[:, pick]
        if float(column @ target[:, j]) < 0:
            column = -column
        aligned[:, j] = column
    return aligned

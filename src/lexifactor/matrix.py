"""Binary document-term matrix construction and variance filtering.

The matrix is binary and sparse: row ``d`` column ``t`` is 1 exactly
when some token of document ``d`` lemmatizes to dictionary term ``t``.
It is stored in compressed sparse row (CSR) form: the columns of row
``d`` are ``indices[indptr[d]:indptr[d + 1]]``, ascending and unique.
Every consumer works on those two arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyMatrixError, ValidationError
from .ingest import Review, tokenize
from .lexicon import Lexicon, TermDictionary, lemmatize_token


@dataclass(eq=False)
class DocTermMatrix:
    """Sparse binary matrix over documents (rows) and terms (columns).

    ``indptr`` has ``n_docs + 1`` entries; ``indices`` holds the column
    indices of each row, ascending within the row.
    """

    doc_ids: tuple[str, ...]
    terms: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DocTermMatrix):
            return NotImplemented
        return (
            self.doc_ids == other.doc_ids
            and self.terms == other.terms
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def nnz(self) -> int:
        return int(self.indices.size)

    def row_of_entry(self) -> np.ndarray:
        """Row index of every stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.n_docs, dtype=np.int64), np.diff(self.indptr))


@dataclass(frozen=True, slots=True)
class ColumnStats:
    """Per-column document frequency, incidence rate, and variance."""

    df: int
    p: float
    variance: float


def build_matrix(
    reviews: Sequence[Review],
    dictionary: TermDictionary,
    lexicon: Lexicon,
) -> DocTermMatrix:
    """Map each review onto the dictionary columns it mentions."""
    index = dictionary.index
    cache: dict[str, int] = {}  # token -> column, -1 for no dictionary term
    doc_ids: list[str] = []
    indptr = [0]
    indices: list[int] = []
    for review in reviews:
        columns: set[int] = set()
        for token in tokenize(review.text):
            column = cache.get(token)
            if column is None:
                lemma = lemmatize_token(lexicon, token)
                column = -1 if lemma is None else index.get(lemma, -1)
                cache[token] = column
            if column >= 0:
                columns.add(column)
        indices.extend(sorted(columns))
        indptr.append(len(indices))
        doc_ids.append(review.id)
    return DocTermMatrix(
        doc_ids=tuple(doc_ids),
        terms=dictionary.terms,
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
    )


def column_stats(matrix: DocTermMatrix) -> tuple[ColumnStats, ...]:
    """Document frequency, rate p = df/n, and Bernoulli variance p(1-p)."""
    if matrix.n_docs == 0:
        raise EmptyMatrixError("cannot compute column stats of an empty matrix")
    counts = np.bincount(matrix.indices, minlength=matrix.n_terms)
    n = matrix.n_docs
    stats = []
    for df in counts.tolist():
        p = df / n
        stats.append(ColumnStats(df=df, p=p, variance=p * (1.0 - p)))
    return tuple(stats)


def _select_columns(matrix: DocTermMatrix, keep: Sequence[int]) -> DocTermMatrix:
    """Project the matrix onto ``keep`` (ascending original column indices)."""
    remap = np.full(matrix.n_terms, -1, dtype=np.int64)
    remap[list(keep)] = np.arange(len(keep))
    remapped = remap[matrix.indices]
    kept = remapped >= 0
    # Entries kept before each row boundary give the new row boundaries.
    kept_before = np.concatenate(([0], np.cumsum(kept)))
    return DocTermMatrix(
        doc_ids=matrix.doc_ids,
        terms=tuple(matrix.terms[old] for old in keep),
        indptr=kept_before[matrix.indptr],
        indices=remapped[kept],
    )


def filter_low_variance(
    matrix: DocTermMatrix,
    min_variance: float,
    stats: Sequence[ColumnStats] | None = None,
) -> tuple[DocTermMatrix, tuple[int, ...]]:
    """Keep columns with variance >= ``min_variance``; also return their
    original column indices."""
    if not 0.0 <= min_variance <= 0.25:
        raise ValidationError(f"min_variance must lie in [0, 0.25], got {min_variance}")
    if stats is None:
        stats = column_stats(matrix)
    keep = tuple(i for i, s in enumerate(stats) if s.variance >= min_variance)
    if not keep:
        raise EmptyMatrixError(f"no columns with variance >= {min_variance}")
    return _select_columns(matrix, keep), keep


def filter_top_variance(
    matrix: DocTermMatrix,
    k: int,
    stats: Sequence[ColumnStats] | None = None,
) -> tuple[DocTermMatrix, tuple[int, ...]]:
    """Keep the ``k`` highest-variance columns (ties go to the lower
    column index); also return their original indices."""
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    if stats is None:
        stats = column_stats(matrix)
    ranked = sorted(range(len(stats)), key=lambda i: (-stats[i].variance, i))
    keep = tuple(sorted(ranked[: min(k, len(ranked))]))
    if not keep:
        raise EmptyMatrixError("matrix has no columns")
    return _select_columns(matrix, keep), keep


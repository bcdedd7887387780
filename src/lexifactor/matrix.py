"""Binary document-term matrix construction and variance filtering.

The matrix is binary and sparse: row ``d`` column ``t`` is 1 exactly
when some non-stopword token of document ``d`` lemmatizes to dictionary
term ``t``, so column ``t`` holds the term's document frequency. Within
one run it is built from the per-review lemma ids of the lexical pass
(:class:`lexifactor.lexicon.ReviewLemmas`) that the dictionary pass
fills, so building it needs no second pass over the text (its token
map holds each stopword at -1, no lemma). Built from the dictionary
alone, the same per-review loop looks each review's tokens up among the
terms' recorded surface forms, with neither the lexical database nor
the stopword list. It is stored in compressed sparse row (CSR) form: the
columns of row ``d`` are ``indices[indptr[d]:indptr[d + 1]]``,
ascending and unique. Every consumer works on those two arrays
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .artifacts import TermColumns
from .errors import StageError, ValidationError

# tokenize and lemmatize_token are not called here; they stay importable
# from this module because bench/traced.py counts their calls through it.
from .ingest import Review, tokenize  # noqa: F401
from .lexicon import Lexicon, ReviewLemmas, TermDictionary, _lexical_pass, _review_ids, lemmatize_token  # noqa: F401


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


class ColumnStats(NamedTuple):
    """Per-column document frequency, incidence rate p = df/n, and
    Bernoulli variance p(1-p), one array entry per column."""

    df: np.ndarray
    p: np.ndarray
    variance: np.ndarray


def build_matrix(
    reviews: Sequence[Review],
    dictionary: TermDictionary | TermColumns,
    lemmas: ReviewLemmas | Lexicon | None = None,
) -> DocTermMatrix:
    """Map each review onto the dictionary columns its lemmas name.

    Only the dictionary's ``terms`` and ``index`` are read, and its
    ``forms`` when no ``lemmas`` are given, so a :class:`TermColumns`
    serves as well as the whole :class:`TermDictionary`.

    ``lemmas`` is the lexical pass over ``reviews`` that
    :func:`lexifactor.lexicon.build_dictionary` filled, so the matrix is
    built without tokenizing. Without it, each review is tokenized and
    its tokens are looked up among the terms' ``forms``, in the lexical
    pass's per-review loop (``lexicon._review_ids``): for the reviews
    the dictionary was built from, each column then counts exactly the
    reviews its term's ``doc_freq`` counted. Given a :class:`Lexicon`, as
    the corpus-scale acceptance criterion calls it, this runs the
    dictionary's lexical pass itself with an empty stopword list, so
    there a stopword token whose lemma is a term sets that term's column
    although ``doc_freq`` did not count it.
    """
    if lemmas is None:
        # Each review's terms, as lemma ids over the vocabulary of terms.
        term_of = {form: term for term, forms in enumerate(dictionary.forms) for form in forms}
        lemmas = ReviewLemmas(dictionary.terms, *_review_ids(reviews, term_of.get, None))
    elif isinstance(lemmas, Lexicon):
        lexicon, lemmas = lemmas, ReviewLemmas()
        _lexical_pass(lemmas, reviews, lexicon, frozenset())
    n_docs, n_terms = len(reviews), len(dictionary.terms)
    if len(lemmas.indptr) != n_docs + 1:
        raise ValidationError(f"lemmas of {len(lemmas.indptr) - 1} reviews for {n_docs} reviews")
    # The column of each lemma id, -1 for a lemma that is no term.
    column_of = np.array(
        [dictionary.index.get(lemma, -1) for lemma in lemmas.vocabulary], dtype=np.int64
    )
    columns = column_of[lemmas.ids]
    rows = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(lemmas.indptr))
    hit = columns >= 0
    # Distinct lemmas of a review name distinct terms, so the keys are unique.
    keys = np.sort(rows[hit] * n_terms + columns[hit])
    rows, indices = np.divmod(keys, max(n_terms, 1))
    return DocTermMatrix(
        doc_ids=tuple(review.id for review in reviews),
        terms=dictionary.terms,
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_docs)))),
        indices=indices,
    )


def column_stats(matrix: DocTermMatrix) -> ColumnStats:
    """Document frequency, rate p = df/n, and Bernoulli variance p(1-p)."""
    if matrix.n_docs == 0:
        raise StageError("cannot compute column stats of an empty matrix")
    df = np.bincount(matrix.indices, minlength=matrix.n_terms)
    p = df / matrix.n_docs
    return ColumnStats(df=df, p=p, variance=p * (1.0 - p))


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
    stats: ColumnStats | None = None,
) -> tuple[DocTermMatrix, tuple[int, ...]]:
    """Keep columns with variance >= ``min_variance``; also return their
    original column indices."""
    if not 0.0 <= min_variance <= 0.25:
        raise ValidationError(f"min_variance must lie in [0, 0.25], got {min_variance}")
    if stats is None:
        stats = column_stats(matrix)
    keep = tuple(np.flatnonzero(stats.variance >= min_variance).tolist())
    if not keep:
        raise StageError(f"no columns with variance >= {min_variance}")
    return _select_columns(matrix, keep), keep


def filter_top_variance(
    matrix: DocTermMatrix,
    k: int,
    stats: ColumnStats | None = None,
) -> tuple[DocTermMatrix, tuple[int, ...]]:
    """Keep the ``k`` highest-variance columns (ties go to the lower
    column index); also return their original indices."""
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    if stats is None:
        stats = column_stats(matrix)
    # A stable sort of the negated variances keeps tied columns in index order.
    ranked = np.argsort(-stats.variance, kind="stable")
    keep = tuple(np.sort(ranked[:k]).tolist())
    if not keep:
        raise StageError("matrix has no columns")
    return _select_columns(matrix, keep), keep


"""Shared test utilities: dense/sparse conversion and textbook oracles.

The oracles here are deliberately naive re-derivations (loops and
first-principles formulas) so the package implementations are checked
against something independent.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from lexifactor import (
    DocTermMatrix,
    EmptyDictionaryError,
    ParseError,
    TermDictionary,
    TermProvenance,
    lemmatize_token,
    tokenize,
)
from lexifactor.efa import VarimaxResult, varimax_criterion


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


def reference_document_lemmas(lexicon, review, stopwords) -> set[str]:
    """Distinct candidate lemmas of one review: every token occurrence
    that is not a stopword goes through the lemmatizer."""
    lemmas = set()
    for token in tokenize(review.text):
        if token in stopwords:
            continue
        lemma = lemmatize_token(lexicon, token)
        if lemma is not None:
            lemmas.add(lemma)
    return lemmas


def reference_build_dictionary(reviews, lexicon, stopwords) -> TermDictionary:
    """Greedy dictionary over per-occurrence candidate lemmas."""
    doc_freq = Counter()
    for review in reviews:
        doc_freq.update(reference_document_lemmas(lexicon, review, stopwords))
    antonym_index = lexicon.antonym_index()
    claimed, blocked, terms, provenance = set(), set(), [], {}
    for lemma, freq in sorted(doc_freq.items(), key=lambda item: (-item[1], item[0])):
        pos = "noun" if (lemma, "noun") in lexicon.entries else "adj"
        senses = lexicon.senses(lemma, pos)
        if senses & claimed or senses & blocked:
            continue
        terms.append(lemma)
        claimed.update(senses)
        for sense in senses:
            blocked.update(antonym_index.get(sense, frozenset()))
        provenance[lemma] = TermProvenance(pos=pos, sense_ids=tuple(sorted(senses)), doc_freq=freq)
    if not terms:
        raise EmptyDictionaryError("no candidate terms survived dictionary construction")
    return TermDictionary(
        terms=tuple(terms), index={t: i for i, t in enumerate(terms)}, provenance=provenance
    )


def reference_build_matrix(reviews, dictionary, lexicon, stopwords) -> DocTermMatrix:
    """Document-term matrix that looks up every token occurrence that is
    not a stopword through a token-to-column cache."""
    cache = {}
    rows = []
    for review in reviews:
        columns = set()
        for token in tokenize(review.text):
            if token in stopwords:
                continue
            column = cache.get(token)
            if column is None:
                lemma = lemmatize_token(lexicon, token)
                column = -1 if lemma is None else dictionary.index.get(lemma, -1)
                cache[token] = column
            if column >= 0:
                columns.add(column)
        rows.append(tuple(sorted(columns)))
    return from_rows([review.id for review in reviews], dictionary.terms, rows)


def reference_varimax_rotate(
    loadings: np.ndarray,
    kaiser_normalize: bool = True,
    tol: float = 1e-10,
    max_sweeps: int = 100,
) -> VarimaxResult:
    """Varimax with one pair rotation at a time, in row-cyclic order.

    The sequential loop that the package's level-batched sweeps must
    reproduce bit for bit: same sweeps, criterion history, loadings and
    rotation.
    """
    L0 = np.array(loadings, dtype=np.float64)
    p, k = L0.shape
    if kaiser_normalize:
        norms = np.sqrt(np.sum(L0 * L0, axis=1))
        norms[norms == 0.0] = 1.0
        W = L0 / norms[:, None]
    else:
        W = L0.copy()

    T = np.eye(k)
    history = [varimax_criterion(W)]
    sweeps = 0
    for _ in range(max_sweeps if k > 1 else 0):
        W_before, T_before = W.copy(), T.copy()
        for f in range(k - 1):
            for g in range(f + 1, k):
                x, y = W[:, f], W[:, g]
                u = x * x - y * y
                v = 2.0 * x * y
                A = u.sum()
                B = v.sum()
                C = np.sum(u * u - v * v)
                D = 2.0 * np.sum(u * v)
                phi = 0.25 * math.atan2(D - 2.0 * A * B / p, C - (A * A - B * B) / p)
                if abs(phi) < 1e-15:
                    continue
                c, s = math.cos(phi), math.sin(phi)
                R = np.array([[c, -s], [s, c]])
                W[:, [f, g]] = W[:, [f, g]] @ R
                T[:, [f, g]] = T[:, [f, g]] @ R
        value = varimax_criterion(W)
        if value < history[-1]:
            W, T = W_before, T_before
            break
        sweeps += 1
        gain = value - history[-1]
        history.append(value)
        if gain < tol:
            break

    rotated = L0 @ T
    ssq = np.sum(rotated * rotated, axis=0)
    order = sorted(range(k), key=lambda j: (-ssq[j], j))
    T = T[:, order]
    rotated = rotated[:, order]
    signs = np.ones(k)
    for j in range(k):
        anchor = int(np.argmax(np.abs(rotated[:, j])))
        if rotated[anchor, j] < 0:
            signs[j] = -1.0
    T = T * signs
    rotated = L0 @ T
    return VarimaxResult(
        loadings=rotated, rotation=T, sweeps=sweeps, criterion_history=tuple(history)
    )


def reference_eigendecompose(corr) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns from a
    full ``eigh``: the spectrum the factor count was once taken from."""
    eigenvalues, eigenvectors = np.linalg.eigh(corr.values)
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], eigenvectors[:, order]


def reference_anchor_signs(loadings: np.ndarray) -> np.ndarray:
    """Copy of ``loadings`` with each column negated when its first
    largest-magnitude entry is negative, one column at a time."""
    signed = np.array(loadings, dtype=np.float64)
    for j in range(signed.shape[1]):
        anchor = int(np.argmax(np.abs(signed[:, j])))
        if signed[anchor, j] < 0:
            signed[:, j] = -signed[:, j]
    return signed


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


def _report_rows(markdown: str) -> dict[int, list[str]]:
    """Factor id to its words, in table order, from a rendered report."""
    rows = {}
    for line in markdown.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            words = [entry.rsplit(" (", 1)[0] for entry in cells[1].split(", ") if entry]
            rows[int(cells[0])] = words
    return rows


def assert_equivalent_factor_results(
    model: dict, golden_model: dict, report_md: str, golden_report_md: str, atol: float = 1e-8
) -> None:
    """Numeric equivalence of an efa/report result with a golden one.

    ``model`` and ``golden_model`` are parsed ``model.json`` payloads,
    the other two are ``report.md`` texts. They must keep the same terms
    and k; each golden rotated factor must match a distinct factor of
    ``model`` within ``atol`` up to sign; and the report must retain
    the matched factors with the same words in the same order.
    """
    assert model["terms"] == golden_model["terms"], "kept terms differ"
    assert model["k"] == golden_model["k"], f"k {model['k']} != {golden_model['k']}"
    rotated = np.array(model["rotated"]).reshape(len(model["terms"]), model["k"])
    golden = np.array(golden_model["rotated"]).reshape(rotated.shape)
    match: dict[int, int] = {}  # golden factor id -> factor id, both 1-based
    for g in range(golden.shape[1]):
        gaps = [
            min(np.max(np.abs(rotated[:, a] - golden[:, g])), np.max(np.abs(rotated[:, a] + golden[:, g])))
            for a in range(rotated.shape[1])
        ]
        best = int(np.argmin(gaps))
        assert gaps[best] <= atol, f"golden factor {g + 1}: closest factor differs by {gaps[best]:.3g}"
        match[g + 1] = best + 1
    assert len(set(match.values())) == len(match), "two golden factors matched one factor"

    rows, golden_rows = _report_rows(report_md), _report_rows(golden_report_md)
    assert set(rows) == {match[g] for g in golden_rows}, "retained factors differ"
    for g, words in golden_rows.items():
        assert rows[match[g]] == words, f"golden factor {g}: words {rows[match[g]]} != {words}"

"""Shared test utilities: dense/sparse conversion and textbook oracles.

The oracles here are deliberately naive re-derivations (loops and
first-principles formulas) so the package implementations are checked
against something independent.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from lexifactor import (
    DocTermMatrix,
    ParseError,
    SenseId,
    StageError,
    TermDictionary,
    TermProvenance,
    lemmatize_token,
    tokenize,
)
from lexifactor.errors import named_decode_errors
from lexifactor.efa import FactorModel, VarimaxResult, _initial_communalities, varimax_criterion


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


# The lexical database parser as it was when every entry held a frozenset
# of sense ids, kept line for line as the oracle of the compact parser,
# except that it checks each entry's offsets in index-file order.

_REF_POS_FROM_TAG = {"n": "noun", "a": "adj", "s": "adj"}
_REF_ALPHA_RE = re.compile(r"^[a-z]+$")
_REF_MARKER_RE = re.compile(r"\([a-z]+\)$")
_REF_DB_FILES = ("index.noun", "index.adj", "data.noun", "data.adj", "noun.exc", "adj.exc")


@dataclass
class ReferenceLexicon:
    entries: dict[tuple[str, str], frozenset[SenseId]]
    exceptions: dict[tuple[str, str], str]
    antonyms: dict[SenseId, frozenset[SenseId]] = field(default_factory=dict)

    def senses(self, lemma: str, pos: str) -> frozenset[SenseId]:
        return self.entries.get((lemma, pos), frozenset())


def _ref_content_lines(path: Path) -> Iterator[tuple[int, str]]:
    with named_decode_errors(path), open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip() or raw[0].isspace():
                continue
            yield lineno, raw.rstrip("\n")


def _ref_clean_lemma(word: str) -> str | None:
    word = _REF_MARKER_RE.sub("", word)
    return word if _REF_ALPHA_RE.match(word) else None


def _ref_parse_index(path: Path, pos: str) -> dict[tuple[str, str], list[int]]:
    """Each entry's offsets as its index line lists them."""
    entries: dict[tuple[str, str], list[int]] = {}
    for lineno, line in _ref_content_lines(path):
        parts = line.split()
        try:
            lemma, tag = parts[0], parts[1]
            synset_cnt = int(parts[2])
            p_cnt = int(parts[3])
            offsets = [int(x) for x in parts[4 + p_cnt + 2 :]]
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed index line: {exc}", path=str(path), line=lineno) from exc
        if _REF_POS_FROM_TAG.get(tag) != pos:
            raise ParseError(f"unexpected pos tag {tag!r}", path=str(path), line=lineno)
        if len(offsets) != synset_cnt:
            raise ParseError(
                f"index line declares {synset_cnt} synsets but lists {len(offsets)}",
                path=str(path),
                line=lineno,
            )
        cleaned = _ref_clean_lemma(lemma)
        if cleaned is None:
            continue
        entries[(cleaned, pos)] = offsets
    return entries


def _ref_parse_data(path: Path, pos: str) -> tuple[set[int], list[tuple[SenseId, SenseId]]]:
    offsets: set[int] = set()
    pairs: list[tuple[SenseId, SenseId]] = []
    for lineno, line in _ref_content_lines(path):
        head = line.split("|", 1)[0]
        parts = head.split()
        try:
            offset = int(parts[0])
            ss_type = parts[2]
            w_cnt = int(parts[3], 16)
            cursor = 4 + 2 * w_cnt
            p_cnt = int(parts[cursor])
            cursor += 1
            for _ in range(p_cnt):
                symbol = parts[cursor]
                target_offset = int(parts[cursor + 1])
                target_tag = parts[cursor + 2]
                cursor += 4
                if symbol == "!":
                    target_pos = _REF_POS_FROM_TAG.get(target_tag)
                    if target_pos is None:
                        raise ParseError(
                            f"antonym pointer to unsupported pos {target_tag!r}",
                            path=str(path),
                            line=lineno,
                        )
                    pairs.append(((pos, offset), (target_pos, target_offset)))
        except ParseError:
            raise
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed data line: {exc}", path=str(path), line=lineno) from exc
        if _REF_POS_FROM_TAG.get(ss_type) != pos:
            raise ParseError(f"unexpected synset type {ss_type!r}", path=str(path), line=lineno)
        offsets.add(offset)
    return offsets, pairs


def _ref_parse_exceptions(
    path: Path, pos: str, entries: dict[tuple[str, str], frozenset[SenseId]]
) -> dict[tuple[str, str], str]:
    exceptions: dict[tuple[str, str], str] = {}
    for lineno, line in _ref_content_lines(path):
        parts = line.split()
        if len(parts) < 2:
            raise ParseError("exception line needs an inflected form and a base", path=str(path), line=lineno)
        inflected, bases = parts[0], parts[1:]
        if not _REF_ALPHA_RE.match(inflected):
            continue
        for base in bases:
            if (base, pos) in entries:
                exceptions[(inflected, pos)] = base
                break
    return exceptions


def reference_parse_lexical_database(root) -> ReferenceLexicon:
    """The six database files under ``root``, parsed one sense set per entry."""
    root = Path(root)
    missing = [name for name in _REF_DB_FILES if not (root / name).is_file()]
    if missing:
        raise ParseError(f"missing lexical database files: {', '.join(missing)}", path=str(root))

    listed: dict[tuple[str, str], list[int]] = {}
    listed.update(_ref_parse_index(root / "index.noun", "noun"))
    listed.update(_ref_parse_index(root / "index.adj", "adj"))

    noun_offsets, noun_pairs = _ref_parse_data(root / "data.noun", "noun")
    adj_offsets, adj_pairs = _ref_parse_data(root / "data.adj", "adj")
    known = {"noun": noun_offsets, "adj": adj_offsets}

    # The first unknown offset in index-file order is the one named.
    for (lemma, pos), offsets in listed.items():
        for offset in offsets:
            if offset not in known[pos]:
                raise ParseError(
                    f"index entry {lemma!r} references unknown {pos} synset {offset:08d}",
                    path=str(root),
                )
    entries = {
        (lemma, pos): frozenset((pos, offset) for offset in offsets)
        for (lemma, pos), offsets in listed.items()
    }
    antonyms: dict[SenseId, set[SenseId]] = {}
    for source, target in noun_pairs + adj_pairs:
        if target[1] not in known[target[0]]:
            raise ParseError(
                f"antonym pointer from {source[0]} synset {source[1]:08d} "
                f"references unknown {target[0]} synset {target[1]:08d}",
                path=str(root),
            )
        antonyms.setdefault(source, set()).add(target)
        antonyms.setdefault(target, set()).add(source)

    exceptions: dict[tuple[str, str], str] = {}
    exceptions.update(_ref_parse_exceptions(root / "noun.exc", "noun", entries))
    exceptions.update(_ref_parse_exceptions(root / "adj.exc", "adj", entries))

    return ReferenceLexicon(
        entries=entries,
        exceptions=exceptions,
        antonyms={sense: frozenset(others) for sense, others in antonyms.items()},
    )


REFERENCE_NOUN_RULES = (
    ("s", ""), ("ses", "s"), ("xes", "x"), ("zes", "z"),
    ("ches", "ch"), ("shes", "sh"), ("men", "man"), ("ies", "y"),
)
REFERENCE_ADJ_RULES = (("er", ""), ("est", ""), ("er", "e"), ("est", "e"))


def reference_lemmatize(lexicon, token: str, pos: str) -> str | None:
    """Straight transcription of the documented analysis order: the
    exception list, then every suffix rule in declaration order, then
    the token itself."""
    if (token, pos) in lexicon.exceptions:
        return lexicon.exceptions[(token, pos)]
    for suffix, replacement in REFERENCE_NOUN_RULES if pos == "noun" else REFERENCE_ADJ_RULES:
        if token.endswith(suffix):
            candidate = token[: len(token) - len(suffix)] + replacement
            if candidate and (candidate, pos) in lexicon.entries:
                return candidate
    return token if (token, pos) in lexicon.entries else None


def reference_build_dictionary(reviews, lexicon, stopwords) -> TermDictionary:
    """Greedy dictionary over per-occurrence candidate lemmas; a term's
    forms are the distinct non-stopword tokens that lemmatize to it."""
    doc_freq = Counter()
    forms: dict[str, set[str]] = {}
    for review in reviews:
        doc_freq.update(reference_document_lemmas(lexicon, review, stopwords))
        for token in tokenize(review.text):
            lemma = None if token in stopwords else lemmatize_token(lexicon, token)
            if lemma is not None:
                forms.setdefault(lemma, set()).add(token)
    claimed, blocked, terms, provenance = set(), set(), [], {}
    for lemma, freq in sorted(doc_freq.items(), key=lambda item: (-item[1], item[0])):
        pos = "noun" if (lemma, "noun") in lexicon.entries else "adj"
        senses = lexicon.senses(lemma, pos)
        if senses & claimed or senses & blocked:
            continue
        terms.append(lemma)
        claimed.update(senses)
        for sense in senses:
            blocked.update(lexicon.antonyms.get(sense, ()))
        provenance[lemma] = TermProvenance(
            pos=pos, sense_ids=tuple(sorted(senses)), doc_freq=freq, forms=tuple(sorted(forms[lemma]))
        )
    if not terms:
        raise StageError("no candidate terms survived dictionary construction")
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
    tol: float = 1e-7,
    max_sweeps: int = 2000,
) -> VarimaxResult:
    """Varimax as a plain loop whose bits the package must give: one
    row-cyclic sweep of pair rotations, one pair at a time, then
    T <- U V^T from the SVD of B = X^T (Z^3 - Z diag(mean Z^2)), Z = X T,
    while ||skew(T^T B)||_F / p is at least ``tol`` and fewer than
    ``max_sweeps`` steps were tried. A step that lowers the criterion
    is undone; after the sweep the iteration goes on from the identity,
    after an iteration step it stops. Each criterion, gradient and
    stationarity value is recomputed from T. Like the package, it works
    on a Fortran-ordered copy.
    """
    L0 = np.array(loadings, dtype=np.float64, order="F")
    p, k = L0.shape
    norms = np.sqrt(np.sum(L0 * L0, axis=1))
    norms[norms == 0.0] = 1.0
    X = L0 / norms[:, None]

    def criterion(T):
        return varimax_criterion(X @ T)

    def gradient(T):
        Z = X @ T
        return X.T @ (Z * Z * Z - Z * np.mean(Z * Z, axis=0))

    def stationarity(T):
        M = T.T @ gradient(T)
        return float(np.linalg.norm(M - M.T)) / (2 * p)

    T = np.eye(k)
    history = [criterion(T)]
    steps = 0
    if k > 1:
        W, S = np.array(X, order="C"), np.eye(k)
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
                S[:, [f, g]] = S[:, [f, g]] @ R
        steps = 1
        if criterion(S) >= history[-1]:
            T = S
            history.append(criterion(T))
    while stationarity(T) >= tol and steps < max_sweeps:
        U, _, Vt = np.linalg.svd(gradient(T))
        steps += 1
        if criterion(U @ Vt) < history[-1]:
            break
        T = U @ Vt
        history.append(criterion(T))
    final = stationarity(T)

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
        loadings=rotated,
        rotation=T,
        sweeps=len(history) - 1,
        criterion_history=tuple(history),
        converged=final < tol,
        stationarity=final,
    )


def reference_extract_uls(corr, k: int, tol: float = 1e-6, max_iter: int = 1000) -> FactorModel:
    """Iterated principal axis with a full ``eigh`` of the reduced matrix
    per pass, keeping the top ``k`` pairs by ``argsort``: the solver the
    package's top-k ``scipy.linalg.eigh`` must match."""
    C = np.asarray(corr.values, dtype=np.float64)
    p = C.shape[0]
    h2 = _initial_communalities(C)
    reduced = C.copy()
    loadings = np.zeros((p, k))
    heywood = False
    converged = False
    iterations = 0
    previous = math.inf
    for iterations in range(1, max_iter + 1):
        np.fill_diagonal(reduced, h2)
        eigenvalues, eigenvectors = np.linalg.eigh(reduced)
        top = np.argsort(eigenvalues)[::-1][:k]
        scale = np.sqrt(np.clip(eigenvalues[top], 0.0, None))
        loadings = eigenvectors[:, top] * scale
        new_h2 = np.sum(loadings * loadings, axis=1)
        if np.any(new_h2 > 1.0):
            heywood = True
            new_h2 = np.minimum(new_h2, 1.0)
        delta = float(np.max(np.abs(new_h2 - h2)))
        h2 = new_h2
        rate = delta / previous
        if delta == 0.0 or 0.0 < rate < 1.0 and delta < tol * (1.0 - rate):
            converged = True
            break
        previous = delta
    return FactorModel(
        k=k,
        loadings=reference_anchor_signs(loadings),
        communalities=h2,
        uniquenesses=1.0 - h2,
        converged=converged,
        n_iter=iterations,
        heywood=heywood,
    )


def out_of_place_extract_uls(corr, k: int, tol: float = 1e-6, max_iter: int = 1000) -> FactorModel:
    """``extract_uls`` as it was before it borrowed the correlation
    matrix: the SMC start inverts a Fortran-ordered copy, and each pass
    refills a Fortran-ordered scratch for ``eigh`` to overwrite. The
    in-place solver must give these bits."""
    from scipy.linalg import eigh
    from scipy.linalg.lapack import dpotrf, dpotri

    C = np.asarray(corr.values, dtype=np.float64)
    p = C.shape[0]
    factor, info = dpotrf(np.array(C, order="F"), lower=0, overwrite_a=1)
    assert info == 0, "the out-of-place start covers positive definite matrices"
    inverse, info = dpotri(factor, lower=0, overwrite_c=1)
    assert info == 0
    smc = 1.0 - 1.0 / np.diag(inverse).copy()
    h2 = np.clip(np.nan_to_num(smc, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)
    reduced = np.empty((p, p), order="F")
    loadings = np.zeros((p, k))
    heywood = False
    converged = False
    iterations = 0
    previous = math.inf
    for iterations in range(1, max_iter + 1):
        reduced[...] = C
        np.fill_diagonal(reduced, h2)
        eigenvalues, eigenvectors = eigh(reduced, subset_by_index=[p - k, p - 1], overwrite_a=True)
        scale = np.sqrt(np.clip(eigenvalues[::-1], 0.0, None))
        loadings = eigenvectors[:, ::-1] * scale
        new_h2 = np.sum(loadings * loadings, axis=1)
        if np.any(new_h2 > 1.0):
            heywood = True
            new_h2 = np.minimum(new_h2, 1.0)
        delta = float(np.max(np.abs(new_h2 - h2)))
        h2 = new_h2
        rate = delta / previous
        if delta == 0.0 or 0.0 < rate < 1.0 and delta < tol * (1.0 - rate):
            converged = True
            break
        previous = delta
    return FactorModel(
        k=k,
        loadings=reference_anchor_signs(loadings),
        communalities=h2,
        uniquenesses=1.0 - h2,
        converged=converged,
        n_iter=iterations,
        heywood=heywood,
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


def reference_phi(dense: np.ndarray) -> np.ndarray:
    """The phi matrix the package builds a block of rows at a time, built
    whole: dense co-occurrence counts (exact integers, so their summation
    order does not matter), then the same elementwise steps on all p x p
    entries at once."""
    n = dense.shape[0]
    rates = dense.sum(axis=0) / n
    variances = rates * (1.0 - rates)
    counts = dense.T @ dense
    values = (counts / n - np.outer(rates, rates)) / np.sqrt(np.outer(variances, variances))
    np.clip(values, -1.0, 1.0, out=values)
    np.fill_diagonal(values, 1.0)
    return values


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


def reference_write_loadings_csv(rotated: np.ndarray, terms, table, path) -> None:
    """``loadings.csv`` written one ``csv.writer.writerow`` per row."""
    retained = {(factor.factor, term) for factor in table.factors for term, _ in factor.entries}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["factor", "term", "loading", "retained"])
        for j in range(rotated.shape[1]):
            for i, term in enumerate(terms):
                flag = "true" if (j + 1, term) in retained else "false"
                writer.writerow([j + 1, term, float(rotated[i, j]), flag])

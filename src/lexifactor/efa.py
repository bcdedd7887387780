"""Exploratory factor analysis over a binary document-term matrix.

The chain is a flow of values: the phi correlation matrix, its
descending spectrum, a factor count chosen from that spectrum, the
unweighted least squares model (iterated principal axis on the reduced
correlation matrix, to within ``tol`` of its fixed point), its Varimax
rotation (to a stationary point), and the rotated p x k loadings pruned
into per-factor word lists and refined to the strongest factors. No
step changes a value an earlier step returned, and a step that borrows
one restores it before it returns or raises.

The spectrum, the starting communalities and the ULS eigenpairs all
come from SciPy's LAPACK, through its compiled wrapper module
``scipy.linalg._flapack`` loaded on its own (see :func:`_lapack`) and
called with the arguments ``scipy.linalg`` passes. Importing
``scipy.linalg`` or ``scipy.sparse`` would load SciPy's array-API layer
too, a third of a second of a lone ``efa`` command; the co-occurrence
counts behind phi need NumPy alone. SciPy links its own OpenBLAS, whose
thread pool would otherwise take turns with NumPy's, and an idle pool's
spinning workers slow the other on a small host.

The stage's working memory is one p x p float64 array besides the
interpreter, NumPy and SciPy's LAPACK: the correlation matrix, whose
counts and phi values are made a block of rows at a time in that array.
LAPACK's symmetric routines read one triangle of a matrix and overwrite
only that triangle and the diagonal, so the spectrum, the SMC start and
every ULS pass run in the correlation matrix itself (see
:func:`_lapack_view`): its other triangle keeps the values, which are
copied back, with the saved diagonal, once LAPACK is done. A LAPACK
failure, or a SciPy without a routine the stage calls, is a
:class:`StageError`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .artifacts import FactorLoadings, LoadingTable
from .errors import StageError, ValidationError
from .matrix import DocTermMatrix, column_stats


@dataclass(eq=False)
class CorrelationMatrix:
    """Phi correlation matrix with the term labels of its axes."""

    values: np.ndarray
    terms: tuple[str, ...]


@dataclass(eq=False)
class FactorModel:
    """Result of a ULS extraction.

    ``loadings`` is the unrotated p x k pattern, each factor signed so
    its largest-magnitude loading is positive. The rotated pattern is
    the ``loadings`` of the :class:`VarimaxResult` that
    :func:`varimax_rotate` returns for it.
    """

    k: int
    loadings: np.ndarray
    communalities: np.ndarray
    uniquenesses: np.ndarray
    converged: bool
    n_iter: int
    heywood: bool


class VarimaxResult(NamedTuple):
    loadings: np.ndarray
    rotation: np.ndarray
    sweeps: int
    criterion_history: tuple[float, ...]
    converged: bool
    stationarity: float


# Entries of a p x p array, or (term, term) pairs, that one block holds.
_BLOCK = 1 << 16


def correlation_matrix(matrix: DocTermMatrix) -> CorrelationMatrix:
    """Phi coefficients between all column pairs.

    For binary columns the phi coefficient is the Pearson correlation:
    (p11 - p_i p_j) / sqrt(p_i (1-p_i) p_j (1-p_j)). Co-occurrence
    counts are exact integers, so the result is exactly symmetric;
    values are clipped to [-1, 1] and the diagonal is exactly 1.
    Constant columns have no correlation and are an error.
    """
    stats = column_stats(matrix)
    rates, variances = stats.p, stats.variance
    constant = np.nonzero(variances == 0.0)[0]
    if constant.size:
        names = ", ".join(matrix.terms[i] for i in constant[:5])
        raise StageError(f"constant columns have no correlation: {names}")

    # The counts are made a block of rows at a time straight into the one
    # p x p array and turned into phi there, so no second p x p array exists.
    values = np.empty((matrix.n_terms, matrix.n_terms))
    for rows, counts in _cooccurrence_blocks(matrix, stats.df):
        block = values[rows]
        block[...] = counts
        block /= matrix.n_docs
        block -= np.outer(rates[rows], rates)
        block /= np.sqrt(np.outer(variances[rows], variances))
        np.clip(block, -1.0, 1.0, out=block)
    np.fill_diagonal(values, 1.0)
    return CorrelationMatrix(values=values, terms=matrix.terms)


def _cooccurrence_blocks(matrix: DocTermMatrix, doc_freq: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Rows of the p x p counts of documents that hold both terms, a
    block of rows at a time, as int64 arrays; ``doc_freq`` holds the
    number of documents of each term.

    Each (term, document) entry of the block's terms expands to that
    document's terms, one (term, term) pair each, and ``np.bincount``
    counts the pairs. A block has at most :func:`_row_blocks`' rows and
    expands to at most about 65,536 pairs, unless one term alone
    expands to more.
    """
    p = matrix.n_terms
    # The documents of each term, term by term, and the pairs they expand to.
    docs = matrix.row_of_entry()[np.argsort(matrix.indices, kind="stable")]
    pairs = np.diff(matrix.indptr)[docs]
    term_start = np.zeros(p + 1, dtype=np.intp)
    np.cumsum(doc_freq, out=term_start[1:])
    pair_start = np.zeros(len(docs) + 1, dtype=np.intp)
    np.cumsum(pairs, out=pair_start[1:])
    term_pair_start = pair_start[term_start]

    max_rows = max(1, _BLOCK // max(p, 1))
    start = 0
    while start < p:
        fits = int(np.searchsorted(term_pair_start, term_pair_start[start] + _BLOCK, side="right")) - 1
        stop = min(start + max_rows, max(start + 1, fits))
        first, last = term_start[start], term_start[stop]
        expand = pairs[first:last]
        # The position in ``indices`` of each pair's second term ...
        local_start = pair_start[first:last] - pair_start[first]
        position = np.repeat(matrix.indptr[docs[first:last]] - local_start, expand)
        position += np.arange(pair_start[last] - pair_start[first])
        # ... plus its row's offset makes its index in the block's counts.
        index = np.repeat(np.repeat(np.arange(0, (stop - start) * p, p), doc_freq[start:stop]), expand)
        index += matrix.indices[position]
        yield slice(start, stop), np.bincount(index, minlength=(stop - start) * p).reshape(stop - start, p)
        start = stop


def eigendecompose(corr: CorrelationMatrix) -> np.ndarray:
    """The eigenvalues of the correlation matrix, descending; choosing
    the factor count needs no eigenvectors. LAPACK works in the
    matrix's own memory, which must hold a writable C-ordered float64
    array, finite and exactly symmetric, and puts it back."""
    _require_borrowable(corr.values)
    lapack = _lapack()
    (lwork,) = _work_sizes("dsyev", lapack.dsyev_lwork(len(corr.values), lower=1))
    # The call scipy.linalg.eigvalsh(driver="ev") makes. It takes the
    # steps of NumPy's eigvalsh (a tridiagonal reduction, then dsterf),
    # so both compute the same spectrum.
    with _lapack_view(corr.values, lower=True) as a:
        eigenvalues, _, info = lapack.dsyev(a, compute_v=0, lower=1, lwork=lwork, overwrite_a=1)
    _check_info("dsyev", info)
    return eigenvalues[::-1]


# Every routine of SciPy's LAPACK wrapper that the stage calls.
_ROUTINES = ("dsyev", "dsyev_lwork", "dsyevr", "dsyevr_lwork", "dpotrf", "dpotri", "dsytrf", "dsytrf_lwork", "dsytri")


def _lapack() -> ModuleType:
    """SciPy's compiled LAPACK wrapper, ``scipy.linalg._flapack``, whose
    functions ``scipy.linalg.lapack`` exports.

    Unless it is loaded already, it is loaded from SciPy's ``linalg``
    directory without importing ``scipy`` or ``scipy.linalg``, and
    registered under its name, so a later ``import scipy.linalg`` takes
    this module and its functions. No SciPy, no wrapper module, or a
    wrapper without one of :data:`_ROUTINES` is a :class:`StageError`.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise StageError("the efa stage needs SciPy, which is not installed")
        scipy_dir = scipy.submodule_search_locations[0]
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy_dir, "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(name)
        if spec is None:
            raise StageError(f"SciPy at {scipy_dir} has no {name} extension module")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    missing = next((routine for routine in _ROUTINES if not hasattr(module, routine)), None)
    if missing:
        from importlib.metadata import version

        raise StageError(f"SciPy {version('scipy')} has no LAPACK routine {missing}")
    return module


def _work_sizes(routine: str, query: tuple) -> list[int]:
    """The work array sizes a LAPACK ``*_lwork`` query returns, made
    integers as ``scipy.linalg.lapack._compute_lwork`` makes them."""
    *sizes, info = query
    _check_info(f"{routine}_lwork", info)
    return [int(size) for size in sizes]


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise StageError(f"LAPACK {routine} failed: info {info}")


def _row_blocks(p: int) -> Iterator[slice]:
    """Slices of about 65,536 entries' worth of rows of a p x p array."""
    step = max(1, _BLOCK // max(p, 1))
    return (slice(start, min(start + step, p)) for start in range(0, p, step))


def _require_borrowable(values: np.ndarray) -> None:
    """Raise a :class:`ValidationError` unless :func:`_lapack_view` can
    lend ``values`` to LAPACK and put it back bit for bit: the matrix
    must be a square, writable, C-ordered float64 array, finite and
    exactly symmetric."""
    if not (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.flags.c_contiguous
        and values.flags.writeable
    ):
        raise ValidationError("correlation matrix must be a writable C-ordered float64 array")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"correlation matrix must be square, got {values.shape}")
    blocks = list(_row_blocks(values.shape[0]))
    if not all(np.isfinite(values[rows]).all() for rows in blocks):
        raise ValidationError("correlation matrix holds NaN or infinite entries")
    if not all(np.array_equal(values[rows], values[:, rows].T) for rows in blocks):
        raise ValidationError("correlation matrix is not exactly symmetric")


@contextmanager
def _lapack_view(values: np.ndarray, lower: bool) -> Iterator[np.ndarray]:
    """Lend LAPACK the exactly symmetric C-ordered ``values`` as the
    Fortran-ordered view ``values.T``, and put it back afterwards.

    A symmetric LAPACK routine told to use the view's lower triangle
    (``lower``) or upper one reads that triangle and overwrites it and
    the diagonal in place. As ``values`` is symmetric, the triangle holds
    the values a Fortran-ordered copy would hold at the same positions,
    so LAPACK computes the same bits, and the other triangle, which
    LAPACK does not touch, still holds them too. When the block ends,
    normally or by an exception, the overwritten strict triangle is
    copied back from the other one and the diagonal from the copy taken
    on entry, so ``values`` is bitwise what it was.
    """
    diagonal = values.diagonal().copy()
    view = values.T
    try:
        yield view
    finally:
        # The view's lower triangle is the upper triangle of ``values``.
        _copy_upper_to_lower(view if lower else values)
        np.fill_diagonal(values, diagonal)


def _copy_upper_to_lower(a: np.ndarray) -> None:
    """Copy the strict upper triangle of the square ``a`` over its strict
    lower triangle, a block of rows at a time."""
    for rows in _row_blocks(a.shape[0]):
        a[rows, : rows.start] = a[: rows.start, rows].T
        block = a[rows, rows]
        below = np.tril_indices(len(block), -1)
        block[below] = block.T[below]


def select_factor_count(eigenvalues: np.ndarray, k: int | None = None) -> int:
    """Number of factors to extract: ``k`` when given, which must lie in
    [1, p], or else Kaiser's count of eigenvalues strictly greater than 1,
    which must not be zero.
    """
    if k is not None:
        if not 1 <= k <= len(eigenvalues):
            raise ValidationError(f"factor count {k} outside [1, {len(eigenvalues)}]")
        return k
    count = int(np.sum(np.asarray(eigenvalues) > 1.0))
    if count < 1:
        raise ValidationError("Kaiser rule selected zero factors (no eigenvalue exceeds 1)")
    return count


def _initial_communalities(corr_values: np.ndarray) -> np.ndarray:
    """Squared multiple correlations, 1 - 1/diag(C^-1), or each row's
    largest |correlation| off the diagonal when C is singular; clipped
    to [0, 1]. C must be a matrix :func:`_lapack_view` can lend; no step
    copies it."""
    inverse_diag = _inverse_diagonal(corr_values)
    smc = _row_maximum(corr_values) if inverse_diag is None else 1.0 - 1.0 / inverse_diag
    smc = np.nan_to_num(smc, nan=0.0, posinf=1.0, neginf=0.0)
    return np.clip(smc, 0.0, 1.0)


def _inverse_diagonal(corr_values: np.ndarray) -> np.ndarray | None:
    """The diagonal of the inverse of ``corr_values``, a matrix that
    :func:`_lapack_view` can lend, or None if LAPACK finds it singular.

    The matrix is inverted from the view's upper triangle in its own
    memory and put back: by ``dpotrf`` and ``dpotri`` if it is positive
    definite, the steps SciPy's ``inv`` takes for such a matrix, and else
    by the symmetric indefinite ``dsytrf`` and ``dsytri``. ``clean=0``
    keeps ``dpotrf`` from zeroing the other triangle, which holds the
    matrix while LAPACK works.
    """
    lapack = _lapack()
    with _lapack_view(corr_values, lower=False) as a:
        factor, info = lapack.dpotrf(a, lower=0, clean=0, overwrite_a=1)
        if info == 0:
            inverse, info = lapack.dpotri(factor, lower=0, overwrite_c=1)
        if info == 0:
            return np.diag(inverse).copy()
    (lwork,) = _work_sizes("dsytrf", lapack.dsytrf_lwork(len(corr_values), lower=0))
    with _lapack_view(corr_values, lower=False) as a:
        factor, pivots, info = lapack.dsytrf(a, lower=0, lwork=lwork, overwrite_a=1)
        if info == 0:
            inverse, info = lapack.dsytri(factor, pivots, lower=0, overwrite_a=1)
        return np.diag(inverse).copy() if info == 0 else None


def _row_maximum(values: np.ndarray) -> np.ndarray:
    """Each row's largest |entry| off the diagonal, a block of rows at a
    time, so no p x p copy is made."""
    maxima = np.empty(len(values))
    for rows in _row_blocks(len(values)):
        block = np.abs(values[rows])
        block[np.arange(len(block)), np.arange(rows.start, rows.stop)] = 0.0
        maxima[rows] = block.max(axis=1)
    return maxima


def extract_uls(
    corr: CorrelationMatrix,
    k: int,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> FactorModel:
    """Iterated principal-axis extraction of ``k`` factors.

    Each pass computes only the ``k`` largest eigenpairs of the
    correlation matrix with current communality estimates on the
    diagonal (LAPACK's ``dsyevr``, see :func:`_top_eigenpairs`),
    rebuilds loadings from them (negative eigenvalues clipped to zero),
    and updates the communalities from the loading row sums of squares.
    The model has ``converged`` when the last two steps bound its
    communalities within ``tol`` of the fixed point, and has not when it
    stops after ``max_iter`` passes. Communalities are
    clamped at 1; hitting the clamp sets the ``heywood`` flag. Each
    factor is signed so that its largest-magnitude loading is positive.
    Each pass works in the correlation matrix's own memory and puts it
    back, so the matrix must be a writable C-ordered float64 array,
    finite and exactly symmetric.
    """
    C = corr.values
    _require_borrowable(C)
    p = C.shape[0]
    if not 1 <= k <= p:
        raise ValidationError(f"factor count {k} outside [1, {p}]")
    if tol <= 0 or max_iter < 1:
        raise ValidationError("tol must be positive and max_iter at least 1")

    h2 = _initial_communalities(C)
    top_eigenpairs = _top_eigenpairs(p, k)
    loadings = np.zeros((p, k))
    heywood = False
    converged = False
    iterations = 0
    previous = math.inf
    for iterations in range(1, max_iter + 1):
        with _lapack_view(C, lower=True) as reduced:
            np.fill_diagonal(reduced, h2)
            # The k largest eigenpairs, in ascending order; reversed below.
            eigenvalues, eigenvectors = top_eigenpairs(reduced)
        scale = np.sqrt(np.clip(eigenvalues[::-1], 0.0, None))
        loadings = eigenvectors[:, ::-1] * scale
        new_h2 = np.sum(loadings * loadings, axis=1)
        if np.any(new_h2 > 1.0):
            heywood = True
            new_h2 = np.minimum(new_h2, 1.0)
        delta = float(np.max(np.abs(new_h2 - h2)))
        h2 = new_h2
        # Steps shrink by about rate = delta / previous each, so the fixed
        # point is at most delta / (1 - rate) away; a first step gives no rate.
        rate = delta / previous
        if delta == 0.0 or 0.0 < rate < 1.0 and delta < tol * (1.0 - rate):
            converged = True
            break
        previous = delta

    return FactorModel(
        k=k,
        loadings=loadings * _anchor_signs(loadings),
        communalities=h2,
        uniquenesses=1.0 - h2,
        converged=converged,
        n_iter=iterations,
        heywood=heywood,
    )


def _top_eigenpairs(p: int, k: int) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """A solver for the ``k`` largest eigenpairs, in ascending order, of
    a p x p symmetric Fortran-ordered matrix, from its lower triangle,
    which the solver overwrites: LAPACK's ``dsyevr`` called as
    ``scipy.linalg.eigh(a, subset_by_index=[p - k, p - 1],
    overwrite_a=True)`` calls it, with the work sizes asked once."""
    lapack = _lapack()
    lwork, liwork = _work_sizes("dsyevr", lapack.dsyevr_lwork(p, lower=1))

    def solve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, v, m, _, info = lapack.dsyevr(
            a, compute_v=1, range="I", il=p - k + 1, iu=p, lower=1, lwork=lwork, liwork=liwork, overwrite_a=1
        )
        _check_info("dsyevr", info)
        return w[:m], v[:, :m]

    return solve


def _anchor_signs(L: np.ndarray) -> np.ndarray:
    """Per column of ``L``, the sign (+1.0 or -1.0) that makes its
    largest-magnitude entry positive; the first such entry wins a tie.
    Multiplying by it is exact."""
    anchors = np.argmax(np.abs(L), axis=0)
    return np.where(L[anchors, np.arange(L.shape[1])] < 0, -1.0, 1.0)


def uls_objective(corr_values: np.ndarray, loadings: np.ndarray) -> float:
    """Sum of squared off-diagonal residuals of C - L L^T."""
    residual = corr_values - loadings @ loadings.T
    np.fill_diagonal(residual, 0.0)
    return float(np.sum(residual * residual))


def varimax_criterion(loadings: np.ndarray) -> float:
    """Sum over factors of the variance of squared loadings."""
    W2 = np.asarray(loadings) ** 2
    p = W2.shape[0]
    return float(np.sum((W2 * W2).sum(axis=0) / p - (W2.sum(axis=0) / p) ** 2))


def varimax_rotate(
    loadings: np.ndarray,
    tol: float = 1e-7,
    max_sweeps: int = 2000,
) -> VarimaxResult:
    """Orthogonal Varimax rotation (Kaiser 1958) of the loadings' rows
    scaled to unit length (Kaiser normalization), X.

    One row-cyclic sweep of planar rotations (:func:`_pairwise_sweep`)
    leaves the starts where the whole-matrix iteration alone stalls.
    Then each step takes Z = X T and B = X^T (Z^3 - Z diag(column mean
    of Z^2)), and sets T to U V^T from the SVD of B. The rotation has
    ``converged`` when ``stationarity``, ||skew(T^T B)||_F / p, is below
    ``tol`` (Jennrich 2001), and has not after ``max_sweeps`` steps or
    when a step would lose ground to roundoff; that step is undone.
    ``sweeps`` counts the steps kept, and ``criterion_history`` holds the
    criterion of X T before and after each, all summed over a C-ordered
    X T. One factor needs no step.

    Factors are reordered by descending sum of squared loadings and
    signed so each one's largest-magnitude loading is positive, both
    folded into the rotation, so ``result.loadings == loadings @
    result.rotation`` holds bitwise. The loadings are copied to Fortran
    order, the layout :func:`extract_uls` returns, so the row norms and
    the products with the rotation give the same bits for either layout.
    """
    L0 = np.array(loadings, dtype=np.float64, order="F")
    if L0.ndim != 2:
        raise ValidationError(f"loadings must be 2-d, got shape {L0.shape}")
    p, k = L0.shape
    if p == 0 or k == 0:
        raise ValidationError("loadings matrix must be non-empty")
    if max_sweeps < 1:
        raise ValidationError("max_sweeps must be at least 1")

    norms = np.sqrt(np.sum(L0 * L0, axis=1))
    norms[norms == 0.0] = 1.0
    X = L0 / norms[:, None]

    T = np.eye(k)
    Z = X @ T
    history = [varimax_criterion(Z)]
    candidate = _pairwise_sweep(X) if k > 1 else None
    steps = 0
    while True:
        if candidate is not None:
            steps += 1
            Z_next = X @ candidate
            value = varimax_criterion(Z_next)
            if value >= history[-1]:
                T, Z = candidate, Z_next
                history.append(value)
            elif steps > 1:
                break  # roundoff loss: undo the step; the next would repeat it
        B = X.T @ (Z * Z * Z - Z * np.mean(Z * Z, axis=0))
        M = T.T @ B
        stationarity = float(np.linalg.norm(M - M.T)) / (2 * p)
        if stationarity < tol or steps == max_sweeps:
            break
        U, _, Vt = np.linalg.svd(B)
        candidate = U @ Vt

    rotated = L0 @ T
    ssq = np.sum(rotated * rotated, axis=0)
    order = sorted(range(k), key=lambda j: (-ssq[j], j))
    T = T[:, order] * _anchor_signs(rotated[:, order])
    rotated = L0 @ T
    return VarimaxResult(rotated, T, len(history) - 1, tuple(history), stationarity < tol, stationarity)


def _pairwise_sweep(X: np.ndarray) -> np.ndarray:
    """The rotation of one row-cyclic sweep of planar rotations over the
    pairs (0, 1), (0, 2), ..., (k-2, k-1) of the columns of ``X``, each
    by the angle that maximizes the pair's Varimax criterion."""
    p, k = X.shape
    W, T = np.array(X, order="C"), np.eye(k)
    for f in range(k - 1):
        for g in range(f + 1, k):
            x, y = W[:, f], W[:, g]
            u, v = x * x - y * y, 2.0 * x * y
            A, B = u.sum(), v.sum()
            C, D = np.sum(u * u - v * v), 2.0 * np.sum(u * v)
            phi = 0.25 * math.atan2(D - 2.0 * A * B / p, C - (A * A - B * B) / p)
            if abs(phi) < 1e-15:
                continue
            c, s = math.cos(phi), math.sin(phi)
            R = np.array([[c, -s], [s, c]])
            W[:, [f, g]] = W[:, [f, g]] @ R
            T[:, [f, g]] = T[:, [f, g]] @ R
    return T


def prune_loadings(rotated: np.ndarray, threshold: float, terms: Sequence[str]) -> LoadingTable:
    """Per factor, keep terms whose |loading| is at or above
    ``threshold``, ordered by descending |loading| (ties alphabetical).

    ``rotated`` is the p x k rotated pattern, ``VarimaxResult.loadings``;
    row i belongs to ``terms[i]``.
    """
    if not 0.0 <= threshold < math.inf:  # NaN and infinity too
        raise ValidationError(f"threshold must be non-negative, got {threshold}")
    if len(terms) != rotated.shape[0]:
        raise ValidationError(f"{len(terms)} terms for {rotated.shape[0]} loading rows")
    factors = []
    for j in range(rotated.shape[1]):
        column = rotated[:, j]
        picked = [
            (terms[i], float(column[i]))
            for i in range(len(terms))
            if abs(column[i]) >= threshold
        ]
        picked.sort(key=lambda entry: (-abs(entry[1]), entry[0]))
        factors.append(FactorLoadings(factor=j + 1, entries=tuple(picked)))
    return LoadingTable(factors=tuple(factors), threshold=threshold)


def refine_factors(table: LoadingTable, retain: int) -> LoadingTable:
    """Keep the ``retain`` factors with the strongest top word.

    Factors are ranked by their best absolute loading (empty factors
    rank last); the survivors keep their original ids and order.
    """
    if retain < 1:
        raise ValidationError(f"retain must be positive, got {retain}")
    ranked = sorted(table.factors, key=lambda f: (-f.top_value, f.factor))
    kept = sorted(ranked[:retain], key=lambda f: f.factor)
    return LoadingTable(factors=tuple(kept), threshold=table.threshold)

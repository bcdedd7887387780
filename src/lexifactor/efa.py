"""Exploratory factor analysis over a binary document-term matrix.

The chain is a flow of values: the phi correlation matrix, its
descending spectrum, a factor count chosen from that spectrum, the
unweighted least squares model (iterated principal axis on the reduced
correlation matrix), its Varimax rotation, and the rotated p x k
loadings pruned into per-factor word lists and refined to the
strongest factors. No step changes a value an earlier step returned,
and a step that borrows one restores it before it returns or raises.

The spectrum, the starting communalities and the ULS eigenpairs all
come from SciPy's LAPACK. SciPy links its own OpenBLAS, whose thread
pool would otherwise take turns with NumPy's, and an idle pool's
spinning workers slow the other on a small host.

The stage's working memory is one p x p float64 array besides the
interpreter, NumPy and SciPy: the correlation matrix, whose counts and
phi values are made a block of rows at a time in that array. LAPACK's
symmetric routines read one triangle of a matrix and overwrite only
that triangle and the diagonal, so the spectrum, the SMC start and
every ULS pass run in the correlation matrix itself (see
:func:`_lapack_view`): its other triangle keeps the values, which are
copied back, with the saved diagonal, once LAPACK is done. Only the
SMC start of a matrix that is not positive definite inverts a copy.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .artifacts import FactorLoadings, LoadingTable
from .errors import DegenerateColumnError, ValidationError
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


def correlation_matrix(matrix: DocTermMatrix) -> CorrelationMatrix:
    """Phi coefficients between all column pairs.

    For binary columns the phi coefficient is the Pearson correlation:
    (p11 - p_i p_j) / sqrt(p_i (1-p_i) p_j (1-p_j)). Co-occurrence
    counts come from a sparse product, so the result is exactly
    symmetric; values are clipped to [-1, 1] and the diagonal is exactly
    1. Constant columns have no correlation and are an error.
    """
    stats = column_stats(matrix)
    rates, variances = stats.p, stats.variance
    constant = np.nonzero(variances == 0.0)[0]
    if constant.size:
        names = ", ".join(matrix.terms[i] for i in constant[:5])
        raise DegenerateColumnError(f"constant columns have no correlation: {names}")

    # SciPy is imported here, not at module level, so that the commands
    # that never correlate do not pay for loading it.
    from scipy import sparse

    incidence = sparse.csr_matrix(
        (np.ones(matrix.nnz(), dtype=np.float64), matrix.indices, matrix.indptr),
        shape=(matrix.n_docs, matrix.n_terms),
    )
    by_term = incidence.T.tocsr()
    # The counts, exact in float64, are made a block of rows at a time
    # straight into the one p x p array and turned into phi there, so
    # neither the whole sparse product nor a second p x p array exists.
    values = np.empty((matrix.n_terms, matrix.n_terms))
    for rows in _row_blocks(matrix.n_terms):
        block = (by_term[rows] @ incidence).toarray(out=values[rows])
        block /= matrix.n_docs
        block -= np.outer(rates[rows], rates)
        block /= np.sqrt(np.outer(variances[rows], variances))
        np.clip(block, -1.0, 1.0, out=block)
    np.fill_diagonal(values, 1.0)
    return CorrelationMatrix(values=values, terms=matrix.terms)


def eigendecompose(corr: CorrelationMatrix) -> np.ndarray:
    """The eigenvalues of the correlation matrix, descending; choosing
    the factor count needs no eigenvectors. LAPACK works in the
    matrix's own memory, which must hold a writable C-ordered float64
    array, finite and exactly symmetric, and puts it back."""
    from scipy.linalg import eigvalsh

    _require_borrowable(corr.values)
    # Driver "ev" takes the steps of NumPy's eigvalsh (a tridiagonal
    # reduction, then dsterf), so both compute the same spectrum.
    with _lapack_view(corr.values, lower=True) as a:
        eigenvalues = eigvalsh(a, driver="ev", overwrite_a=True, check_finite=False)
    return np.sort(eigenvalues)[::-1]


def _row_blocks(p: int) -> Iterator[slice]:
    """Slices of about 65,536 entries' worth of rows of a p x p array."""
    step = max(1, (1 << 16) // max(p, 1))
    return (slice(start, min(start + step, p)) for start in range(0, p, step))


def _unborrowable(values: np.ndarray) -> str | None:
    """Why :func:`_lapack_view` cannot lend ``values`` to LAPACK and put
    it back bit for bit, or None if it can: the matrix must be a square,
    writable, C-ordered float64 array, finite and exactly symmetric."""
    if not (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.flags.c_contiguous
        and values.flags.writeable
    ):
        return "correlation matrix must be a writable C-ordered float64 array"
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        return f"correlation matrix must be square, got {values.shape}"
    blocks = list(_row_blocks(values.shape[0]))
    if not all(np.isfinite(values[rows]).all() for rows in blocks):
        return "correlation matrix holds NaN or infinite entries"
    if not all(np.array_equal(values[rows], values[:, rows].T) for rows in blocks):
        return "correlation matrix is not exactly symmetric"
    return None


def _require_borrowable(values: np.ndarray) -> None:
    problem = _unborrowable(values)
    if problem:
        raise ValidationError(problem)


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


def select_factor_count(eigenvalues: np.ndarray, method: str = "kaiser", k: int | None = None) -> int:
    """Number of factors to extract.

    ``"kaiser"`` counts eigenvalues strictly greater than 1;
    ``"fixed"`` takes ``k`` as given. Either way the count must land in
    [1, p].
    """
    p = len(eigenvalues)
    if method == "kaiser":
        count = int(np.sum(np.asarray(eigenvalues) > 1.0))
        if count < 1:
            raise ValidationError("Kaiser rule selected zero factors (no eigenvalue exceeds 1)")
        return count
    if method == "fixed":
        if k is None:
            raise ValidationError("fixed factor selection requires k")
        if not 1 <= k <= p:
            raise ValidationError(f"factor count {k} outside [1, {p}]")
        return k
    raise ValidationError(f"unknown factor selection method: {method!r}")


def _initial_communalities(corr_values: np.ndarray) -> np.ndarray:
    """Squared multiple correlations, or max |row correlation| as fallback.

    An exactly symmetric positive definite matrix is inverted in its own
    memory and put back (:func:`_cholesky_inverse_diagonal`); any other
    goes to ``scipy.linalg.inv``, which inverts a copy.
    """
    from scipy.linalg import LinAlgWarning, inv

    inverse_diag = _cholesky_inverse_diagonal(corr_values)
    try:
        if inverse_diag is None:
            with warnings.catch_warnings():
                # A nearly singular matrix still has an inverse, and its
                # out-of-range SMCs are clipped below: nothing to warn about.
                warnings.simplefilter("ignore", LinAlgWarning)
                # Never with overwrite_a: SciPy 1.17.1 crashes on that
                # call with a large indefinite Fortran-ordered matrix.
                inverse_diag = np.diag(inv(corr_values))
        smc = 1.0 - 1.0 / inverse_diag
    except np.linalg.LinAlgError:
        off = np.abs(corr_values)
        np.fill_diagonal(off, 0.0)
        smc = off.max(axis=1)
    smc = np.nan_to_num(smc, nan=0.0, posinf=1.0, neginf=0.0)
    return np.clip(smc, 0.0, 1.0)


def _cholesky_inverse_diagonal(corr_values: np.ndarray) -> np.ndarray | None:
    """The diagonal of the inverse of an exactly symmetric positive
    definite matrix, or None for any other matrix.

    ``potrf`` and ``potri`` on the upper triangle of the matrix, in its
    own memory (see :func:`_lapack_view`): the steps SciPy's ``inv``
    takes for such a matrix. ``clean=0`` keeps ``potrf`` from zeroing the
    other triangle, which holds the matrix while LAPACK works.
    """
    from scipy.linalg.lapack import dpotrf, dpotri

    if _unborrowable(corr_values):
        return None
    with _lapack_view(corr_values, lower=False) as a:
        factor, info = dpotrf(a, lower=0, clean=0, overwrite_a=1)
        if info != 0:
            return None
        inverse, info = dpotri(factor, lower=0, overwrite_c=1)
        return np.diag(inverse).copy() if info == 0 else None


def extract_uls(
    corr: CorrelationMatrix,
    k: int,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> FactorModel:
    """Iterated principal-axis extraction of ``k`` factors.

    Each pass computes only the ``k`` largest eigenpairs of the
    correlation matrix with current communality estimates on the
    diagonal (LAPACK's ``syevr`` through ``scipy.linalg.eigh`` with
    ``subset_by_index``), rebuilds loadings from them (negative
    eigenvalues clipped to zero), and updates the communalities from
    the loading row sums of squares until the largest change drops
    below ``tol``. Communalities are clamped at 1; hitting the clamp
    sets the ``heywood`` flag. Each factor is signed so that its
    largest-magnitude loading is positive. Each pass works in the
    correlation matrix's own memory and puts it back, so the matrix
    must be a writable C-ordered float64 array, finite and exactly
    symmetric.
    """
    C = corr.values
    _require_borrowable(C)
    p = C.shape[0]
    if not 1 <= k <= p:
        raise ValidationError(f"factor count {k} outside [1, {p}]")
    if tol <= 0 or max_iter < 1:
        raise ValidationError("tol must be positive and max_iter at least 1")

    from scipy.linalg import eigh

    h2 = _initial_communalities(C)
    loadings = np.zeros((p, k))
    heywood = False
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        with _lapack_view(C, lower=True) as reduced:
            np.fill_diagonal(reduced, h2)
            # The k largest eigenpairs, in ascending order; reversed below.
            eigenvalues, eigenvectors = eigh(
                reduced, subset_by_index=[p - k, p - 1], overwrite_a=True, check_finite=False
            )
        scale = np.sqrt(np.clip(eigenvalues[::-1], 0.0, None))
        loadings = eigenvectors[:, ::-1] * scale
        new_h2 = np.sum(loadings * loadings, axis=1)
        if np.any(new_h2 > 1.0):
            heywood = True
            new_h2 = np.minimum(new_h2, 1.0)
        delta = float(np.max(np.abs(new_h2 - h2)))
        h2 = new_h2
        if delta < tol:
            converged = True
            break

    return FactorModel(
        k=k,
        loadings=loadings * _anchor_signs(loadings),
        communalities=h2,
        uniquenesses=1.0 - h2,
        converged=converged,
        n_iter=iterations,
        heywood=heywood,
    )


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
    tol: float = 1e-10,
    max_sweeps: int = 100,
) -> VarimaxResult:
    """Orthogonal Varimax rotation by pairwise planar rotations.

    The rows are scaled to unit length (Kaiser normalization) for the
    sweeps and the final pattern is rebuilt from the accumulated
    rotation, so ``result.loadings == loadings @ result.rotation`` holds
    bitwise. Factors are reordered by descending sum of squared rotated
    loadings and signed so each factor's largest-magnitude loading is
    positive; both steps are folded into the rotation matrix. The
    criterion history tracks the working (normalized) matrix and never
    decreases: a sweep that loses ground to roundoff is undone. The
    rotation has ``converged`` when a sweep gains less than ``tol``
    (an undone sweep gained less than nothing), and has not when it
    stops at ``max_sweeps``; one factor needs no sweep and converges.

    Each sweep visits the pairs in row-cyclic order (0, 1), (0, 2), ...,
    (k-2, k-1), one level of :func:`_pair_levels` at a time. A level
    holds disjoint pairs, and each pair runs after every earlier pair
    that shares a factor with it. Rotating pair (f, g) reads and writes
    only columns f and g of W and T, so a level done in one batch gives
    exactly the bits of the sequential order. Each pair also keeps its
    own arithmetic: the same elementwise ``u`` and ``v``, pairwise sums
    along one contiguous row of a factor-major copy, the angle from
    ``math``, and the same p x 2 @ 2 x 2 BLAS product, now one item of
    a stacked matmul. Two shortcuts that look equivalent change the
    last bit: the elementwise update ``x*c + y*s`` rounds differently
    from the matmul, and sums down a column of a p x k array, or along
    a transposed view, add in another order.
    """
    L0 = np.array(loadings, dtype=np.float64)
    if L0.ndim != 2:
        raise ValidationError(f"loadings must be 2-d, got shape {L0.shape}")
    p, k = L0.shape
    if p == 0 or k == 0:
        raise ValidationError("loadings matrix must be non-empty")
    if max_sweeps < 1:
        raise ValidationError("max_sweeps must be at least 1")

    norms = np.sqrt(np.sum(L0 * L0, axis=1))
    norms[norms == 0.0] = 1.0
    W = L0 / norms[:, None]

    # Factor-major working copies: row j is column j of W or T.
    Wt, Tt = W.T.copy(), np.eye(k)
    levels = _pair_levels(k)
    # u, v, u*u - v*v, u*v and a temporary, one row per pair, reused by
    # every level; writing into them spares an allocation per operation.
    buffers = np.empty((5, k // 2, p))
    history = [varimax_criterion(W)]
    sweeps = 0
    converged = k == 1
    for _ in range(max_sweeps if k > 1 else 0):
        Wt_before, Tt_before = Wt.copy(), Tt.copy()
        for pairs in levels:
            x, y = Wt[pairs[:, 0]], Wt[pairs[:, 1]]
            u, v, uu_vv, uv, tmp = buffers[:, : len(pairs)]
            np.subtract(np.multiply(x, x, out=u), np.multiply(y, y, out=tmp), out=u)
            np.multiply(np.multiply(2.0, x, out=v), y, out=v)
            np.subtract(np.multiply(u, u, out=uu_vv), np.multiply(v, v, out=tmp), out=uu_vv)
            np.multiply(u, v, out=uv)
            sums = buffers[:4, : len(pairs)].sum(axis=2).tolist()  # A, B, C, D / 2
            turns, rotations = [], []
            for i, (A, B, C, half_D) in enumerate(zip(*sums)):
                phi = 0.25 * math.atan2(2.0 * half_D - 2.0 * A * B / p, C - (A * A - B * B) / p)
                if abs(phi) < 1e-15:
                    continue
                c, s = math.cos(phi), math.sin(phi)
                turns.append(i)
                rotations += (c, -s, s, c)
            if turns:
                R = np.array(rotations).reshape(-1, 2, 2)
                _rotate_pairs(Wt, pairs[turns], R)
                _rotate_pairs(Tt, pairs[turns], R)
        value = varimax_criterion(Wt.T.copy())  # C order: column sums add row by row
        if value < history[-1]:
            Wt, Tt = Wt_before, Tt_before  # roundoff regression: undo the sweep
            converged = True
            break
        sweeps += 1
        gain = value - history[-1]
        history.append(value)
        if gain < tol:
            converged = True
            break

    # Order factors by explained sum of squares, then fix signs; fold both
    # into T so the rotated pattern is exactly loadings @ T.
    T = Tt.T.copy()
    rotated = L0 @ T
    ssq = np.sum(rotated * rotated, axis=0)
    order = sorted(range(k), key=lambda j: (-ssq[j], j))
    T = T[:, order] * _anchor_signs(rotated[:, order])
    rotated = L0 @ T
    return VarimaxResult(
        loadings=rotated,
        rotation=T,
        sweeps=sweeps,
        criterion_history=tuple(history),
        converged=converged,
    )


def _pair_levels(k: int) -> list[np.ndarray]:
    """The row-cyclic factor pairs, grouped into levels of disjoint pairs.

    Each pair goes one level after the last earlier pair that shares a
    factor with it. Each level is an n x 2 array of factor indices.
    """
    levels: list[list[tuple[int, int]]] = []
    last = [-1] * k  # level of the latest pair that touched each factor
    for f in range(k - 1):
        for g in range(f + 1, k):
            level = max(last[f], last[g]) + 1
            if level == len(levels):
                levels.append([])
            levels[level].append((f, g))
            last[f] = last[g] = level
    return [np.array(pairs) for pairs in levels]


def _rotate_pairs(M: np.ndarray, pairs: np.ndarray, R: np.ndarray) -> None:
    """Rotate the two rows ``pairs[i]`` of the factor-major ``M`` by the
    2 x 2 ``R[i]``, in place: one stacked matmul whose items are the
    C-contiguous m x 2 blocks ``M[pairs[i]].T``, m being the row length."""
    XY = M[pairs]
    blocks = np.empty((len(pairs), M.shape[1], 2))
    blocks[:, :, 0], blocks[:, :, 1] = XY[:, 0], XY[:, 1]
    M[pairs] = (blocks @ R).transpose(0, 2, 1)


def prune_loadings(rotated: np.ndarray, threshold: float, terms: Sequence[str]) -> LoadingTable:
    """Per factor, keep terms whose |loading| is at or above
    ``threshold``, ordered by descending |loading| (ties alphabetical).

    ``rotated`` is the p x k rotated pattern, ``VarimaxResult.loadings``;
    row i belongs to ``terms[i]``.
    """
    if threshold < 0.0:
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

import shutil
import sys
import tracemalloc
import types
import warnings
from importlib.metadata import version

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import LinAlgWarning, eigvalsh

from helpers import (
    from_dense,
    out_of_place_extract_uls,
    random_binary,
    reference_anchor_signs,
    reference_eigendecompose,
    reference_extract_uls,
    reference_phi,
    reference_varimax_rotate,
    textbook_phi,
)
from lexifactor import (
    CorrelationMatrix,
    FactorLoadings,
    LoadingTable,
    StageError,
    ValidationError,
    correlation_matrix,
    eigendecompose,
    extract_uls,
    prune_loadings,
    refine_factors,
    select_factor_count,
    varimax_criterion,
    varimax_rotate,
)
from lexifactor.efa import (
    _ROUTINES,
    _anchor_signs,
    _initial_communalities,
    _lapack,
    _top_eigenpairs,
    uls_objective,
)
from test_pipeline_cli import run_command, write_corpus

# SciPy's compiled LAPACK wrapper, through which the efa stage calls LAPACK.
FLAPACK = _lapack()


def corr_from(values) -> CorrelationMatrix:
    values = np.asarray(values, dtype=np.float64)
    return CorrelationMatrix(values=values, terms=tuple(f"t{i}" for i in range(len(values))))


class TestCorrelationMatrix:
    def test_hand_computed_phi(self):
        # 4 docs: columns co-occur twice, first column appears alone once;
        # phi = (0.5 - 0.75*0.5) / sqrt(0.75*0.25*0.5*0.5) = 1/sqrt(3)
        dense = np.array([[1, 1], [1, 1], [1, 0], [0, 0]], dtype=float)
        corr = correlation_matrix(from_dense(dense))
        assert corr.values[0, 1] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert round(corr.values[0, 1], 5) == 0.57735

    def test_perfect_and_inverse_correlation(self):
        dense = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1]], dtype=float)
        corr = correlation_matrix(from_dense(dense))
        assert corr.values[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert corr.values[0, 2] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dense = random_binary(rng, int(rng.integers(4, 40)), int(rng.integers(2, 10)))
            corr = correlation_matrix(from_dense(dense))
            np.testing.assert_allclose(corr.values, textbook_phi(dense), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("p", [3, 300, 701])
    def test_row_blocks_equal_whole_matrix_bits(self, p):
        # p = 300 and 701 take several blocks of rows, the last one short
        dense = random_binary(np.random.default_rng(p), 150, p, density=0.1)
        corr = correlation_matrix(from_dense(dense))
        assert np.array_equal(corr.values, reference_phi(dense))
        assert corr.values.flags.c_contiguous

    def test_exactly_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(6)
        dense = random_binary(rng, 60, 12)
        corr = correlation_matrix(from_dense(dense))
        assert np.array_equal(corr.values, corr.values.T)
        assert np.all(np.diag(corr.values) == 1.0)
        assert np.all(corr.values >= -1.0) and np.all(corr.values <= 1.0)

    def test_constant_column_rejected(self):
        dense = np.array([[1, 1], [0, 1]], dtype=float)
        with pytest.raises(StageError, match="^constant columns have no correlation: t1$"):
            correlation_matrix(from_dense(dense))

    def test_terms_carried_over(self):
        dense = np.array([[1, 0], [0, 1]], dtype=float)
        corr = correlation_matrix(from_dense(dense))
        assert corr.terms == ("t0", "t1")


class TestEigendecompose:
    def test_descending_eigvalsh_spectrum(self):
        rng = np.random.default_rng(8)
        corr = correlation_matrix(from_dense(random_binary(rng, 50, 8)))
        eigenvalues = eigendecompose(corr)
        assert np.all(np.diff(eigenvalues) <= 0.0)
        expected = np.sort(eigvalsh(corr.values, driver="ev"))[::-1]
        assert eigenvalues.tobytes() == expected.tobytes()

    def test_full_spectrum_sums_to_p(self):
        eigenvalues = eigendecompose(one_factor_corr([0.8, 0.7, 0.6]))
        assert len(eigenvalues) == 3
        assert np.sum(eigenvalues) == pytest.approx(3.0, abs=1e-12)

    def test_empty_matrix(self):
        assert eigendecompose(corr_from(np.empty((0, 0)))).shape == (0,)

    def test_kaiser_count_matches_eigh_reference(self):
        """The eigenvalue-only spectrum picks the same Kaiser count as
        the eigenvalues of a full eigh with eigenvectors."""
        rng = np.random.default_rng(88)
        for _ in range(60):
            n, p = int(rng.integers(20, 200)), int(rng.integers(3, 60))
            dense = random_binary(rng, n, p, density=float(rng.uniform(0.05, 0.5)))
            corr = correlation_matrix(from_dense(dense))
            reference, _ = reference_eigendecompose(corr)
            ours = eigendecompose(corr)
            np.testing.assert_allclose(ours, reference, atol=1e-10)
            assert select_factor_count(ours) == select_factor_count(reference)


def random_symmetric(p: int, seed: int) -> np.ndarray:
    A = np.random.default_rng(seed).normal(size=(p, p))
    return A + A.T


class TestLapackMatchesPublicScipy:
    """The wrapper module's functions, called as the package calls them,
    give the bits of SciPy's public eigensolvers."""

    def test_same_module_and_functions_as_scipy_linalg_lapack(self):
        assert FLAPACK is sys.modules["scipy.linalg._flapack"]
        for name in _ROUTINES:
            assert getattr(FLAPACK, name) is getattr(scipy.linalg.lapack, name)

    @pytest.mark.parametrize("p", [1, 2, 9, 60, 257])
    def test_spectrum_equals_eigvalsh(self, p):
        C = random_symmetric(p, p)
        expected = np.sort(eigvalsh(C, driver="ev"))[::-1]
        assert eigendecompose(corr_from(C)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p, k", [(1, 1), (2, 1), (9, 9), (60, 1), (60, 7), (257, 40)])
    def test_top_eigenpairs_equal_eigh_subset(self, p, k):
        C = random_symmetric(p, p + k)
        w, v = scipy.linalg.eigh(C, subset_by_index=[p - k, p - 1])
        ours_w, ours_v = _top_eigenpairs(p, k)(np.array(C, order="F"))
        assert ours_w.tobytes() == w.tobytes()
        assert ours_v.tobytes() == v.tobytes()


class TestSelectFactorCount:
    def test_kaiser_counts_strictly_above_one(self):
        assert select_factor_count(np.array([2.5, 1.2, 1.0, 0.3])) == 2

    def test_kaiser_zero_is_an_error(self):
        with pytest.raises(ValidationError):
            select_factor_count(np.array([1.0, 0.9]))

    def test_fixed(self):
        assert select_factor_count(np.ones(10), 4) == 4

    def test_fixed_requires_k_in_range(self):
        with pytest.raises(ValidationError):
            select_factor_count(np.ones(3), 4)
        with pytest.raises(ValidationError):
            select_factor_count(np.ones(3), 0)


def one_factor_corr(lam):
    lam = np.asarray(lam, dtype=np.float64)
    C = np.outer(lam, lam)
    np.fill_diagonal(C, 1.0)
    return corr_from(C)


class TestExtractUls:
    def test_recovers_single_factor(self):
        corr = one_factor_corr([0.8, 0.7, 0.6])
        model = extract_uls(corr, 1)
        assert model.converged
        np.testing.assert_allclose(model.loadings[:, 0], [0.8, 0.7, 0.6], atol=1e-4)
        np.testing.assert_allclose(model.communalities, [0.64, 0.49, 0.36], atol=1e-4)
        np.testing.assert_allclose(
            model.uniquenesses, 1.0 - model.communalities, atol=1e-12
        )
        assert not model.heywood

    def test_rotation_lives_in_varimax_result(self):
        model = extract_uls(one_factor_corr([0.8, 0.7, 0.6, 0.5]), 2)
        assert not {"eigenvalues", "rotation", "rotated"} & set(vars(model))
        before = model.loadings.copy()
        result = varimax_rotate(model.loadings)
        assert model.loadings.tobytes() == before.tobytes()
        assert np.array_equal(result.loadings, model.loadings @ result.rotation)

    def test_sign_convention(self):
        model = extract_uls(one_factor_corr([0.8, 0.7, 0.6]), 1)
        for j in range(model.k):
            anchor = np.argmax(np.abs(model.loadings[:, j]))
            assert model.loadings[anchor, j] > 0

    def test_heywood_case_flagged_and_clamped(self):
        corr = corr_from([[1.0, 0.9, 0.9], [0.9, 1.0, 0.2], [0.9, 0.2, 1.0]])
        model = extract_uls(corr, 1)
        assert model.heywood
        assert np.all(model.communalities <= 1.0)
        assert np.all(model.uniquenesses >= 0.0)

    def test_iteration_budget_respected(self):
        corr = one_factor_corr([0.8, 0.7, 0.6])
        model = extract_uls(corr, 1, max_iter=1)
        assert model.n_iter == 1
        assert not model.converged

    def test_singular_correlation_uses_fallback_start(self):
        # perfectly correlated pair: the matrix is singular, so the SMC
        # start is unavailable and the row-maximum fallback must kick in
        corr = corr_from([[1.0, 1.0], [1.0, 1.0]])
        model = extract_uls(corr, 1)
        np.testing.assert_allclose(np.abs(model.loadings[:, 0]), [1.0, 1.0], atol=1e-6)

    def test_objective_matches_coarse_coordinate_grid(self):
        # independent check: exhaustive coordinate descent over a 0.01
        # grid of communalities cannot beat the iterated solution by more
        # than the grid resolution allows
        rng = np.random.default_rng(17)
        W = rng.normal(size=(4, 2))
        S = W @ W.T + np.diag(rng.uniform(0.5, 2.0, size=4))
        d = np.sqrt(np.diag(S))
        C = S / np.outer(d, d)
        np.fill_diagonal(C, 1.0)

        grid = np.linspace(0.0, 1.0, 101)
        h = np.full(4, 0.5)
        for _ in range(30):
            changed = False
            for i in range(4):
                candidates = np.repeat(C[None, :, :], len(grid), axis=0)
                H = np.repeat(h[None, :], len(grid), axis=0)
                H[:, i] = grid
                candidates[:, np.arange(4), np.arange(4)] = H
                w, V = np.linalg.eigh(candidates)
                lam = np.clip(w[:, -1], 0.0, None)
                L = V[:, :, -1] * np.sqrt(lam)[:, None]
                residual = C[None, :, :] - L[:, :, None] * L[:, None, :]
                residual[:, np.arange(4), np.arange(4)] = 0.0
                objectives = (residual**2).sum(axis=(1, 2))
                best = int(np.argmin(objectives))
                if h[i] != grid[best]:
                    h[i] = grid[best]
                    changed = True
            if not changed:
                break
        np.fill_diagonal(candidates[best], h)
        w, V = np.linalg.eigh(C - np.diag(1.0 - h))
        lam = np.clip(w[-1], 0.0, None)
        grid_loadings = V[:, -1:] * np.sqrt(lam)
        grid_objective = uls_objective(C, grid_loadings)

        model = extract_uls(corr_from(C), 1)
        assert uls_objective(C, model.loadings) <= grid_objective + 1e-3

    def test_validations(self):
        corr = one_factor_corr([0.8, 0.7, 0.6])
        with pytest.raises(ValidationError):
            extract_uls(corr, 0)
        with pytest.raises(ValidationError):
            extract_uls(corr, 4)
        with pytest.raises(ValidationError):
            extract_uls(corr, 1, tol=0.0)

    def test_nearly_singular_start_does_not_warn(self):
        # 5 reviews and 8 terms: phi has rank 4 at most, so the inverse
        # behind the SMC start is numerically meaningless but exists
        dense = random_binary(np.random.default_rng(3), 5, 8, density=0.5)
        corr = correlation_matrix(from_dense(dense))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = extract_uls(corr, 2)
        assert np.all(np.isfinite(model.loadings))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        values = one_factor_corr([0.8, 0.7, 0.6]).values
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(ValidationError, match="NaN or infinite"):
            extract_uls(corr_from(values), 1)


def factor_model_corr(rng: np.random.Generator, p: int, m: int) -> CorrelationMatrix:
    """Correlation matrix of ``m`` random common factors plus unique noise."""
    W = rng.normal(size=(p, m))
    S = W @ W.T + np.diag(rng.uniform(0.3, 2.0, size=p))
    d = np.sqrt(np.diag(S))
    C = S / np.outer(d, d)
    np.fill_diagonal(C, 1.0)
    return corr_from(C)


def assert_same_model(model, reference):
    assert (model.k, model.n_iter, model.converged, model.heywood) == (
        reference.k, reference.n_iter, reference.converged, reference.heywood,
    )
    assert np.max(np.abs(model.loadings - reference.loadings)) <= 1e-10
    assert np.max(np.abs(model.communalities - reference.communalities)) <= 1e-10


class TestUlsMatchesFullEighReference:
    """The top-k solver gives the full-spectrum loop's model."""

    @pytest.mark.parametrize(
        "seed, p, m, k",
        [(0, 6, 2, 2), (1, 12, 3, 3), (2, 40, 5, 5), (3, 40, 5, 3), (4, 120, 8, 8), (5, 30, 4, 6)],
    )
    def test_random_factor_models(self, seed, p, m, k):
        corr = factor_model_corr(np.random.default_rng(seed), p, m)
        assert_same_model(extract_uls(corr, k), reference_extract_uls(corr, k))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_phi(self, seed):
        dense = random_binary(np.random.default_rng(seed), 400, 25, density=0.2)
        corr = correlation_matrix(from_dense(dense))
        assert_same_model(extract_uls(corr, 4), reference_extract_uls(corr, 4))

    def test_single_factor(self):
        corr = factor_model_corr(np.random.default_rng(7), 15, 1)
        assert_same_model(extract_uls(corr, 1), reference_extract_uls(corr, 1))

    def test_every_factor(self):
        # k = p asks LAPACK for the index range [0, p - 1], the whole spectrum
        corr = factor_model_corr(np.random.default_rng(8), 7, 2)
        model = extract_uls(corr, 7, max_iter=25)
        assert_same_model(model, reference_extract_uls(corr, 7, max_iter=25))
        assert model.loadings.shape == (7, 7)

    def test_heywood_case(self):
        corr = corr_from([[1.0, 0.9, 0.9], [0.9, 1.0, 0.2], [0.9, 0.2, 1.0]])
        model = extract_uls(corr, 1)
        assert model.heywood
        assert_same_model(model, reference_extract_uls(corr, 1))

    def test_iteration_cap(self):
        corr = factor_model_corr(np.random.default_rng(9), 20, 3)
        model = extract_uls(corr, 3, max_iter=2)
        assert not model.converged and model.n_iter == 2
        assert_same_model(model, reference_extract_uls(corr, 3, max_iter=2))


class TestUlsStopsNearItsFixedPoint:
    """``converged`` bounds the distance to the fixed point, not the last
    step: on the first three models a step below 1e-6 still leaves the
    communalities 1.1e-6 to 1.3e-5 from it."""

    @pytest.mark.parametrize(
        "seed, p, m, k, tol",
        [(0, 6, 2, 2, 1e-6), (1, 12, 3, 3, 1e-6), (10, 20, 3, 5, 1e-6), (2, 40, 5, 5, 1e-6),
         (4, 120, 8, 8, 1e-6), (5, 30, 4, 6, 1e-6), (0, 6, 2, 2, 1e-4)],
    )
    def test_within_tol_of_a_tight_solve(self, seed, p, m, k, tol):
        corr = factor_model_corr(np.random.default_rng(seed), p, m)
        model = extract_uls(corr, k, tol=tol)
        tight = extract_uls(corr, k, tol=1e-13, max_iter=100_000)
        assert model.converged and tight.converged
        assert np.max(np.abs(model.communalities - tight.communalities)) < tol


def inverse_smc(C: np.ndarray) -> np.ndarray:
    """1 - 1/diag(inv(C)), clipped to [0, 1] as the SMC start clips it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        smc = 1.0 - 1.0 / np.diag(scipy.linalg.inv(C))
    return np.clip(np.nan_to_num(smc, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)


def unit_diagonal(S: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.diag(S))
    C = S / np.outer(d, d)
    np.fill_diagonal(C, 1.0)
    return C


def nearly_singular_corr() -> np.ndarray:
    """Symmetric positive definite, condition number about 1e10."""
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(rng.normal(size=(25, 25)))
    S = (Q * np.geomspace(1e-10, 5.0, 25)) @ Q.T
    return unit_diagonal((S + S.T) / 2)


def indefinite_corr(p: int = 12) -> np.ndarray:
    rng = np.random.default_rng(13)
    A = rng.uniform(-0.9, 0.9, size=(p, p))
    C = np.triu(A, 1) + np.triu(A, 1).T + np.eye(p)
    assert np.linalg.eigvalsh(C)[0] < 0
    return C


def non_symmetric_corr() -> np.ndarray:
    C = factor_model_corr(np.random.default_rng(14), 20, 3).values
    C[0, 1] += 1e-3
    return C


SMC_CASES = {
    "positive-definite": lambda: factor_model_corr(np.random.default_rng(11), 30, 3).values,
    "nearly-singular": nearly_singular_corr,
    "indefinite": indefinite_corr,
}


class TestInitialCommunalities:
    """The SMC start: 1 - 1/diag(C^-1), from an in-place Cholesky inverse
    when C is positive definite, else from a symmetric indefinite
    factorization in place. C is a matrix the public path accepts: a
    writable C-ordered float64 array, finite and exactly symmetric."""

    @pytest.mark.parametrize("case", SMC_CASES)
    def test_equals_inverse_diagonal(self, case):
        C = SMC_CASES[case]()
        before = C.copy()
        np.testing.assert_allclose(_initial_communalities(C), inverse_smc(C), rtol=1e-12, atol=0)
        assert np.array_equal(C, before)

    @pytest.mark.parametrize(
        "case, inv_calls",
        [("positive-definite", 0), ("nearly-singular", 0), ("indefinite", 1)],
    )
    def test_inv_only_without_cholesky(self, case, inv_calls, monkeypatch):
        C = SMC_CASES[case]()
        calls = []
        dsytrf = FLAPACK.dsytrf

        def counted(a, *args, **kwargs):
            calls.append(np.shares_memory(a, C))
            return dsytrf(a, *args, **kwargs)

        monkeypatch.setattr(FLAPACK, "dsytrf", counted)
        _initial_communalities(C)
        # C is factorized in its own memory.
        assert calls == [True] * inv_calls

    def test_singular_falls_back_to_row_maximum(self):
        # rows 0 and 1 are equal: both factorizations meet an exact zero pivot
        C = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.inv(C)
        assert _initial_communalities(C).tolist() == [1.0, 1.0, 0.5]


def traced_peak(fn, *args) -> int:
    """The most memory, in bytes, that Python and NumPy allocated during
    ``fn(*args)`` beyond what they held before it. tracemalloc sees
    NumPy's array buffers; OpenBLAS and LAPACK allocate their own
    workspace, which it does not see."""
    fn(*args)  # a first call may import modules, whose memory is not counted
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_only(C: np.ndarray) -> np.ndarray:
    C = C.copy()
    C.flags.writeable = False
    return C


def assert_no_second_matrix(p: int, solver, corr: CorrelationMatrix | None = None) -> None:
    """``solver(corr)`` allocates less than half a p x p float64 array
    and leaves ``corr.values`` bitwise as it found it. ``corr`` defaults
    to a positive definite factor model."""
    if corr is None:
        corr = factor_model_corr(np.random.default_rng(p), p, 10)
    before = corr.values.tobytes()
    assert traced_peak(solver, corr) <= 0.5 * p * p * 8
    assert corr.values.tobytes() == before


class TestWorkingMemory:
    """The efa stage holds one p x p float64 array, the correlation
    matrix: the spectrum, the SMC start and every ULS pass run in its
    memory and put it back, bit for bit, whether they return or raise."""

    @pytest.mark.parametrize("p", [600, 800])
    def test_correlation_matrix(self, p):
        # 2,000 documents at density 0.05: every pair of terms co-occurs
        matrix = from_dense(random_binary(np.random.default_rng(p), 2000, p, density=0.05))
        assert traced_peak(correlation_matrix, matrix) <= 2.5 * p * p * 8

    @pytest.mark.parametrize("p", [600, 800])
    def test_extract_uls(self, p):
        assert_no_second_matrix(p, lambda corr: extract_uls(corr, 10, 1e-6, 3))

    @pytest.mark.parametrize("p", [600, 800])
    def test_eigendecompose(self, p):
        assert_no_second_matrix(p, eigendecompose)

    @pytest.mark.parametrize("p", [600, 800])
    def test_initial_communalities(self, p):
        assert_no_second_matrix(p, lambda corr: _initial_communalities(corr.values))

    @pytest.mark.parametrize("p", [600, 800])
    def test_initial_communalities_of_indefinite_matrix(self, p):
        assert_no_second_matrix(p, lambda corr: _initial_communalities(corr.values), corr_from(indefinite_corr(p)))

    @pytest.mark.parametrize(
        "module, name, solver, matrix",
        [
            (FLAPACK, "dsyevr", lambda corr: extract_uls(corr, 3), "factor-model"),
            (FLAPACK, "dsyev", eigendecompose, "factor-model"),
            (FLAPACK, "dpotrf", lambda corr: _initial_communalities(corr.values), "factor-model"),
            (FLAPACK, "dpotri", lambda corr: _initial_communalities(corr.values), "factor-model"),
            (FLAPACK, "dsytrf", lambda corr: _initial_communalities(corr.values), "indefinite"),
        ],
    )
    def test_lapack_works_in_the_matrix_and_it_is_put_back_on_error(self, module, name, solver, matrix, monkeypatch):
        if matrix == "indefinite":
            corr = corr_from(indefinite_corr(70))
        else:
            corr = factor_model_corr(np.random.default_rng(5), 70, 3)
        before = corr.values.tobytes()
        lapack_call = getattr(module, name)
        seen = []

        def overwrite_then_fail(a, *args, **kwargs):
            seen.append(np.shares_memory(a, corr.values) and a.flags.f_contiguous)
            lapack_call(a, *args, **kwargs)
            raise RuntimeError("LAPACK stopped")

        monkeypatch.setattr(module, name, overwrite_then_fail)
        with pytest.raises(RuntimeError, match="LAPACK stopped"):
            solver(corr)
        assert seen == [True]
        assert corr.values.tobytes() == before

    @pytest.mark.parametrize("solver", [lambda corr: extract_uls(corr, 2), eigendecompose])
    def test_non_symmetric_matrix_rejected(self, solver):
        corr = corr_from(non_symmetric_corr())
        before = corr.values.tobytes()
        with pytest.raises(ValidationError, match="not exactly symmetric"):
            solver(corr)
        assert corr.values.tobytes() == before

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda C: C.astype(np.float32), read_only],
        ids=["fortran-ordered", "float32", "read-only"],
    )
    @pytest.mark.parametrize("solver", [lambda corr: extract_uls(corr, 2), eigendecompose])
    def test_matrix_that_cannot_be_borrowed_rejected(self, layout, solver):
        values = layout(factor_model_corr(np.random.default_rng(6), 12, 2).values)
        with pytest.raises(ValidationError, match="writable C-ordered float64"):
            solver(CorrelationMatrix(values=values, terms=tuple(f"t{i}" for i in range(12))))


def failing_dsyevr(monkeypatch) -> None:
    """Make LAPACK's ``dsyevr`` do its work and then report info 7."""
    dsyevr = FLAPACK.dsyevr
    monkeypatch.setattr(FLAPACK, "dsyevr", lambda *args, **kwargs: (*dsyevr(*args, **kwargs)[:-1], 7))


def scipy_without_dsytri(monkeypatch) -> None:
    """Stand in a wrapper module that has every routine the stage calls but ``dsytri``."""
    stub = types.ModuleType(FLAPACK.__name__)
    for name in _ROUTINES:
        if name != "dsytri":
            setattr(stub, name, getattr(FLAPACK, name))
    monkeypatch.setitem(sys.modules, FLAPACK.__name__, stub)


@pytest.fixture(scope="module")
def matrix_run(lexicon_dir, tmp_path_factory):
    """A corpus and the output directory of its stages up to ``matrix``, to copy."""
    root = tmp_path_factory.mktemp("matrix_run")
    corpus = write_corpus(root / "reviews.jsonl")
    for stage in ("ingest", "dict", "matrix"):
        assert run_command(stage, corpus, lexicon_dir, root / "out") == 0
    return corpus, root / "out"


class TestFailures:
    """A LAPACK failure and a SciPy without a routine the stage calls are
    stage errors, which the command line reports in one line."""

    def test_lapack_failure_is_stage_error_and_matrix_is_put_back(self, monkeypatch):
        corr = factor_model_corr(np.random.default_rng(5), 70, 3)
        before = corr.values.tobytes()
        failing_dsyevr(monkeypatch)
        with pytest.raises(StageError, match="^LAPACK dsyevr failed: info 7$"):
            extract_uls(corr, 3)
        assert corr.values.tobytes() == before

    @pytest.mark.parametrize(
        "break_lapack, message",
        [
            (failing_dsyevr, "LAPACK dsyevr failed: info 7"),
            (scipy_without_dsytri, f"SciPy {version('scipy')} has no LAPACK routine dsytri"),
        ],
        ids=["dsyevr-info-7", "no-dsytri"],
    )
    def test_efa_command_ends_in_one_line(self, break_lapack, message, matrix_run, lexicon_dir, tmp_path,
                                          monkeypatch, capsys):
        corpus, finished = matrix_run
        out = shutil.copytree(finished, tmp_path / "out")
        break_lapack(monkeypatch)
        capsys.readouterr()
        assert run_command("efa", corpus, lexicon_dir, out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestUlsMatchesOutOfPlaceLoop:
    """ULS in the correlation matrix's own memory gives the bits of the
    loop that inverted a copy and refilled a scratch for each pass."""

    @pytest.mark.parametrize(
        "seed, p, m, k, max_iter",
        [(0, 6, 2, 1, 1000), (1, 40, 5, 5, 1000), (2, 120, 8, 8, 1000), (3, 30, 4, 1, 1000),
         (4, 9, 3, 9, 25), (5, 200, 10, 12, 4), (6, 50, 6, 50, 10)],
    )
    def test_bitwise_equal(self, seed, p, m, k, max_iter):
        corr = factor_model_corr(np.random.default_rng(seed), p, m)
        before = corr.values.tobytes()
        model = extract_uls(corr, k, max_iter=max_iter)
        assert corr.values.tobytes() == before
        reference = out_of_place_extract_uls(corr, k, max_iter=max_iter)
        assert (model.n_iter, model.converged, model.heywood) == (
            reference.n_iter, reference.converged, reference.heywood,
        )
        for field in ("loadings", "communalities", "uniquenesses"):
            assert getattr(model, field).tobytes() == getattr(reference, field).tobytes(), field


def stationarity(loadings: np.ndarray) -> float:
    """Jennrich's stationarity measure of a rotated pattern: with its rows
    scaled to unit length as L and G = L^3 - L diag(column mean of L^2),
    the Frobenius norm of skew(L^T G) over the number of rows."""
    norms = np.linalg.norm(loadings, axis=1, keepdims=True)
    L = loadings / np.where(norms == 0.0, 1.0, norms)
    M = L.T @ (L**3 - L * (L**2).mean(axis=0))
    return float(np.linalg.norm(M - M.T)) / (2 * len(L))


def criterion_4_draw(index: int) -> np.ndarray:
    """The loadings that criterion 4 of the acceptance suite rotates
    ``index``-th (counting from 0)."""
    rng = np.random.default_rng(404)
    for _ in range(index + 1):
        p = int(rng.integers(2, 51))
        k = int(rng.integers(1, min(10, p) + 1))
        loadings = rng.normal(size=(p, k)) * rng.uniform(0.2, 1.0)
    return loadings


def grid_best_criterion(W: np.ndarray, n_angles: int = 10001) -> float:
    """Best pairwise-rotation criterion for two factors, by brute force."""
    x, y = W[:, 0], W[:, 1]
    p = len(x)
    angles = np.linspace(-np.pi / 4, np.pi / 4, n_angles)
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    col1 = c * x + s * y
    col2 = -s * x + c * y
    v1 = (col1**4).sum(axis=1) / p - ((col1**2).sum(axis=1) / p) ** 2
    v2 = (col2**4).sum(axis=1) / p - ((col2**2).sum(axis=1) / p) ** 2
    return float((v1 + v2).max())


class TestVarimax:
    def test_diagonal_pattern_recovered(self):
        # rows at 45 degrees rotate onto the axes: perfect simple structure
        c = np.sqrt(0.5)
        loadings = np.array([[c, c], [c, -c]])
        result = varimax_rotate(loadings)
        np.testing.assert_allclose(
            np.sort(np.abs(result.loadings), axis=None), [0.0, 0.0, 1.0, 1.0], atol=1e-12
        )
        assert varimax_criterion(result.loadings) == pytest.approx(0.5, abs=1e-12)

    def test_matches_angle_grid_search(self):
        rng = np.random.default_rng(23)
        draws = [rng.normal(size=(int(rng.integers(3, 12)), 2)) for _ in range(6)]
        draws += [rng.normal(size=(2, 2)) for _ in range(6)]
        # Criterion 4's 2 x 2 draw 624, on which the whole-matrix iteration
        # alone alternates between two rotations short of the best one.
        draws.append(criterion_4_draw(624))
        for loadings in draws:
            # Unit rows: the criterion history tracks the normalized matrix.
            loadings /= np.linalg.norm(loadings, axis=1, keepdims=True)
            result = varimax_rotate(loadings)
            achieved = result.criterion_history[-1]
            assert achieved >= grid_best_criterion(loadings) - 1e-9

    def test_rotation_is_orthogonal_and_consistent(self):
        rng = np.random.default_rng(29)
        loadings = rng.normal(size=(10, 4)) * 0.5
        result = varimax_rotate(loadings)
        np.testing.assert_allclose(
            result.rotation.T @ result.rotation, np.eye(4), atol=1e-12
        )
        assert np.array_equal(result.loadings, loadings @ result.rotation)

    def test_communalities_preserved(self):
        rng = np.random.default_rng(31)
        loadings = rng.normal(size=(12, 3)) * 0.5
        result = varimax_rotate(loadings)
        np.testing.assert_allclose(
            (result.loadings**2).sum(axis=1),
            (loadings**2).sum(axis=1),
            atol=1e-12,
        )

    def test_history_nondecreasing(self):
        rng = np.random.default_rng(37)
        loadings = rng.normal(size=(20, 5))
        result = varimax_rotate(loadings)
        history = np.array(result.criterion_history)
        assert np.all(np.diff(history) >= 0.0)
        assert result.sweeps >= 1

    def test_converged_flag(self):
        loadings = np.random.default_rng(12).normal(size=(30, 8)) * 0.4
        converging = varimax_rotate(loadings)
        assert converging.converged and converging.sweeps < 2000
        assert stationarity(converging.loadings) < 1e-7 + 1e-12
        capped = varimax_rotate(loadings, max_sweeps=5)
        assert not capped.converged and capped.sweeps == 5
        assert capped.stationarity >= 1e-7 and stationarity(capped.loadings) > 1e-7
        single = varimax_rotate(np.array([[0.5], [-0.7]]))
        assert single.converged and single.sweeps == 0

    def test_columns_ordered_by_explained_ssq(self):
        rng = np.random.default_rng(41)
        loadings = rng.normal(size=(15, 4))
        result = varimax_rotate(loadings)
        ssq = (result.loadings**2).sum(axis=0)
        assert np.all(np.diff(ssq) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(43)
        loadings = rng.normal(size=(9, 3))
        result = varimax_rotate(loadings)
        for j in range(3):
            anchor = np.argmax(np.abs(result.loadings[:, j]))
            assert result.loadings[anchor, j] > 0

    def test_single_factor(self):
        loadings = np.array([[0.5], [-0.9], [0.3]])
        result = varimax_rotate(loadings)
        # sign flip only: the largest-magnitude loading turns positive
        np.testing.assert_allclose(result.loadings, [[-0.5], [0.9], [-0.3]], atol=1e-15)
        np.testing.assert_allclose(result.rotation, [[-1.0]], atol=1e-15)

    def test_zero_rows_tolerated(self):
        loadings = np.array([[0.0, 0.0], [0.8, 0.1], [0.1, 0.7]])
        result = varimax_rotate(loadings)
        assert np.all(np.isfinite(result.loadings))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.integers(1, 5)),
            elements=st.floats(-1.0, 1.0, width=64),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_invariants_hold_generally(self, loadings):
        result = varimax_rotate(loadings)
        k = loadings.shape[1]
        assert np.max(np.abs(result.rotation.T @ result.rotation - np.eye(k))) <= 1e-10
        assert np.max(
            np.abs((result.loadings**2).sum(axis=1) - (loadings**2).sum(axis=1))
        ) <= 1e-10
        assert np.all(np.diff(np.array(result.criterion_history)) >= 0.0)
        if result.converged:
            assert stationarity(result.loadings) < 1e-7 + 1e-12

    def test_history_sums_one_layout(self):
        # The first value is summed over the normalized loadings as every
        # later one is over the rotated ones: a C-ordered array.
        loadings = np.asfortranarray(np.random.default_rng(53).normal(size=(300, 12)))
        normalized = loadings / np.linalg.norm(loadings, axis=1, keepdims=True)
        result = varimax_rotate(loadings, max_sweeps=1)
        assert result.criterion_history[0] == varimax_criterion(np.ascontiguousarray(normalized))

    def test_memory_layout_does_not_change_the_bits(self):
        # Row norms and the products with the rotation sum in the order of
        # the layout; the rotation works on a Fortran-ordered copy of either.
        loadings = np.random.default_rng(47).normal(size=(300, 12)) * 0.3
        in_c = varimax_rotate(np.ascontiguousarray(loadings), max_sweeps=5)
        in_fortran = varimax_rotate(np.asfortranarray(loadings), max_sweeps=5)
        assert in_c.criterion_history == in_fortran.criterion_history
        assert in_c.rotation.tobytes() == in_fortran.rotation.tobytes()
        assert in_c.loadings.tobytes() == in_fortran.loadings.tobytes()

    def test_validations(self):
        with pytest.raises(ValidationError):
            varimax_rotate(np.zeros((0, 2)))
        with pytest.raises(ValidationError):
            varimax_rotate(np.zeros(3))


# Subnormals, signed zeros and values whose squares underflow.
_TINY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-160])


@st.composite
def varimax_cases(draw):
    p, k = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    elements = st.one_of(st.floats(-1.0, 1.0, width=64), _TINY)
    loadings = draw(arrays(np.float64, (p, k), elements=elements))
    for i in draw(st.lists(st.integers(0, p - 1), max_size=3)):
        loadings[i, :] = draw(st.sampled_from([0.0, -0.0]))
    for j in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        loadings[:, j] = draw(st.sampled_from([0.0, -0.0]))
    return loadings, draw(st.integers(1, 40))


class TestAnchorSigns:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 6)),
            elements=st.one_of(st.sampled_from([0.5, -0.5, 0.25, -0.25]), _TINY, st.floats(-1.0, 1.0)),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_column_loop(self, loadings):
        signed = loadings * _anchor_signs(loadings)
        assert signed.tobytes() == reference_anchor_signs(loadings).tobytes()

    def test_first_maximum_wins_a_tie(self):
        assert _anchor_signs(np.array([[0.5, -0.5], [-0.5, 0.5]])).tolist() == [1.0, -1.0]


def assert_same_rotation(result, reference):
    assert result.sweeps == reference.sweeps
    assert result.converged == reference.converged
    assert result.stationarity == reference.stationarity
    assert result.criterion_history == reference.criterion_history
    assert result.loadings.tobytes() == reference.loadings.tobytes()
    assert result.rotation.tobytes() == reference.rotation.tobytes()


class TestVarimaxMatchesSequentialReference:
    """The rotation gives the bits of the plain loop that rotates one pair
    at a time in its opening sweep and recomputes every value from T."""

    @given(varimax_cases())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal(self, case):
        loadings, max_sweeps = case
        assert_same_rotation(
            varimax_rotate(loadings, max_sweeps=max_sweeps),
            reference_varimax_rotate(loadings, max_sweeps=max_sweeps),
        )

    def test_production_shape(self):
        loadings = np.random.default_rng(586).normal(size=(586, 32)) * 0.3
        assert_same_rotation(
            varimax_rotate(loadings, max_sweeps=3), reference_varimax_rotate(loadings, max_sweeps=3)
        )

    @pytest.mark.parametrize("k, seed", [(10, 9), (12, 5)])
    def test_undone_sweep(self, k, seed):
        # Two rows and more factors than rows: the iteration stalls short of
        # a stationary point, its next step loses ground to roundoff and is
        # undone, and the rotation stops there, not converged.
        loadings = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, k))
        result = varimax_rotate(loadings, max_sweeps=40)
        assert_same_rotation(result, reference_varimax_rotate(loadings, max_sweeps=40))
        assert result.sweeps < 39 and result.stationarity > 1e-3
        assert not result.converged


class TestPruneLoadings:
    def test_threshold_and_order(self):
        rotated = np.array([[0.65, 0.05], [0.41, 0.10], [0.12, 0.55]])
        table = prune_loadings(rotated, 0.3, ("suite", "ticket", "noise"))
        assert table.factors[0].entries == (("suite", 0.65), ("ticket", 0.41))
        assert table.factors[1].entries == (("noise", 0.55),)
        assert table.threshold == 0.3

    def test_threshold_inclusive_and_absolute(self):
        rotated = np.array([[0.3], [-0.5], [0.29]])
        table = prune_loadings(rotated, 0.3, ("a", "b", "c"))
        assert table.factors[0].entries == (("b", -0.5), ("a", 0.3))

    def test_tie_broken_alphabetically(self):
        rotated = np.array([[0.4], [0.4]])
        table = prune_loadings(rotated, 0.3, ("zeta", "alpha"))
        assert [term for term, _ in table.factors[0].entries] == ["alpha", "zeta"]

    def test_empty_factor_allowed(self):
        rotated = np.array([[0.1], [0.2]])
        table = prune_loadings(rotated, 0.3, ("a", "b"))
        assert table.factors[0].entries == ()
        assert table.factors[0].top_value == -1.0

    def test_validations(self):
        rotated = np.array([[0.4], [0.4]])
        with pytest.raises(ValidationError):
            prune_loadings(rotated, -0.1, ("a", "b"))
        with pytest.raises(ValidationError):
            prune_loadings(rotated, 0.3, ("a",))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_threshold_that_is_not_finite_rejected(self, threshold):
        # NaN fails every comparison, so a ``threshold < 0`` test let it
        # through and every loading was discarded.
        with pytest.raises(ValidationError, match=f"^threshold must be non-negative, got {threshold}$"):
            prune_loadings(np.array([[0.4], [0.4]]), threshold, ("a", "b"))


class TestRefineFactors:
    def table(self):
        return LoadingTable(
            factors=(
                FactorLoadings(1, (("a", 0.7),)),
                FactorLoadings(2, (("b", 0.9), ("c", 0.4))),
                FactorLoadings(3, ()),
                FactorLoadings(4, (("d", -0.8),)),
            ),
            threshold=0.3,
        )

    def test_keeps_strongest_in_original_order(self):
        refined = refine_factors(self.table(), 2)
        assert [f.factor for f in refined.factors] == [2, 4]
        assert refined.threshold == 0.3

    def test_absolute_value_ranks(self):
        refined = refine_factors(self.table(), 1)
        assert [f.factor for f in refined.factors] == [2]

    def test_empty_factors_rank_last(self):
        refined = refine_factors(self.table(), 3)
        assert [f.factor for f in refined.factors] == [1, 2, 4]

    def test_retain_larger_than_count_keeps_all(self):
        refined = refine_factors(self.table(), 10)
        assert [f.factor for f in refined.factors] == [1, 2, 3, 4]

    def test_tie_goes_to_lower_factor_id(self):
        table = LoadingTable(
            factors=(FactorLoadings(1, (("a", 0.5),)), FactorLoadings(2, (("b", -0.5),))),
            threshold=0.3,
        )
        refined = refine_factors(table, 1)
        assert [f.factor for f in refined.factors] == [1]

    def test_retain_validated(self):
        with pytest.raises(ValidationError):
            refine_factors(self.table(), 0)

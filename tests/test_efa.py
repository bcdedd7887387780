import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    from_dense,
    random_binary,
    reference_anchor_signs,
    reference_eigendecompose,
    reference_varimax_rotate,
    textbook_phi,
)
from lexifactor import (
    CorrelationMatrix,
    DegenerateColumnError,
    FactorLoadings,
    LoadingTable,
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
from lexifactor.efa import _anchor_signs, _pair_levels, uls_objective


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

    def test_exactly_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(6)
        dense = random_binary(rng, 60, 12)
        corr = correlation_matrix(from_dense(dense))
        assert np.array_equal(corr.values, corr.values.T)
        assert np.all(np.diag(corr.values) == 1.0)
        assert np.all(corr.values >= -1.0) and np.all(corr.values <= 1.0)

    def test_constant_column_rejected(self):
        dense = np.array([[1, 1], [0, 1]], dtype=float)
        with pytest.raises(DegenerateColumnError, match="t1"):
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
        expected = np.sort(np.linalg.eigvalsh(corr.values))[::-1]
        assert eigenvalues.tobytes() == expected.tobytes()

    def test_full_spectrum_sums_to_p(self):
        eigenvalues = eigendecompose(one_factor_corr([0.8, 0.7, 0.6]))
        assert len(eigenvalues) == 3
        assert np.sum(eigenvalues) == pytest.approx(3.0, abs=1e-12)

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


class TestSelectFactorCount:
    def test_kaiser_counts_strictly_above_one(self):
        assert select_factor_count(np.array([2.5, 1.2, 1.0, 0.3]), "kaiser") == 2

    def test_kaiser_zero_is_an_error(self):
        with pytest.raises(ValidationError):
            select_factor_count(np.array([1.0, 0.9]), "kaiser")

    def test_fixed(self):
        assert select_factor_count(np.ones(10), "fixed", k=4) == 4

    def test_fixed_requires_k_in_range(self):
        with pytest.raises(ValidationError):
            select_factor_count(np.ones(3), "fixed", k=4)
        with pytest.raises(ValidationError):
            select_factor_count(np.ones(3), "fixed", k=0)
        with pytest.raises(ValidationError):
            select_factor_count(np.ones(3), "fixed")

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            select_factor_count(np.ones(3), "scree")


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
        for _ in range(6):
            loadings = rng.normal(size=(int(rng.integers(3, 12)), 2))
            result = varimax_rotate(loadings, kaiser_normalize=False)
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
    return loadings, draw(st.booleans()), draw(st.integers(1, 40))


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
    assert result.criterion_history == reference.criterion_history
    assert result.loadings.tobytes() == reference.loadings.tobytes()
    assert result.rotation.tobytes() == reference.rotation.tobytes()


class TestVarimaxMatchesSequentialReference:
    """Level-batched sweeps give the bits of one pair rotation at a time."""

    @given(varimax_cases())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal(self, case):
        loadings, kaiser_normalize, max_sweeps = case
        assert_same_rotation(
            varimax_rotate(loadings, kaiser_normalize, max_sweeps=max_sweeps),
            reference_varimax_rotate(loadings, kaiser_normalize, max_sweeps=max_sweeps),
        )

    def test_production_shape(self):
        loadings = np.random.default_rng(586).normal(size=(586, 32)) * 0.3
        assert_same_rotation(
            varimax_rotate(loadings, max_sweeps=3), reference_varimax_rotate(loadings, max_sweeps=3)
        )

    @pytest.mark.parametrize(
        "k, seed, kaiser_normalize", [(6, 0, False), (10, 1, True), (12, 5, True)]
    )
    def test_undone_sweep(self, k, seed, kaiser_normalize):
        # Two rows and many factors: the fourth sweep lowers the criterion
        # and is undone while the gain is still far above tol.
        loadings = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, k))
        result = varimax_rotate(loadings, kaiser_normalize, max_sweeps=40)
        assert_same_rotation(
            result, reference_varimax_rotate(loadings, kaiser_normalize, max_sweeps=40)
        )
        history = result.criterion_history
        assert result.sweeps == 3 and history[-1] - history[-2] > 1e-8

    @pytest.mark.parametrize("k, n_levels", [(1, 0), (2, 1), (3, 3), (4, 5), (32, 61), (40, 77)])
    def test_schedule(self, k, n_levels):
        levels = [[tuple(pair) for pair in level.tolist()] for level in _pair_levels(k)]
        assert len(levels) == n_levels
        cyclic = [(f, g) for f in range(k - 1) for g in range(f + 1, k)]
        assert sorted(pair for level in levels for pair in level) == cyclic
        level_of = {pair: i for i, level in enumerate(levels) for pair in level}
        for level in levels:
            factors = [factor for pair in level for factor in pair]
            assert len(set(factors)) == len(factors)
        for i, pair in enumerate(cyclic):
            for earlier in cyclic[:i]:
                if set(pair) & set(earlier):
                    assert level_of[earlier] < level_of[pair]


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

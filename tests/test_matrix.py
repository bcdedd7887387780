import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import from_dense, from_rows, rows_of, to_dense
from lexifactor import (
    EmptyMatrixError,
    Review,
    ValidationError,
    build_dictionary,
    build_matrix,
    column_stats,
    filter_low_variance,
    filter_top_variance,
)


@pytest.fixture()
def small_dictionary(lexicon, stopwords):
    reviews = [
        Review(id="a", source="g2", text="suite suite tickets"),
        Review(id="b", source="g2", text="suite"),
    ]
    return build_dictionary(reviews, lexicon, stopwords)


class TestBuildMatrix:
    def test_hand_counted_cells(self, lexicon, small_dictionary):
        assert small_dictionary.terms == ("suite", "ticket")
        reviews = [
            Review(id="d1", source="g2", text="The suite had tickets!"),
            Review(id="d2", source="ph", text="suite, suite, SUITE"),
            Review(id="d3", source="tp", text="qwzzk nothingburger"),
        ]
        matrix = build_matrix(reviews, small_dictionary, lexicon)
        assert matrix.doc_ids == ("d1", "d2", "d3")
        assert matrix.terms == ("suite", "ticket")
        assert rows_of(matrix) == ((0, 1), (0,), ())
        assert matrix.nnz() == 3

    def test_inflections_map_to_term_column(self, lexicon, small_dictionary):
        reviews = [Review(id="d1", source="g2", text="tickets galore")]
        matrix = build_matrix(reviews, small_dictionary, lexicon)
        assert rows_of(matrix) == ((1,),)

    def test_rows_are_sorted_unique(self, lexicon, small_dictionary):
        reviews = [Review(id="d1", source="g2", text="ticket suite ticket suite")]
        matrix = build_matrix(reviews, small_dictionary, lexicon)
        assert rows_of(matrix) == ((0, 1),)


class TestColumnStats:
    def test_hand_computed_values(self):
        # 100 docs; columns hit 50, 1, and 10 of them
        dense = np.zeros((100, 3))
        dense[:50, 0] = 1
        dense[0, 1] = 1
        dense[:10, 2] = 1
        stats = column_stats(from_dense(dense))
        assert [s.df for s in stats] == [50, 1, 10]
        assert [s.p for s in stats] == [0.5, 0.01, 0.1]
        assert stats[0].variance == 0.25
        assert stats[1].variance == pytest.approx(0.0099, abs=1e-15)
        assert stats[2].variance == pytest.approx(0.09, abs=1e-15)

    def test_zero_and_full_columns(self):
        dense = np.zeros((4, 2))
        dense[:, 1] = 1
        stats = column_stats(from_dense(dense))
        assert stats[0].df == 0 and stats[0].variance == 0.0
        assert stats[1].df == 4 and stats[1].variance == 0.0

    def test_empty_matrix_rejected(self):
        empty = from_rows((), ("a",), ())
        with pytest.raises(EmptyMatrixError):
            column_stats(empty)

    @given(
        arrays(
            np.int8,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.integers(0, 1),
        )
    )
    @settings(max_examples=60)
    def test_matches_dense_recount(self, cells):
        dense = cells.astype(np.float64)
        stats = column_stats(from_dense(dense))
        assert [s.df for s in stats] == dense.sum(axis=0).astype(int).tolist()
        for j, s in enumerate(stats):
            p = dense[:, j].mean()
            assert s.p == pytest.approx(p, abs=1e-15)
            assert s.variance == pytest.approx(p * (1 - p), abs=1e-15)


class TestFilterLowVariance:
    def test_drops_below_threshold(self):
        dense = np.zeros((100, 3))
        dense[:50, 0] = 1  # variance 0.25
        dense[0, 1] = 1  # variance 0.0099
        dense[:10, 2] = 1  # variance 0.09
        filtered, kept = filter_low_variance(from_dense(dense), 0.01)
        assert kept == (0, 2)
        assert filtered.terms == ("t0", "t2")
        np.testing.assert_array_equal(to_dense(filtered), dense[:, [0, 2]])

    def test_threshold_is_inclusive(self):
        dense = np.zeros((4, 1))
        dense[:2, 0] = 1  # variance exactly 0.25
        filtered, kept = filter_low_variance(from_dense(dense), 0.25)
        assert kept == (0,)

    def test_rows_remapped_to_new_indices(self):
        dense = np.array([[0, 1, 1], [0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
        filtered, kept = filter_low_variance(from_dense(dense), 0.1)
        assert kept == (1, 2)
        assert rows_of(filtered) == ((0, 1), (0,), (1,), ())

    def test_nothing_survives_is_an_error(self):
        dense = np.zeros((10, 2))
        dense[0, 0] = 1
        with pytest.raises(EmptyMatrixError):
            filter_low_variance(from_dense(dense), 0.25)

    def test_threshold_range_validated(self):
        dense = np.eye(3)
        with pytest.raises(ValidationError):
            filter_low_variance(from_dense(dense), 0.3)
        with pytest.raises(ValidationError):
            filter_low_variance(from_dense(dense), -0.1)


class TestFilterTopVariance:
    @given(
        arrays(
            np.int8,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.integers(0, 1),
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_matches_dense_column_slice(self, cells, k):
        dense = cells.astype(np.float64)
        filtered, kept = filter_top_variance(from_dense(dense), k)
        np.testing.assert_array_equal(to_dense(filtered), dense[:, list(kept)])

    def test_keeps_k_highest(self):
        dense = np.zeros((100, 4))
        dense[:50, 0] = 1  # 0.25
        dense[:2, 1] = 1  # 0.0196
        dense[:10, 2] = 1  # 0.09
        dense[:30, 3] = 1  # 0.21
        filtered, kept = filter_top_variance(from_dense(dense), 2)
        assert kept == (0, 3)
        assert filtered.terms == ("t0", "t3")

    def test_tie_goes_to_lower_index(self):
        dense = np.zeros((10, 3))
        dense[:5, 0] = 1
        dense[:5, 1] = 1
        dense[:1, 2] = 1
        _, kept = filter_top_variance(from_dense(dense), 1)
        assert kept == (0,)

    def test_k_larger_than_columns_keeps_all(self):
        dense = np.eye(3)
        filtered, kept = filter_top_variance(from_dense(dense), 10)
        assert kept == (0, 1, 2)
        assert filtered.terms == ("t0", "t1", "t2")

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            filter_top_variance(from_dense(np.eye(2)), 0)

    def test_original_column_order_preserved(self):
        dense = np.zeros((100, 3))
        dense[:10, 0] = 1  # 0.09
        dense[:50, 1] = 1  # 0.25
        dense[:30, 2] = 1  # 0.21
        filtered, kept = filter_top_variance(from_dense(dense), 2)
        assert kept == (1, 2)
        assert filtered.terms == ("t1", "t2")

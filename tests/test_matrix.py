import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    from_dense,
    from_rows,
    reference_build_dictionary,
    reference_build_matrix,
    reference_document_lemmas,
    rows_of,
    to_dense,
)
from lexifactor import (
    Review,
    StageError,
    TermDictionary,
    ValidationError,
    build_dictionary,
    build_matrix,
    column_stats,
    filter_low_variance,
    filter_top_variance,
)
from lexifactor.artifacts import TermColumns, TermProvenance
from lexifactor.lexicon import ReviewLemmas
from wordnet_fixture import expected_adj_lemmas, expected_noun_lemmas

EMPTY_DICTIONARY = "no candidate terms survived dictionary construction"

# Lemmas of the fixture lexicon, regular and irregular inflections of
# them, forms that inflect lemmas it lacks, junk, and stopwords.
LEXICAL_WORDS = sorted(expected_noun_lemmas() | expected_adj_lemmas()) + [
    "tickets", "boxes", "churches", "berries", "wishes", "quizzes", "taxes", "buzzes",
    "glasses", "men", "axes", "children", "corpora", "data", "teeth", "oxen", "geese",
    "better", "best", "happier", "worst", "faster", "nicer", "simpler", "later", "cheapest",
    "qwzzk", "x", "customer", "service", "the", "and", "s", "t", "don", "more", "very",
]


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

    def test_stopword_token_sets_neither_column_nor_doc_freq(self, lexicon):
        # "glasses" is a stopword here, although it lemmatizes to the
        # admitted term "glass": neither glass's doc_freq nor its matrix
        # column counts the review that holds it.
        reviews = [
            Review(id="a", source="g2", text="glasses ticket"),
            Review(id="b", source="g2", text="glass"),
        ]
        lemmas = ReviewLemmas()
        dictionary = build_dictionary(reviews, lexicon, frozenset({"glasses"}), lemmas)
        assert dictionary.terms == ("glass", "ticket")
        assert dictionary.provenance["glass"].doc_freq == 1
        assert lemma_sets(lemmas)[0] == {"ticket"}
        matrix = build_matrix(reviews, dictionary, lemmas)
        assert rows_of(matrix) == ((1,), (0,))
        assert column_stats(matrix).df[0] == 1
        # Given the lexicon, build_matrix makes the pass with no stopwords.
        assert rows_of(build_matrix(reviews, dictionary, lexicon)) == ((0, 1), (0,))

    def test_lemmas_must_cover_the_reviews(self, lexicon, small_dictionary):
        reviews = [Review(id="d1", source="g2", text="suite"), Review(id="d2", source="g2", text="")]
        lemmas = ReviewLemmas().read(reviews, lexicon)
        with pytest.raises(ValidationError):
            build_matrix(reviews[:1], small_dictionary, lemmas)


def review_texts(words):
    """Review texts of up to 12 of ``words``, repeats included, in any
    case and with assorted separators."""
    return st.lists(
        st.tuples(st.sampled_from(words), st.sampled_from([" ", ", ", "! ", "7", "\n"]), st.booleans()),
        max_size=12,
    ).map(lambda parts: "".join((w.upper() if up else w) + sep for w, sep, up in parts))


_review_text = review_texts(LEXICAL_WORDS)


def lemma_sets(lemmas: ReviewLemmas) -> list[set[str]]:
    bounds = lemmas.indptr.tolist()
    return [
        {lemmas.vocabulary[i] for i in lemmas.ids[start:stop].tolist()}
        for start, stop in zip(bounds, bounds[1:])
    ]


class TestLexicalPassEquivalence:
    """One lexical pass, which lemmatizes each distinct token once, gives
    the same dictionary and matrix as lemmatizing every token occurrence."""

    @given(
        texts=st.lists(_review_text, min_size=1, max_size=8),
        stopwords=st.frozensets(st.sampled_from(LEXICAL_WORDS), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_occurrence_references(self, lexicon, texts, stopwords):
        reviews = [Review(id=f"r{i}", source="g2", text=text) for i, text in enumerate(texts)]
        try:
            expected = reference_build_dictionary(reviews, lexicon, stopwords)
        except StageError:
            with pytest.raises(StageError, match=f"^{EMPTY_DICTIONARY}$"):
                build_dictionary(reviews, lexicon, stopwords)
            return
        lemmas = ReviewLemmas()
        dictionary = build_dictionary(reviews, lexicon, stopwords, lemmas)
        assert dictionary == expected

        expected_sets = [reference_document_lemmas(lexicon, r, stopwords) for r in reviews]
        assert lemma_sets(lemmas) == expected_sets
        assert [len(found) for found in expected_sets] == np.diff(lemmas.indptr).tolist()
        unfiltered_sets = [reference_document_lemmas(lexicon, r, frozenset()) for r in reviews]
        assert lemma_sets(ReviewLemmas().read(reviews, lexicon)) == unfiltered_sets

        assert build_matrix(reviews, dictionary, lemmas) == reference_build_matrix(
            reviews, expected, lexicon, stopwords
        )
        assert build_matrix(reviews, dictionary, lexicon) == reference_build_matrix(
            reviews, expected, lexicon, frozenset()
        )


class TestDocFreqIsColumnCount:
    """The dictionary and the matrix count the same reviews for each term."""

    @given(
        texts=st.lists(_review_text, min_size=1, max_size=8),
        stopwords=st.frozensets(st.sampled_from(LEXICAL_WORDS), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_doc_freq_equals_column_df(self, lexicon, texts, stopwords):
        reviews = [Review(id=f"r{i}", source="g2", text=text) for i, text in enumerate(texts)]
        lemmas = ReviewLemmas()
        try:
            dictionary = build_dictionary(reviews, lexicon, stopwords, lemmas)
        except StageError as err:
            assert str(err) == EMPTY_DICTIONARY
            return
        df = column_stats(build_matrix(reviews, dictionary, lemmas)).df
        assert df.tolist() == [dictionary.provenance[t].doc_freq for t in dictionary.terms]


@pytest.fixture(scope="module")
def glasses_lexicon(lexicon):
    """The fixture lexicon plus a noun lemma "glasses", which the token
    "glasses" never reaches (the "ses" rule makes it "glass" first), and
    an irregular "specs" whose base it is."""
    return replace(
        lexicon,
        entries={**lexicon.entries, ("glasses", "noun"): (9100,)},
        exceptions={**lexicon.exceptions, ("specs", "noun"): "glasses"},
    )


class TestMatrixFromForms:
    """Given the dictionary alone, build_matrix finds each review's terms
    among the terms' recorded forms, and builds the matrix of the lexical
    pass that built the dictionary."""

    def test_token_that_is_a_lemma_counts_where_it_lemmatizes(self, glasses_lexicon):
        reviews = [
            Review(id="a", source="g2", text="glasses"),
            Review(id="b", source="g2", text="specs, glass"),
            Review(id="c", source="g2", text="Glasses and specs"),
        ]
        lemmas = ReviewLemmas()
        dictionary = build_dictionary(reviews, glasses_lexicon, frozenset({"and"}), lemmas)
        assert dictionary.terms == ("glass", "glasses")
        assert dictionary.provenance["glass"].forms == ("glass", "glasses")
        assert dictionary.provenance["glasses"].forms == ("specs",)
        matrix = build_matrix(reviews, dictionary)
        assert rows_of(matrix) == ((0,), (0, 1), (0, 1))
        assert matrix == build_matrix(reviews, dictionary, lemmas)

    def test_forms_default_to_empty(self):
        provenance = TermProvenance(pos="noun", sense_ids=(("noun", 1),), doc_freq=0)
        assert provenance.forms == ()
        dictionary = TermDictionary(terms=("suite",), index={"suite": 0}, provenance={"suite": provenance})
        reviews = [Review(id="a", source="g2", text="suite")]
        assert rows_of(build_matrix(reviews, dictionary)) == ((),)

    @given(
        texts=st.lists(review_texts([*LEXICAL_WORDS, "specs", "spec"]), min_size=1, max_size=8),
        stopwords=st.frozensets(st.sampled_from([*LEXICAL_WORDS, "specs"]), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_lexical_pass(self, glasses_lexicon, texts, stopwords):
        reviews = [Review(id=f"r{i}", source="g2", text=text) for i, text in enumerate(texts)]
        lemmas = ReviewLemmas()
        try:
            dictionary = build_dictionary(reviews, glasses_lexicon, stopwords, lemmas)
        except StageError as err:
            assert str(err) == EMPTY_DICTIONARY
            return
        expected = build_matrix(reviews, dictionary, lemmas)
        assert build_matrix(reviews, dictionary) == expected
        # as a lone matrix command reads it back from dictionary.json
        payload = json.loads("".join(dictionary.json_lines()))
        assert build_matrix(reviews, TermColumns.from_json_dict(payload, "dictionary.json")) == expected
        df = column_stats(expected).df
        assert df.tolist() == [dictionary.provenance[t].doc_freq for t in dictionary.terms]


class TestColumnStats:
    def test_hand_computed_values(self):
        # 100 docs; columns hit 50, 1, and 10 of them
        dense = np.zeros((100, 3))
        dense[:50, 0] = 1
        dense[0, 1] = 1
        dense[:10, 2] = 1
        stats = column_stats(from_dense(dense))
        assert stats.df.tolist() == [50, 1, 10]
        assert stats.p.tolist() == [0.5, 0.01, 0.1]
        assert stats.variance[0] == 0.25
        assert stats.variance[1] == pytest.approx(0.0099, abs=1e-15)
        assert stats.variance[2] == pytest.approx(0.09, abs=1e-15)

    def test_zero_and_full_columns(self):
        dense = np.zeros((4, 2))
        dense[:, 1] = 1
        stats = column_stats(from_dense(dense))
        assert stats.df[0] == 0 and stats.variance[0] == 0.0
        assert stats.df[1] == 4 and stats.variance[1] == 0.0

    def test_empty_matrix_rejected(self):
        empty = from_rows((), ("a",), ())
        with pytest.raises(StageError, match="^cannot compute column stats of an empty matrix$"):
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
        assert stats.df.tolist() == dense.sum(axis=0).astype(int).tolist()
        for j in range(dense.shape[1]):
            p = dense[:, j].mean()
            assert stats.p[j] == pytest.approx(p, abs=1e-15)
            assert stats.variance[j] == pytest.approx(p * (1 - p), abs=1e-15)


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
        with pytest.raises(StageError, match=r"^no columns with variance >= 0\.25$"):
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
        variance = column_stats(from_dense(dense)).variance.tolist()
        ranked = sorted(range(len(variance)), key=lambda j: (-variance[j], j))
        assert kept == tuple(sorted(ranked[:k]))

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

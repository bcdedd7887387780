import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import from_dense, from_rows, reference_exemplars
from lexifactor import (
    FactorLoadings,
    LoadingTable,
    ValidationError,
    attach_labels,
    build_report,
    emit_report,
    exemplar_reviews,
    render_markdown,
    write_loadings_csv,
)


@pytest.fixture()
def table():
    return LoadingTable(
        factors=(
            FactorLoadings(1, (("suite", 0.65), ("ticket", 0.41))),
            FactorLoadings(2, (("noise", -0.52),)),
        ),
        threshold=0.3,
    )


@pytest.fixture()
def matrix():
    #            suite ticket noise
    dense = np.array(
        [
            [1, 1, 0],  # d0: two factor-1 words
            [1, 0, 0],  # d1: one
            [0, 1, 1],  # d2: one factor-1 word, one factor-2 word
            [0, 0, 0],  # d3: nothing
        ],
        dtype=float,
    )
    return from_dense(dense, doc_ids=("d0", "d1", "d2", "d3"), terms=("suite", "ticket", "noise"))


class TestExemplarReviews:
    @given(
        cells=arrays(np.int8, st.tuples(st.integers(1, 80), st.integers(1, 5)), elements=st.integers(0, 1)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_row_scan(self, cells, data):
        n_docs, n_terms = cells.shape
        doc_ids = data.draw(
            st.lists(st.text("abcde", min_size=1, max_size=3), min_size=n_docs, max_size=n_docs, unique=True)
        )
        terms = tuple(f"t{j}" for j in range(n_terms))
        matrix = from_dense(cells, doc_ids=tuple(doc_ids), terms=terms)
        factors = tuple(
            FactorLoadings(factor, tuple((term, 0.5) for term in data.draw(st.sets(st.sampled_from(terms)))))
            for factor in range(1, data.draw(st.integers(1, 3)) + 1)
        )
        table = LoadingTable(factors=factors, threshold=0.3)
        limit = data.draw(st.integers(1, 30))
        assert exemplar_reviews(matrix, table, limit) == reference_exemplars(matrix, table, limit)

    def test_ranked_by_hits_then_id(self, table, matrix):
        exemplars = exemplar_reviews(matrix, table)
        assert exemplars[1] == ("d0", "d1", "d2")
        assert exemplars[2] == ("d2",)

    def test_zero_hit_documents_excluded(self, table, matrix):
        assert "d3" not in exemplars_flat(exemplar_reviews(matrix, table))

    def test_limit(self, table, matrix):
        exemplars = exemplar_reviews(matrix, table, limit=1)
        assert exemplars[1] == ("d0",)

    def test_id_breaks_ties(self, table):
        dense = np.array([[1, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=float)
        matrix = from_dense(dense, doc_ids=("z", "a", "m"), terms=("suite", "ticket", "noise"))
        exemplars = exemplar_reviews(matrix, table)
        # m has two factor-1 words; z and a tie with one and sort by id
        assert exemplars[1] == ("m", "a", "z")

    def test_unknown_term_rejected(self, table):
        matrix = from_rows(("d0",), ("other",), ((0,),))
        with pytest.raises(ValidationError):
            exemplar_reviews(matrix, table)

    def test_limit_validated(self, table, matrix):
        with pytest.raises(ValidationError):
            exemplar_reviews(matrix, table, limit=0)


def exemplars_flat(exemplars):
    return {doc_id for ids in exemplars.values() for doc_id in ids}


class TestLabelsAndRendering:
    def test_markdown_table_row_format(self, table, matrix):
        report = build_report(table, exemplar_reviews(matrix, table))
        report = attach_labels(report, {"1": "Customer Service Automation"})
        rendered = render_markdown(report)
        assert "| 1 | suite (0.65), ticket (0.41) | Customer Service Automation |" in rendered
        assert "| 2 | noise (-0.52) |  |" in rendered
        assert "### Factor 1" in rendered
        assert "- d0" in rendered

    def test_loadings_rounded_to_two_decimals(self):
        table = LoadingTable(
            factors=(FactorLoadings(1, (("suite", 0.654321), ("ticket", -0.405))),),
            threshold=0.3,
        )
        rendered = render_markdown(build_report(table))
        assert "suite (0.65)" in rendered
        assert "ticket (-0.41)" in rendered or "ticket (-0.40)" in rendered

    def test_unknown_label_key_rejected(self, table):
        report = build_report(table)
        with pytest.raises(ValidationError, match="unknown factors"):
            attach_labels(report, {"9": "Whatever"})

    def test_bad_label_values_rejected(self, table):
        report = build_report(table)
        with pytest.raises(ValidationError):
            attach_labels(report, {"1": "  "})
        with pytest.raises(ValidationError):
            attach_labels(report, {"one": "Label"})

    def test_labels_optional(self, table):
        report = build_report(table)
        assert all(section.label is None for section in report.sections)


class TestEmitReport:
    def test_writes_both_renderings(self, tmp_path, table, matrix):
        report = build_report(table, exemplar_reviews(matrix, table))
        report = attach_labels(report, {1: "Customer Service Automation"})
        md = tmp_path / "report.md"
        js = tmp_path / "report.json"
        emit_report(report, md, js)
        assert "| 1 | suite (0.65), ticket (0.41) |" in md.read_text()
        payload = json.loads(js.read_text())
        assert payload["threshold"] == 0.3
        assert payload["factors"][0]["label"] == "Customer Service Automation"
        assert payload["factors"][0]["words"][0] == {"term": "suite", "loading": 0.65}
        assert payload["factors"][0]["exemplars"] == ["d0", "d1", "d2"]

    def test_full_precision_in_json(self, tmp_path):
        table = LoadingTable(
            factors=(FactorLoadings(1, (("suite", 0.6543210987654321),)),), threshold=0.3
        )
        js = tmp_path / "report.json"
        emit_report(build_report(table), tmp_path / "report.md", js)
        payload = json.loads(js.read_text())
        assert payload["factors"][0]["words"][0]["loading"] == 0.6543210987654321


class TestWriteLoadingsCsv:
    def test_rows_and_retained_flags(self, tmp_path, table):
        rotated = np.array([[0.65, 0.1], [0.41, 0.2], [-0.1, -0.52]])
        path = tmp_path / "loadings.csv"
        write_loadings_csv(rotated, ("suite", "ticket", "noise"), table, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["factor", "term", "loading", "retained"]
        assert len(rows) == 1 + 2 * 3
        assert rows[1] == ["1", "suite", "0.65", "true"]
        assert rows[3] == ["1", "noise", "-0.1", "false"]
        assert rows[6] == ["2", "noise", "-0.52", "true"]

    def test_term_count_validated(self, tmp_path, table):
        with pytest.raises(ValidationError):
            write_loadings_csv(np.array([[0.5, 0.5]]), ("a", "b"), table, tmp_path / "x.csv")

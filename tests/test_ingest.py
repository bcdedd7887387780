import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifactor import (
    ParseError,
    Review,
    ValidationError,
    load_reviews,
    tokenize,
)
from lexifactor.cli import main


class TestTokenize:
    def test_basic_splitting(self):
        assert tokenize("The API crashed twice!") == ["the", "api", "crashed", "twice"]

    def test_digits_and_punctuation_separate(self):
        assert tokenize("v2.0-beta_3 rocks") == ["v", "beta", "rocks"]

    def test_apostrophes_split(self):
        assert tokenize("don't") == ["don", "t"]

    def test_non_ascii_letters_separate(self):
        # accented characters are separators, not token members
        assert tokenize("naïve café") == ["na", "ve", "caf"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("123 !!! \t\n") == []

    @given(st.text(max_size=300))
    def test_tokens_are_lowercase_letter_runs(self, text):
        tokens = tokenize(text)
        for token in tokens:
            assert token
            assert all("a" <= ch <= "z" for ch in token)
            assert token in text.lower()

    @given(st.lists(st.text(alphabet="abcdefghij", min_size=1, max_size=8), max_size=20))
    def test_round_trip_on_clean_words(self, words):
        assert tokenize(" ".join(words)) == words


class TestLoadJsonl:
    def write(self, tmp_path, lines):
        path = tmp_path / "reviews.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_reads_records_in_order(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps({"id": "a", "source": "g2", "text": "great suite"}),
                json.dumps({"id": "b", "source": "trustpilot", "text": ""}),
            ],
        )
        reviews = load_reviews(path, "jsonl")
        assert reviews == [
            Review(id="a", source="g2", text="great suite"),
            Review(id="b", source="trustpilot", text=""),
        ]

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "source": "s", "text": "t"}', "", "   "])
        assert len(load_reviews(path, "jsonl")) == 1

    def test_extra_fields_tolerated(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "source": "s", "text": "t", "stars": 5}'])
        assert load_reviews(path, "jsonl")[0].id == "a"

    def test_duplicate_id_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                '{"id": "a", "source": "s", "text": "x"}',
                '{"id": "a", "source": "s", "text": "y"}',
            ],
        )
        with pytest.raises(ParseError, match="duplicate review id: 'a'$") as err:
            load_reviews(path, "jsonl")
        assert err.value.path == str(path) and err.value.line is None

    def test_missing_field_reports_line(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"id": "a", "source": "s", "text": "x"}', '{"id": "b", "source": "s"}'],
        )
        with pytest.raises(ParseError, match="missing field 'text'$") as err:
            load_reviews(path, "jsonl")
        assert err.value.line == 2

    def test_non_string_field_rejected(self, tmp_path):
        path = self.write(tmp_path, ['{"id": 7, "source": "s", "text": "x"}'])
        with pytest.raises(ParseError, match="field 'id' must be a string, got int$"):
            load_reviews(path, "jsonl")

    def test_invalid_json_reports_line(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "source": "s", "text": "x"}', "{nope"])
        with pytest.raises(ParseError) as err:
            load_reviews(path, "jsonl")
        assert err.value.line == 2

    def test_non_object_line_rejected(self, tmp_path):
        path = self.write(tmp_path, ['["not", "an", "object"]'])
        with pytest.raises(ParseError, match="line is not a JSON object$"):
            load_reviews(path, "jsonl")

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"id": "a", "source": "s", "text": "x"}\n')
        assert load_reviews(path, "jsonl")[0].id == "a"


class TestLoadCsv:
    def test_rfc4180_quoting(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text(
            'id,source,text\n'
            'a,g2,"liked the suite, a lot"\n'
            'b,ph,"she said ""wow""\nacross two lines"\n',
            encoding="utf-8",
        )
        reviews = load_reviews(path, "csv")
        assert reviews[0].text == "liked the suite, a lot"
        assert reviews[1].text == 'she said "wow"\nacross two lines'

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text("id,text,source\na,x,s\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            load_reviews(path, "csv")

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text("id,source,text\na,s,x\nb,s\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_reviews(path, "csv")
        assert err.value.line == 3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            load_reviews(path, "csv")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text("id,source,text\na,s,x\na,s,y\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate review id: 'a'$") as err:
            load_reviews(path, "csv")
        assert err.value.path == str(path)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "reviews.xml"
    path.write_text("<reviews/>", encoding="utf-8")
    with pytest.raises(ValidationError, match="format"):
        load_reviews(path, "xml")


# Any text a UTF-8 file can hold, with the characters that CSV quoting,
# JSON escaping and line splitting treat specially drawn often.
_FIELD = st.text(
    alphabet=st.one_of(
        st.characters(codec="utf-8"),
        st.sampled_from(list(',"\'\n\r\t\x00\x85\ufeff\u2028')),
    ),
    max_size=30,
)


class TestIngestRoundTrip:
    @given(
        records=st.lists(st.tuples(_FIELD, _FIELD, _FIELD), max_size=8, unique_by=lambda r: r[0]),
        ensure_ascii=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_jsonl_and_csv_inputs_round_trip(self, records, ensure_ascii):
        """``ingest`` of the same records as JSONL or CSV writes one
        ``reviews.jsonl`` that loads back as those records, and ingesting
        that file again writes the same bytes."""
        reviews = [Review(id=i, source=source, text=text) for i, source, text in records]
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            lines = [
                json.dumps({"id": r.id, "source": r.source, "text": r.text}, ensure_ascii=ensure_ascii)
                for r in reviews
            ]
            (root / "in.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            with open(root / "in.csv", "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["id", "source", "text"])
                writer.writerows(records)

            written = []
            for i, (source, fmt) in enumerate(
                [(root / "in.jsonl", "jsonl"), (root / "in.csv", "csv"), (root / "out0" / "reviews.jsonl", "jsonl")]
            ):
                out = root / f"out{i}"
                assert main(["ingest", "--input", str(source), "--format", fmt, "--output-dir", str(out)]) == 0
                assert load_reviews(out / "reviews.jsonl", "jsonl") == reviews
                written.append((out / "reviews.jsonl").read_bytes())
            assert written[0] == written[1] == written[2]

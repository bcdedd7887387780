import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import from_dense, from_rows, random_binary, reference_read_entries, rows_of
from lexifactor import (
    ParseError,
    read_matrix_market,
    write_matrix_market,
)
from lexifactor.mmio import read_matrix_size


@pytest.fixture()
def tiny():
    return from_rows(("d1", "d2"), ("a", "b"), ((0, 1), (1,)))


class TestWrite:
    def test_exact_bytes(self, tmp_path, tiny):
        path = tmp_path / "m.mtx"
        write_matrix_market(tiny, path)
        assert path.read_text() == (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 3\n"
            "1 1\n"
            "1 2\n"
            "2 2\n"
        )
        assert (tmp_path / "m.terms.txt").read_text() == "a\nb\n"
        assert (tmp_path / "m.docs.txt").read_text() == "d1\nd2\n"

    def test_writes_are_deterministic(self, tmp_path, tiny):
        write_matrix_market(tiny, tmp_path / "x.mtx")
        write_matrix_market(tiny, tmp_path / "y.mtx")
        assert (tmp_path / "x.mtx").read_bytes() == (tmp_path / "y.mtx").read_bytes()


class TestRoundTrip:
    def test_random_matrices(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(10):
            dense = random_binary(rng, int(rng.integers(1, 30)), int(rng.integers(1, 15)))
            matrix = from_dense(dense)
            path = tmp_path / f"m{trial}.mtx"
            write_matrix_market(matrix, path)
            assert read_matrix_market(path) == matrix

    def test_empty_rows_preserved(self, tmp_path):
        matrix = from_rows(("a", "b"), ("t",), ((), (0,)))
        path = tmp_path / "m.mtx"
        write_matrix_market(matrix, path)
        assert read_matrix_market(path) == matrix

    def test_unsorted_entries_tolerated(self, tmp_path, tiny):
        path = tmp_path / "m.mtx"
        write_matrix_market(tiny, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1], *reversed(lines[2:])]) + "\n")
        assert read_matrix_market(path) == tiny


class TestReadErrors:
    def write(self, tmp_path, tiny, body):
        path = tmp_path / "m.mtx"
        write_matrix_market(tiny, path)
        path.write_text(body)
        return path

    def test_bad_header(self, tmp_path, tiny):
        path = self.write(
            tmp_path, tiny, "%%MatrixMarket matrix coordinate real general\n2 2 0\n"
        )
        with pytest.raises(ParseError, match="header"):
            read_matrix_market(path)

    def test_entry_out_of_range(self, tmp_path, tiny):
        path = self.write(
            tmp_path,
            tiny,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
        )
        with pytest.raises(ParseError, match="outside"):
            read_matrix_market(path)

    def test_duplicate_entry(self, tmp_path, tiny):
        path = self.write(
            tmp_path,
            tiny,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n1 1\n",
        )
        with pytest.raises(ParseError, match="duplicate"):
            read_matrix_market(path)

    def test_nnz_mismatch(self, tmp_path, tiny):
        path = self.write(
            tmp_path,
            tiny,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 1\n",
        )
        with pytest.raises(ParseError, match="declares 5"):
            read_matrix_market(path)

    def test_dimension_mismatch_with_sidecar(self, tmp_path, tiny):
        path = self.write(
            tmp_path,
            tiny,
            "%%MatrixMarket matrix coordinate pattern general\n3 2 0\n",
        )
        with pytest.raises(ParseError, match="sidecar"):
            read_matrix_market(path)

    def test_missing_sidecar(self, tmp_path, tiny):
        path = tmp_path / "m.mtx"
        write_matrix_market(tiny, path)
        (tmp_path / "m.terms.txt").unlink()
        with pytest.raises(ParseError, match="sidecar"):
            read_matrix_market(path)

    def test_malformed_entry(self, tmp_path, tiny):
        path = self.write(
            tmp_path,
            tiny,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 x\n",
        )
        with pytest.raises(ParseError, match="malformed entry"):
            read_matrix_market(path)


_HEADER = "%%MatrixMarket matrix coordinate pattern general\n"
_FILLER_LINES = st.sampled_from(["% note\n", "%\n", "\n", "   \n", "\t\n"])


@st.composite
def csr_matrices(draw):
    """Random matrices, empty rows, empty columns and no entries included."""
    n_docs = draw(st.integers(0, 8))
    n_terms = draw(st.integers(0, 6))
    rows = [
        sorted(draw(st.sets(st.integers(0, n_terms - 1)))) if n_terms else []
        for _ in range(n_docs)
    ]
    return from_rows([f"d{i}" for i in range(n_docs)], [f"t{j}" for j in range(n_terms)], rows)


class TestReadSize:
    def test_size_line_after_comments_without_reading_entries(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate pattern general\r\n% note\r\n\r\n3 7 2\r\nnot an entry\r\n"
        )
        assert read_matrix_size(path) == (3, 7, 2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("%%MatrixMarket matrix array real general\n1 1 0\n", "unsupported Matrix Market header"),
            ("%%MatrixMarket matrix coordinate pattern general\n% only\n", "missing size line"),
            ("%%MatrixMarket matrix coordinate pattern general\n1 x 0\n", "malformed size line"),
        ],
    )
    def test_same_errors_as_full_read(self, tmp_path, tiny, text, message):
        path = tmp_path / "m.mtx"
        write_matrix_market(tiny, path)
        path.write_text(text, encoding="utf-8")
        for read in (read_matrix_size, read_matrix_market):
            with pytest.raises(ParseError, match=message):
                read(path)


class TestShuffledRoundTrip:
    @given(matrix=csr_matrices(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_entry_order_with_comments_and_blanks(self, tmp_path_factory, matrix, data):
        directory = tmp_path_factory.mktemp("roundtrip")
        path = directory / "m.mtx"
        write_matrix_market(matrix, path)
        written = path.read_bytes()
        header, size_line, *entries = written.decode().splitlines(keepends=True)
        entries = data.draw(st.permutations(entries))
        gaps = data.draw(
            st.lists(st.lists(_FILLER_LINES, max_size=2), min_size=len(entries) + 2,
                     max_size=len(entries) + 2)
        )
        lines = [header, *gaps[0], size_line]
        for entry, gap in zip(entries, gaps[1:]):
            lines += [entry, *gap]
        lines += gaps[-1]
        path.write_bytes("".join(lines).encode())

        read = read_matrix_market(path)
        assert read == matrix
        write_matrix_market(read, directory / "again.mtx")
        assert (directory / "again.mtx").read_bytes() == written


class TestReadErrorTable:
    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("2 2 1\n1 x\n", 3, "malformed entry: '1 x'"),
            ("2 2 1\n1.0 2\n", 3, "malformed entry: '1.0 2'"),
            ("2 2 1\n1\n", 3, "malformed entry: '1'"),
            ("2 2 1\n1 2 2\n", 3, "malformed entry: '1 2 2'"),
            ("2 2 1\n1 2 % note\n", 3, "malformed entry: '1 2 % note'"),
            ("2 2 1\n0 1\n", 3, "entry (0, 1) outside 2x2"),
            ("2 2 1\n1 0\n", 3, "entry (1, 0) outside 2x2"),
            ("2 2 1\n-1 2\n", 3, "entry (-1, 2) outside 2x2"),
            ("2 2 1\n1 -2\n", 3, "entry (1, -2) outside 2x2"),
            ("2 2 3\n1 1\n2 2\n1 1\n", 5, "duplicate entry (1, 1)"),
            ("2 2 4\n1 1\n2 2\n2 2\n1 1\n", 5, "duplicate entry (2, 2)"),
            ("2 2 3\n1 1\n2 2\n", None, "size line declares 3 entries, file has 2"),
            # The earliest offending line wins, whatever its kind.
            ("2 2 3\n1 1\n3 1\n1 x\n", 4, "entry (3, 1) outside 2x2"),
            ("2 2 3\n1 1\n1 1\n3 1\n", 4, "duplicate entry (1, 1)"),
        ],
    )
    def test_parse_error(self, tmp_path, tiny, body, line, message):
        path = tmp_path / "m.mtx"
        write_matrix_market(tiny, path)
        path.write_bytes((_HEADER + body).encode())
        with pytest.raises(ParseError) as caught:
            read_matrix_market(path)
        assert caught.value.line == line
        location = f"{path}:{line}" if line else f"{path}"
        assert str(caught.value) == f"{location}: {message}"


_INDEX = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "+", "-", "0", "-+"]),
    st.sampled_from(["", "0", "1", "2", "3", "4"]),
    st.sampled_from(["", "", "", "-", "x"]),
)
_NEAR_ENTRY = st.builds(
    "{}{}{}{}{}\n".format,
    st.sampled_from(["", " ", "\t"]),
    _INDEX,
    st.sampled_from([" ", "  ", "\t", "\x0b", "\x1c"]),
    _INDEX,
    st.sampled_from(["", " ", "\r", "\x0c"]),
)
_JUNK_LINE = st.text(alphabet="0123456789 \t\r%+-.x\x0b\x1c", max_size=8).map(lambda t: t + "\n")


class TestReaderMatchesReference:
    @given(
        size_line=st.one_of(st.builds("3 3 {}\n".format, st.integers(0, 6)), _JUNK_LINE),
        lines=st.lists(st.one_of(_NEAR_ENTRY, _NEAR_ENTRY, _FILLER_LINES, _JUNK_LINE), max_size=8),
        unterminated=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_matrix_or_same_error(self, tmp_path_factory, size_line, lines, unterminated):
        path = tmp_path_factory.mktemp("reference") / "m.mtx"
        write_matrix_market(from_rows(["a", "b", "c"], ["x", "y", "z"], [(), (), ()]), path)
        text = _HEADER + size_line + "".join(lines)
        if unterminated:
            text = text.removesuffix("\n")
        path.write_bytes(text.encode())

        def outcome(read):
            try:
                return "ok", read(path)
            except ParseError as exc:
                return "error", str(exc)

        assert outcome(lambda p: rows_of(read_matrix_market(p))) == outcome(
            lambda p: reference_read_entries(p, 3, 3)
        )

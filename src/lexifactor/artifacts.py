"""The output directory's bookkeeping, in the standard library alone.

This module holds the stage names and the artifacts each stage writes,
the sorted-key JSON encoder, checksums, the run manifest and
:func:`cmd_verify`, with the records of every format ``verify`` reads:
the loading table, the term dictionary and the Matrix Market header and
size line. The numeric layers import these formats from here, so each
is written and parsed in one place, and ``verify`` and ``--version``
start without loading NumPy or the pipeline's stages.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator

from . import STAGES
from .atomic import atomic_open
from .config import PipelineConfig
from .errors import ParseError, StageError, named_decode_errors

STAGE_ARTIFACTS = {
    "ingest": ("reviews.jsonl",),
    "dict": ("dictionary.json",),
    "matrix": (
        "matrix.mtx",
        "matrix.terms.txt",
        "matrix.docs.txt",
        "filtered.mtx",
        "filtered.terms.txt",
        "filtered.docs.txt",
        "filter_report.json",
    ),
    "efa": ("model.json", "loading_table.json", "loadings.csv"),
    "report": ("report.md", "report.json"),
}

MANIFEST_NAME = "manifest.json"

MATRIX_MARKET_HEADER = "%%MatrixMarket matrix coordinate pattern general"

# A sense is one synset of one part of speech, e.g. ("noun", 2084442).
SenseId = tuple[str, int]


# ---------------------------------------------------------------------------
# JSON and checksums


def _write_json(path: Path, payload: Any) -> None:
    """``payload`` as indented JSON with sorted keys, crash-safely, written
    a piece at a time so the whole text is never held at once."""
    with atomic_open(path) as handle:
        handle.writelines(_json_chunks(payload))
        handle.write("\n")


def _json_chunks(value: Any, indent: str = "") -> Iterator[str]:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True,
    ensure_ascii=False)`` writes it, nested at ``indent``, in pieces; dict
    keys must be strings. A list of floats, such as a row of loadings, is
    joined in one call instead of going item by item through the
    pure-Python encoder that ``json.dumps`` uses when it indents."""
    if isinstance(value, str):
        yield encode_basestring(value)
        return
    if not isinstance(value, (dict, list, tuple)):
        yield json.dumps(value)  # a number, a bool or None
        return
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    if not value:
        yield opening + closing
        return
    inner = indent + "  "
    if isinstance(value, dict):
        items = ((f"{encode_basestring(key)}: ", value[key]) for key in sorted(value))
    else:
        try:
            text = (",\n" + inner).join(map(float.__repr__, value))
        except TypeError:  # an item is no float
            items = (("", item) for item in value)
        else:
            # Only the reprs nan, inf and -inf hold an "n".
            if "n" in text:
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            yield f"{opening}\n{inner}{text}\n{indent}{closing}"
            return
    separator = opening + "\n" + inner
    for prefix, item in items:
        yield separator + prefix
        yield from _json_chunks(item, inner)
        separator = ",\n" + inner
    yield f"\n{indent}{closing}"


def _read_json(path: Path) -> Any:
    with named_decode_errors(path), open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=exc.lineno) from exc


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# loading_table.json


@dataclass(frozen=True)
class FactorLoadings:
    """One factor's retained terms, ordered by descending |loading|."""

    factor: int  # 1-based
    entries: tuple[tuple[str, float], ...]

    @property
    def top_value(self) -> float:
        """Strength of the factor's best word; -1.0 when nothing survived."""
        return abs(self.entries[0][1]) if self.entries else -1.0


@dataclass
class LoadingTable:
    factors: tuple[FactorLoadings, ...]
    threshold: float


def table_payload(table: LoadingTable) -> dict:
    return {
        "threshold": table.threshold,
        "factors": [
            {"factor": factor.factor, "entries": [[term, value] for term, value in factor.entries]}
            for factor in table.factors
        ],
    }


def table_from_payload(payload: dict, path: str | Path) -> LoadingTable:
    """The table that ``payload``, read from ``path``, holds."""
    try:
        factors = tuple(
            FactorLoadings(
                factor=int(record["factor"]),
                entries=tuple((term, float(value)) for term, value in record["entries"]),
            )
            for record in payload["factors"]
        )
        _strings([term for factor in factors for term, _ in factor.entries])
        return LoadingTable(factors=factors, threshold=float(payload["threshold"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed loading table payload: {exc}", path=str(path)) from exc


# ---------------------------------------------------------------------------
# dictionary.json


@dataclass(frozen=True, slots=True)
class TermProvenance:
    """Why a term entered the dictionary: pos, claimed senses, frequency,
    and the sorted surface tokens of the corpus that lemmatize to it."""

    pos: str
    sense_ids: tuple[SenseId, ...]
    doc_freq: int
    forms: tuple[str, ...] = ()


@dataclass
class TermDictionary:
    """Ordered term list with a reverse index and per-term provenance."""

    terms: tuple[str, ...]
    index: dict[str, int]
    provenance: dict[str, TermProvenance]

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def forms(self) -> list[tuple[str, ...]]:
        """Each term's recorded surface forms, in column order."""
        return [self.provenance[term].forms for term in self.terms]

    def json_lines(self) -> Iterator[str]:
        """``dictionary.json``, the payload :meth:`TermColumns.from_json_dict`
        reads, a line at a time: one line per term, each the record as
        ``json.dumps(record, sort_keys=True, ensure_ascii=False)`` writes
        it, built from one template instead of through the encoder."""
        if not self.terms:
            yield '{"terms": []}\n'
            return
        separator = '{"terms": [\n'
        for term in self.terms:
            entry = self.provenance[term]
            forms = ", ".join(map(encode_basestring, entry.forms))
            senses = ", ".join([f"[{encode_basestring(pos)}, {offset}]" for pos, offset in entry.sense_ids])
            yield (
                f'{separator}{{"doc_freq": {entry.doc_freq}, "forms": [{forms}], '
                f'"pos": {encode_basestring(entry.pos)}, "sense_ids": [{senses}], '
                f'"term": {encode_basestring(term)}}}'
            )
            separator = ",\n"
        yield "\n]}\n"

    @staticmethod
    def count_json_terms(data: bytes) -> int:
        """Terms in ``dictionary.json`` bytes from :meth:`json_lines`,
        counted without decoding: each record starts a line with ``{``,
        and no JSON string holds a raw newline."""
        return data.count(b"\n{")


@dataclass(frozen=True)
class TermColumns:
    """What the matrix stage takes of a dictionary: the terms in column
    order, each term's column, and each term's recorded surface forms.
    The forms are ``None`` where the dict stage's lexical pass is handed
    along with the columns, so the matrix needs no lookup by form."""

    terms: tuple[str, ...]
    index: dict[str, int]
    forms: tuple[tuple[str, ...], ...] | None = None

    @classmethod
    def from_json_dict(cls, payload: dict, path: str | Path) -> "TermColumns":
        """The terms and forms that ``payload``, read from ``path``,
        holds: distinct string terms, each with a list of string forms.
        No other field of a record is read or checked."""
        try:
            records = payload["terms"]
            terms = tuple(term for record in records for term in _strings([record["term"]]))
            forms = tuple(_strings(record["forms"]) for record in records)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed dictionary payload: {exc}", path=str(path)) from exc
        index = {term: i for i, term in enumerate(terms)}
        if len(index) < len(terms):
            repeated = next(term for i, term in enumerate(terms) if index[term] != i)
            raise ParseError(f"term {repeated!r} is listed twice", path=str(path))
        return cls(terms=terms, index=index, forms=forms)


def _strings(value: Any) -> tuple[str, ...]:
    """``value``, a list of strings, as a tuple; anything else is a TypeError."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return tuple(value)


# ---------------------------------------------------------------------------
# Matrix Market header and size line


def read_matrix_size(mtx_path: str | Path) -> tuple[int, int, int]:
    """The rows, columns and entries that the size line of ``mtx_path``
    declares. The header is checked; sidecars and entries are not read."""
    with open(mtx_path, encoding="utf-8", errors="replace") as handle:
        return _parse_size(handle, str(mtx_path))[:3]


def _parse_size(lines: Iterable[str], path: str) -> tuple[int, int, int, int]:
    """Check the header line and parse the size line, which may follow
    ``%`` comment and blank lines. Returns rows, columns, entries and the
    size line's line number."""
    lines = iter(lines)
    header = next(lines, "").rstrip("\n")
    if header.split() != MATRIX_MARKET_HEADER.split():
        raise ParseError(f"unsupported Matrix Market header: {header!r}", path=path, line=1)
    for lineno, size_line in enumerate(lines, start=2):
        if not size_line.startswith("%") and size_line.strip():
            break
    else:
        raise ParseError("missing size line", path=path)
    try:
        n_docs, n_terms, nnz = (int(x) for x in size_line.split())
    except ValueError as exc:
        raise ParseError(f"malformed size line: {size_line!r}", path=path, line=lineno) from exc
    return n_docs, n_terms, nnz, lineno


# ---------------------------------------------------------------------------
# the manifest and verify


def _require_artifact(path: Path) -> Path:
    if not path.is_file():
        raise StageError(f"missing required artifact: {path}")
    return path


def _read_manifest(path: Path) -> dict:
    """The manifest at ``path``: an object whose ``stages`` map each
    recorded stage to its ``artifacts`` and ``counts`` objects."""
    manifest = _read_json(path)
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("artifacts"), dict)
        and isinstance(entry.get("counts"), dict)
        for entry in stages.values()
    ):
        raise ParseError("not a run manifest: stages must map to artifacts and counts objects", path=str(path))
    return manifest


def cmd_verify(config: PipelineConfig) -> list[str]:
    """Check manifest checksums, lineage and basic cross-artifact consistency.

    Lineage: every recorded stage's upstream stage is recorded too, and
    no artifact of an unrecorded stage is left in the directory. Returns
    a list of problems; empty means the output directory is internally
    consistent.
    """
    stages = _read_manifest(_require_artifact(config.out / MANIFEST_NAME))["stages"]
    problems: list[str] = []

    for stage, entry in stages.items():
        for name, recorded in entry["artifacts"].items():
            path = config.out / name
            if not path.is_file():
                problems.append(f"{stage}: missing artifact {name}")
            elif _sha256(path) != recorded:
                problems.append(f"{stage}: checksum mismatch for {name}")
    for upstream, stage in zip(STAGES, STAGES[1:]):
        if stage in stages and upstream not in stages:
            problems.append(f"{stage}: upstream stage {upstream} is not recorded")
    for stage in STAGES:
        if stage not in stages:
            for name in STAGE_ARTIFACTS[stage]:
                if (config.out / name).is_file():
                    problems.append(f"{stage}: stale artifact {name}, stage not recorded")

    def _count(stage: str, key: str) -> int | None:
        return stages.get(stage, {}).get("counts", {}).get(key)

    reviews_path = config.out / "reviews.jsonl"
    expected = _count("ingest", "reviews")
    if expected is not None and reviews_path.is_file():
        with named_decode_errors(reviews_path), open(reviews_path, encoding="utf-8") as handle:
            actual = sum(1 for line in handle if line.strip())
        if actual != expected:
            problems.append(f"ingest: manifest says {expected} reviews, file has {actual}")

    dict_path = config.out / "dictionary.json"
    expected = _count("dict", "terms")
    if expected is not None and dict_path.is_file():
        actual = TermDictionary.count_json_terms(dict_path.read_bytes())
        if actual != expected:
            problems.append(f"dict: manifest says {expected} terms, file lists {actual}")

    filtered_path = config.out / "filtered.mtx"
    expected = _count("matrix", "kept_columns")
    if expected is not None and filtered_path.is_file():
        _, n_terms, _ = read_matrix_size(filtered_path)
        if n_terms != expected:
            problems.append(f"matrix: manifest says {expected} kept columns, matrix has {n_terms}")

    table_path = config.out / "loading_table.json"
    expected = _count("efa", "factors_retained")
    if expected is not None and table_path.is_file():
        actual = len(table_from_payload(_read_json(table_path), table_path).factors)
        if actual != expected:
            problems.append(f"efa: manifest says {expected} factors, table lists {actual}")

    return problems

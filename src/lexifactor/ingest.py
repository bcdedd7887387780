"""Review ingestion and tokenization.

Reviews arrive either as JSON Lines (one object per line with ``id``,
``source`` and ``text`` fields) or as RFC-4180 CSV with an
``id,source,text`` header. Tokenization is deliberately blunt: the text
is lowercased and every maximal run of ASCII letters becomes a token,
so digits, punctuation, and accented characters all act as separators.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError, named_decode_errors

# A token is a lowercase run of ASCII letters.
Token = str

_TOKEN_RE = re.compile(r"[a-z]+")

_REQUIRED_FIELDS = ("id", "source", "text")


@dataclass(frozen=True, slots=True)
class Review:
    """One review record: a stable id, its originating platform, raw text."""

    id: str
    source: str
    text: str


def tokenize(text: str) -> list[Token]:
    """Lowercase ``text`` and return maximal runs of ASCII letters."""
    return _TOKEN_RE.findall(text.lower())


def load_reviews(path: str | Path, format: str = "jsonl") -> list[Review]:
    """Read a review corpus from ``path``.

    ``format`` selects the parser: ``"jsonl"`` or ``"csv"``. Review ids
    must be unique within the file; a repeat raises a :class:`ParseError`
    that names the file.
    """
    if format == "jsonl":
        reviews = _load_jsonl(Path(path))
    elif format == "csv":
        reviews = _load_csv(Path(path))
    else:
        raise ValidationError(f"unknown review format: {format!r} (expected 'jsonl' or 'csv')")
    seen: set[str] = set()
    for review in reviews:
        if review.id in seen:
            raise ParseError(f"duplicate review id: {review.id!r}", path=str(path))
        seen.add(review.id)
    return reviews


def _require_str(record: dict, field: str, *, path: str, line: int) -> str:
    try:
        value = record[field]
    except KeyError:
        raise ParseError(f"missing field {field!r}", path=path, line=line) from None
    if not isinstance(value, str):
        raise ParseError(
            f"field {field!r} must be a string, got {type(value).__name__}",
            path=path,
            line=line,
        )
    return value


def _load_jsonl(path: Path) -> list[Review]:
    reviews: list[Review] = []
    with named_decode_errors(path), open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=lineno) from exc
            if not isinstance(record, dict):
                raise ParseError("line is not a JSON object", path=str(path), line=lineno)
            fields = {name: _require_str(record, name, path=str(path), line=lineno) for name in _REQUIRED_FIELDS}
            reviews.append(Review(**fields))
    return reviews


def _load_csv(path: Path) -> list[Review]:
    reviews: list[Review] = []
    with named_decode_errors(path), open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty CSV file", path=str(path)) from None
        if header != list(_REQUIRED_FIELDS):
            raise ParseError(
                f"bad CSV header {header!r}, expected {list(_REQUIRED_FIELDS)!r}",
                path=str(path),
                line=1,
            )
        for row in reader:
            if len(row) != len(_REQUIRED_FIELDS):
                raise ParseError(
                    f"expected {len(_REQUIRED_FIELDS)} fields, got {len(row)}",
                    path=str(path),
                    line=reader.line_num,
                )
            reviews.append(Review(id=row[0], source=row[1], text=row[2]))
    return reviews

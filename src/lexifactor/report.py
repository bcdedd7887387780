"""Human-facing outputs: factor report (markdown + JSON) and loadings CSV.

A report section is one retained factor: its surviving words with
loadings, an optional analyst label, and exemplar reviews. Exemplars
are the reviews mentioning the most distinct factor words, strongest
first, ties broken by review id.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from .artifacts import LoadingTable
from .atomic import atomic_open, write_text
from .errors import ValidationError
from .matrix import DocTermMatrix


@dataclass(frozen=True)
class FactorSection:
    factor: int  # 1-based id from the loading table
    label: str | None
    entries: tuple[tuple[str, float], ...]
    exemplars: tuple[str, ...]


@dataclass
class FactorReport:
    sections: tuple[FactorSection, ...]
    threshold: float


def exemplar_reviews(
    matrix: DocTermMatrix, table: LoadingTable, limit: int = 20
) -> dict[int, tuple[str, ...]]:
    """Top reviews per factor: most distinct factor words, then id order.

    Reviews mentioning no factor word never appear. Returns factor id to
    review ids, at most ``limit`` each.
    """
    if limit < 1:
        raise ValidationError(f"limit must be positive, got {limit}")
    index = {term: i for i, term in enumerate(matrix.terms)}
    rows = matrix.row_of_entry()
    # Rows in review id order; a stable sort on hits then keeps id order
    # among equal hit counts.
    by_id = np.array(sorted(range(matrix.n_docs), key=matrix.doc_ids.__getitem__), dtype=np.int64)
    exemplars: dict[int, tuple[str, ...]] = {}
    for factor in table.factors:
        is_factor_column = np.zeros(matrix.n_terms, dtype=bool)
        for term, _ in factor.entries:
            if term not in index:
                raise ValidationError(f"factor {factor.factor} term {term!r} not a matrix column")
            is_factor_column[index[term]] = True
        hits = np.bincount(rows[is_factor_column[matrix.indices]], minlength=matrix.n_docs)[by_id]
        top = np.argsort(-hits, kind="stable")[: min(limit, np.count_nonzero(hits))]
        exemplars[factor.factor] = tuple(matrix.doc_ids[i] for i in by_id[top].tolist())
    return exemplars


def build_report(
    table: LoadingTable,
    exemplars: Mapping[int, tuple[str, ...]] | None = None,
) -> FactorReport:
    exemplars = exemplars or {}
    sections = tuple(
        FactorSection(
            factor=factor.factor,
            label=None,
            entries=factor.entries,
            exemplars=tuple(exemplars.get(factor.factor, ())),
        )
        for factor in table.factors
    )
    return FactorReport(sections=sections, threshold=table.threshold)


def check_labels(labels: object) -> dict[int, str]:
    """Analyst labels as factor id to stripped label. ``labels`` must map
    factor ids (ints, or strings of them as JSON keys are) to non-empty
    strings; :func:`attach_labels` checks that the ids name factors."""
    if not isinstance(labels, Mapping):
        raise ValidationError("label file must be a JSON object of factor id to label")
    normalized: dict[int, str] = {}
    for key, label in labels.items():
        try:
            factor_id = int(key)
        except (TypeError, ValueError):
            raise ValidationError(f"label key {key!r} is not a factor id") from None
        if not isinstance(label, str) or not label.strip():
            raise ValidationError(f"label for factor {factor_id} must be a non-empty string")
        normalized[factor_id] = label.strip()
    return normalized


def attach_labels(report: FactorReport, labels: Mapping[int | str, str]) -> FactorReport:
    """Return a copy of the report with analyst labels filled in, each
    key naming a factor present in the report (see :func:`check_labels`)."""
    normalized = check_labels(labels)
    known = {section.factor for section in report.sections}
    unknown = sorted(set(normalized) - known)
    if unknown:
        raise ValidationError(f"labels reference unknown factors: {unknown}")
    sections = tuple(
        replace(section, label=normalized.get(section.factor, section.label))
        for section in report.sections
    )
    return FactorReport(sections=sections, threshold=report.threshold)


def _format_entries(entries: tuple[tuple[str, float], ...]) -> str:
    return ", ".join(f"{term} ({loading:.2f})" for term, loading in entries)


def render_markdown(report: FactorReport) -> str:
    """Markdown report: one table row per factor, then exemplar lists."""
    lines = [
        "# Factor report",
        "",
        f"Loadings below {report.threshold:g} in absolute value were discarded.",
        "",
        "| Factor | Words (loading) | Label |",
        "| --- | --- | --- |",
    ]
    for section in report.sections:
        words = _format_entries(section.entries)
        label = section.label or ""
        lines.append(f"| {section.factor} | {words} | {label} |")
    lines += ["", "## Exemplar reviews", ""]
    for section in report.sections:
        lines.append(f"### Factor {section.factor}")
        lines.append("")
        if section.exemplars:
            lines.extend(f"- {doc_id}" for doc_id in section.exemplars)
        else:
            lines.append("(no exemplars)")
        lines.append("")
    return "\n".join(lines)


def report_payload(report: FactorReport) -> dict:
    return {
        "threshold": report.threshold,
        "factors": [
            {
                "factor": section.factor,
                "label": section.label,
                "words": [
                    {"term": term, "loading": loading} for term, loading in section.entries
                ],
                "exemplars": list(section.exemplars),
            }
            for section in report.sections
        ],
    }


def emit_report(report: FactorReport, md_path: str | Path, json_path: str | Path) -> None:
    """Write the markdown and JSON renderings of the report, each
    crash-safely (see :mod:`lexifactor.atomic`)."""
    write_text(md_path, render_markdown(report))
    write_text(json_path, json.dumps(report_payload(report), indent=2, ensure_ascii=False) + "\n")


def write_loadings_csv(
    rotated: np.ndarray,
    terms: tuple[str, ...],
    table: LoadingTable,
    path: str | Path,
) -> None:
    """The full p x k rotated loading matrix (``VarimaxResult.loadings``)
    as CSV, one row per factor and term, with a retained flag.

    A row is retained when its factor survived refinement and its term
    survived the pruning threshold for that factor. The file is written
    crash-safely (see :mod:`lexifactor.atomic`).
    """
    if len(terms) != rotated.shape[0]:
        raise ValidationError(f"{len(terms)} terms for {rotated.shape[0]} loading rows")
    retained = {factor.factor: {term for term, _ in factor.entries} for factor in table.factors}
    # Each term as csv.writer quotes it inside a row: ``writerow`` returns
    # what the file's ``write`` returns, here the formatted line itself.
    quote_row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    quoted = [quote_row((term, ""))[: -len(",\n")] for term in terms]
    # The other fields need no quoting; csv.writer writes floats as repr.
    # One factor's rows are formatted and written at a time.
    with atomic_open(path) as handle:
        handle.write("factor,term,loading,retained\n")
        for factor, column in enumerate(rotated.T, start=1):
            kept = retained.get(factor, ())
            handle.write("".join([
                f"{factor},{field},{loading!r},{'true' if term in kept else 'false'}\n"
                for term, field, loading in zip(terms, quoted, column.tolist())
            ]))

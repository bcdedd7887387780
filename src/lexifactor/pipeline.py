"""Pipeline stages, artifact persistence, and the run manifest.

Each stage reads its inputs from the output directory (or from the
configured input files) and writes its artifacts back there, so the
full pipeline is literally the five stages run in order. Within one
``pipeline`` command the only thing handed between stages in memory is
the dict stage's token→lemma map, which spares the matrix stage a second
lexicon parse; a stage run on its own rebuilds it. The manifest
records, per stage, artifact checksums and basic counts plus the config
snapshot; timestamps, thread counts, and directory locations stay out
so that reruns yield byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from . import __version__
from .config import PipelineConfig, parse_factor_spec
from .efa import (
    VARIMAX_MAX_SWEEPS,
    VARIMAX_TOL,
    FactorLoadings,
    FactorModel,
    LoadingTable,
    VarimaxResult,
    correlation_matrix,
    eigendecompose,
    extract_uls,
    prune_loadings,
    refine_factors,
    select_factor_count,
    varimax_rotate,
)
from .errors import DependencyError, ParseError, StageError, ValidationError
from .ingest import Token, load_reviews
from .lexicon import TermDictionary, build_dictionary, load_stopwords, parse_lexical_database
from .matrix import build_matrix, column_stats, filter_low_variance
from .mmio import read_matrix_market, read_matrix_size, write_matrix_market
from .report import (
    attach_labels,
    build_report,
    emit_report,
    exemplar_reviews,
    write_loadings_csv,
)

STAGES = ("ingest", "dict", "matrix", "efa", "report")

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
LOCK_NAME = ".lock"

_LOG = logging.getLogger("lexifactor")


# ---------------------------------------------------------------------------
# small shared helpers


def _require_artifact(path: Path) -> Path:
    if not path.is_file():
        raise DependencyError(str(path))
    return path


def _require_input(path: str | None, what: str) -> Path:
    if path is None:
        raise ValidationError(f"{what} is required")
    resolved = Path(path)
    if not resolved.exists():
        raise ValidationError(f"{what} not found: {path}")
    return resolved


def _write_json(path: Path, payload: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, ensure_ascii=False)
        handle.write("\n")


def _read_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
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


@contextmanager
def _run_lock(out: Path) -> Iterator[None]:
    """Advisory lock: refuse to run while another process holds the dir."""
    lock_path = out / LOCK_NAME
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise StageError(f"lock file exists (another run in progress?): {lock_path}") from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        lock_path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# artifact (de)serialization


def model_payload(model: FactorModel, terms: tuple[str, ...], sweeps: int) -> dict:
    return {
        "k": model.k,
        "terms": list(terms),
        "loadings": model.loadings.tolist(),
        "communalities": model.communalities.tolist(),
        "uniquenesses": model.uniquenesses.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "rotation": model.rotation.tolist(),
        "rotated": model.rotated.tolist(),
        "converged": model.converged,
        "n_iter": model.n_iter,
        "heywood": model.heywood,
        "rotation_sweeps": sweeps,
    }


def table_payload(table: LoadingTable) -> dict:
    return {
        "threshold": table.threshold,
        "factors": [
            {"factor": factor.factor, "entries": [[term, value] for term, value in factor.entries]}
            for factor in table.factors
        ],
    }


def table_from_payload(payload: dict) -> LoadingTable:
    try:
        factors = tuple(
            FactorLoadings(
                factor=int(record["factor"]),
                entries=tuple((term, float(value)) for term, value in record["entries"]),
            )
            for record in payload["factors"]
        )
        return LoadingTable(factors=factors, threshold=float(payload["threshold"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed loading table payload: {exc}") from exc


# ---------------------------------------------------------------------------
# stage bodies


@dataclass
class Handoff:
    """State one run hands from stage to stage besides its artifacts.

    ``lemmas`` is the token→lemma map the dict stage filled; the matrix
    stage uses it in place of the lexicon and clears it. Nothing here
    reaches an artifact.
    """

    lemmas: dict[Token, str | None] | None = None


def stage_ingest(config: PipelineConfig, handoff: Handoff) -> dict:
    """Load the input corpus, validate it, and normalize to JSON Lines."""
    source = _require_input(config.input, "input")
    reviews = load_reviews(source, config.format)
    out_path = config.out / "reviews.jsonl"
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        for review in reviews:
            record = {"id": review.id, "source": review.source, "text": review.text}
            handle.write(json.dumps(record, sort_keys=True, ensure_ascii=False))
            handle.write("\n")
    return {"reviews": len(reviews)}


def _load_lexicon(config: PipelineConfig):
    root = _require_input(config.lexicon_dir, "lexicon_dir")
    return parse_lexical_database(root)


def stage_dict(config: PipelineConfig, handoff: Handoff) -> dict:
    """Build the term dictionary from the normalized reviews."""
    reviews = load_reviews(_require_artifact(config.out / "reviews.jsonl"), "jsonl")
    lexicon = _load_lexicon(config)
    stopwords = load_stopwords(config.stopwords)
    # Only the map outlives this stage: keeping the parsed lexicon alive
    # as well would raise the run's peak memory.
    handoff.lemmas = {}
    dictionary = build_dictionary(reviews, lexicon, stopwords, handoff.lemmas)
    _write_json(config.out / "dictionary.json", dictionary.to_json_dict())
    return {"terms": len(dictionary)}


def stage_matrix(config: PipelineConfig, handoff: Handoff) -> dict:
    """Build the document-term matrix and its low-variance filtered view."""
    reviews = load_reviews(_require_artifact(config.out / "reviews.jsonl"), "jsonl")
    dictionary = TermDictionary.from_json_dict(
        _read_json(_require_artifact(config.out / "dictionary.json"))
    )
    lemmas = handoff.lemmas
    handoff.lemmas = None  # freed when this stage ends, before the EFA stage
    matrix = build_matrix(reviews, dictionary, _load_lexicon(config) if lemmas is None else lemmas)
    write_matrix_market(matrix, config.out / "matrix.mtx")

    stats = column_stats(matrix)
    filtered, kept = filter_low_variance(matrix, config.min_variance, stats)
    write_matrix_market(filtered, config.out / "filtered.mtx")
    _write_json(
        config.out / "filter_report.json",
        {
            "min_variance": config.min_variance,
            "columns_before": matrix.n_terms,
            "columns_after": filtered.n_terms,
            "kept_terms": list(filtered.terms),
        },
    )
    return {
        "documents": matrix.n_docs,
        "terms": matrix.n_terms,
        "nonzeros": matrix.nnz(),
        "kept_columns": len(kept),
    }


def stage_efa(config: PipelineConfig, handoff: Handoff) -> dict:
    """Correlate, extract, rotate, prune, and refine factor loadings."""
    filtered = read_matrix_market(_require_artifact(config.out / "filtered.mtx"))
    corr = correlation_matrix(filtered)
    method, fixed_k = parse_factor_spec(config.factors)
    eigenvalues, _ = eigendecompose(corr)
    k = select_factor_count(eigenvalues, method=method, k=fixed_k)
    model = extract_uls(corr, k)
    rotation = varimax_rotate(model.loadings)
    _LOG.info("efa: %s", _solver_summary(model, rotation))
    model.rotation = rotation.rotation
    model.rotated = rotation.loadings
    table = prune_loadings(model, config.threshold, corr.terms)
    refined = refine_factors(table, config.retain)

    _write_json(config.out / "model.json", model_payload(model, corr.terms, rotation.sweeps))
    _write_json(config.out / "loading_table.json", table_payload(refined))
    write_loadings_csv(model, corr.terms, refined, config.out / "loadings.csv")
    return {"factors_extracted": model.k, "factors_retained": len(refined.factors)}


def _solver_summary(model: FactorModel, rotation: VarimaxResult) -> str:
    """What ULS and Varimax did: iterations, convergence, Heywood cases,
    sweeps and the last criterion gain."""
    uls = f"ULS {model.n_iter} iterations, {'converged' if model.converged else 'not converged'}"
    heywood = "Heywood case" if model.heywood else "no Heywood case"
    varimax = f"Varimax {rotation.sweeps} sweeps"
    history = rotation.criterion_history
    if len(history) > 1:
        gain = history[-1] - history[-2]
        if gain < VARIMAX_TOL:
            outcome = "converged"
        elif rotation.sweeps >= VARIMAX_MAX_SWEEPS:
            outcome = "stopped at the sweep cap"
        else:
            outcome = "stopped when a sweep lost ground to roundoff"
        varimax += f", last gain {gain:.3g}, {outcome}"
    return f"{uls}, {heywood}; {varimax}"


def stage_report(config: PipelineConfig, handoff: Handoff) -> dict:
    """Render the retained factors with exemplars and optional labels."""
    table = table_from_payload(_read_json(_require_artifact(config.out / "loading_table.json")))
    filtered = read_matrix_market(_require_artifact(config.out / "filtered.mtx"))
    exemplars = exemplar_reviews(filtered, table, limit=config.exemplars)
    report = build_report(table, exemplars)
    if config.labels is not None:
        labels = _read_json(_require_input(config.labels, "labels"))
        if not isinstance(labels, dict):
            raise ValidationError("label file must be a JSON object of factor id to label")
        report = attach_labels(report, labels)
    emit_report(report, config.out / "report.md", config.out / "report.json")
    return {"factors_reported": len(report.sections)}


STAGE_FUNCS: dict[str, Callable[[PipelineConfig, Handoff], dict]] = {
    "ingest": stage_ingest,
    "dict": stage_dict,
    "matrix": stage_matrix,
    "efa": stage_efa,
    "report": stage_report,
}


# ---------------------------------------------------------------------------
# manifest handling and commands


def _manifest_path(config: PipelineConfig) -> Path:
    return config.out / MANIFEST_NAME


def _fresh_manifest(config: PipelineConfig) -> dict:
    return {"version": __version__, "config": config.snapshot(), "stages": {}}


def _update_manifest(config: PipelineConfig, stage: str, counts: dict) -> None:
    path = _manifest_path(config)
    manifest = _read_json(path) if path.is_file() else _fresh_manifest(config)
    if manifest.get("config") != config.snapshot():
        raise StageError(
            "output directory holds artifacts from a different configuration; "
            "re-run the full pipeline or use a fresh output directory"
        )
    manifest["stages"][stage] = {
        "artifacts": {name: _sha256(config.out / name) for name in STAGE_ARTIFACTS[stage]},
        "counts": counts,
    }
    _write_json(path, manifest)


def cmd_stage(name: str, config: PipelineConfig) -> None:
    """Run one stage and fold its results into the manifest."""
    if name not in STAGE_FUNCS:
        raise ValidationError(f"unknown stage: {name!r}")
    config.out.mkdir(parents=True, exist_ok=True)
    with _run_lock(config.out):
        counts = STAGE_FUNCS[name](config, Handoff())
        _update_manifest(config, name, counts)


def cmd_pipeline(config: PipelineConfig) -> None:
    """Run every stage in order against a fresh manifest."""
    config.out.mkdir(parents=True, exist_ok=True)
    with _run_lock(config.out):
        _manifest_path(config).unlink(missing_ok=True)
        handoff = Handoff()
        for stage in STAGES:
            counts = STAGE_FUNCS[stage](config, handoff)
            _update_manifest(config, stage, counts)


def cmd_verify(config: PipelineConfig) -> list[str]:
    """Check manifest checksums and basic cross-artifact consistency.

    Returns a list of problems; empty means the output directory is
    internally consistent.
    """
    manifest_path = _manifest_path(config)
    if not manifest_path.is_file():
        raise DependencyError(str(manifest_path))
    manifest = _read_json(manifest_path)
    problems: list[str] = []

    stages = manifest.get("stages", {})
    for stage, entry in stages.items():
        for name, recorded in entry.get("artifacts", {}).items():
            path = config.out / name
            if not path.is_file():
                problems.append(f"{stage}: missing artifact {name}")
            elif _sha256(path) != recorded:
                problems.append(f"{stage}: checksum mismatch for {name}")

    def _count(stage: str, key: str) -> int | None:
        return stages.get(stage, {}).get("counts", {}).get(key)

    reviews_path = config.out / "reviews.jsonl"
    expected = _count("ingest", "reviews")
    if expected is not None and reviews_path.is_file():
        with open(reviews_path, encoding="utf-8") as handle:
            actual = sum(1 for line in handle if line.strip())
        if actual != expected:
            problems.append(f"ingest: manifest says {expected} reviews, file has {actual}")

    dict_path = config.out / "dictionary.json"
    expected = _count("dict", "terms")
    if expected is not None and dict_path.is_file():
        actual = len(_read_json(dict_path).get("terms", []))
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
        actual = len(_read_json(table_path).get("factors", []))
        if actual != expected:
            problems.append(f"efa: manifest says {expected} factors, table lists {actual}")

    return problems

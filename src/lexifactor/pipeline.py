"""Pipeline stages and the commands that run them.

Each stage writes its artifacts to the output directory, so the full
pipeline is the five stages run in order. A stage run on its own reads
its inputs from there (or from the configured input files). Within one
``pipeline`` command the stages also hand each other their inputs in
memory (see :class:`Handoff`): the ingested reviews, the term
dictionary's terms and index, and the dict stage's per-review lemmas.
The run then reads the corpus once and tokenizes it once. Besides the
manifest it reads back two artifacts only: ``filtered.mtx`` in the efa
and report stages and ``loading_table.json`` in the report stage. It
writes the same bytes as the stages run one by one: a lone ``matrix``
stage reads ``reviews.jsonl`` and ``dictionary.json`` only, and finds
each review's terms among the surface forms that the dictionary records
for each term, with neither the lexical database nor the stopword list.
Every artifact is encoded once and written crash-safely. The manifest
records, per stage, artifact checksums and basic counts plus the config
snapshot; timestamps, thread counts, and directory locations stay out so
that reruns yield byte-identical artifacts. The artifact formats, the
manifest reader and ``verify`` live in :mod:`lexifactor.artifacts`.

Each stage imports the layers it computes with when it starts, so a
stage command loads no other: ``ingest`` runs without NumPy, and only
``efa`` loads SciPy. A lone ``matrix`` stage reads each record's
``term`` and ``forms`` from ``dictionary.json`` and no other field.
The ``efa`` stage drops the matrix it reads from ``filtered.mtx`` as
soon as phi is made, so while LAPACK runs it holds the p x p
correlation matrix alone.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from . import _EXPORTS, _MODULE_OF, __version__
from .artifacts import (
    MANIFEST_NAME,
    STAGE_ARTIFACTS,
    STAGES,
    TermColumns,
    _read_json,
    _read_manifest,
    _require_artifact,
    _sha256,
    _write_json,
    table_from_payload,
    table_payload,
)
from .atomic import atomic_open
from .config import PipelineConfig, parse_factor_spec
from .errors import StageError, ValidationError

if TYPE_CHECKING:
    import numpy as np

    from .efa import FactorModel, VarimaxResult
    from .ingest import Review
    from .lexicon import ReviewLemmas

# No layer is imported with this module: a stage binds its layers' exports
# (``lexifactor._EXPORTS``) when it starts (:func:`_bind`), so a command
# loads only the layers it runs. A name already set here, such as a wrapper
# put in place before the stage runs, is kept and called. Read as an
# attribute of this module, each exported name imports its layer (PEP 562).


def _bind(*layers: str) -> None:
    """Import ``layers`` and bind their exports here, except names already bound."""
    namespace = globals()
    for layer in layers:
        module = import_module(f".{layer}", __package__)
        for name in _EXPORTS[layer]:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


_LOG = logging.getLogger("lexifactor")


# ---------------------------------------------------------------------------
# small shared helpers


_PATH_OPTIONS = {"ingest": ("input",), "dict": ("lexicon_dir", "stopwords"), "report": ("labels",)}


def _check_paths(config: PipelineConfig, stages: tuple[str, ...]) -> None:
    """Refuse, before anything is written, an ``output_dir`` that names an existing file, and a
    path option that ``stages`` read and that is unset though required (``input``,
    ``lexicon_dir``), missing, or not a file (``lexicon_dir``: a directory)."""
    if config.out.exists() and not config.out.is_dir():
        raise ValidationError(f"output_dir is not a directory: {config.out}")
    for name in (name for stage in stages for name in _PATH_OPTIONS.get(stage, ())):
        path, is_dir = getattr(config, name), name == "lexicon_dir"
        if path is None:
            if name in ("input", "lexicon_dir"):
                raise ValidationError(f"{name} is required")
        elif not Path(path).exists():
            raise ValidationError(f"{name} not found: {path}")
        elif Path(path).is_dir() != is_dir:
            raise ValidationError(f"{name} is not a {'directory' if is_dir else 'file'}: {Path(path)}")


@contextmanager
def _run_lock(out: Path) -> Iterator[None]:
    """Refuse to run while another process holds ``out``: an advisory
    ``flock`` on the directory itself, so no file is made for it, which
    the kernel releases when its holder exits, killed or not."""
    fd = os.open(out, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StageError(f"output directory is locked by another run: {out}") from None
        yield
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# model.json


def model_payload(
    model: FactorModel, eigenvalues: np.ndarray, rotation: VarimaxResult, terms: tuple[str, ...]
) -> dict:
    """``model.json``: the ULS model, the correlation spectrum and the
    Varimax rotation of the model's loadings."""
    return {
        "k": model.k,
        "terms": list(terms),
        "loadings": model.loadings.tolist(),
        "communalities": model.communalities.tolist(),
        "uniquenesses": model.uniquenesses.tolist(),
        "eigenvalues": eigenvalues.tolist(),
        "rotation": rotation.rotation.tolist(),
        "rotated": rotation.loadings.tolist(),
        "converged": model.converged,
        "n_iter": model.n_iter,
        "heywood": model.heywood,
        "rotation_sweeps": rotation.sweeps,
        "rotation_converged": rotation.converged,
    }


# ---------------------------------------------------------------------------
# stage bodies


@dataclass
class Handoff:
    """What one run hands from stage to stage in memory, next to the artifacts.

    ``reviews`` go from ingest to dict and matrix; ``columns``, the
    dictionary's terms and their index, and ``lemmas``, the dict stage's
    lexical pass, go from dict to matrix. The matrix stage clears these
    three, so none outlives the matrix stage. They equal what a stage
    would read back from the artifacts, and a stage with nothing handed
    to it reads those instead. ``stopwords`` for the dict stage and
    ``labels`` for the report stage are read and checked by the command,
    before any stage writes (:func:`_read_stopwords_and_labels`).
    """

    reviews: list[Review] | None = None
    columns: TermColumns | None = None
    lemmas: ReviewLemmas | None = None
    stopwords: frozenset[str] | None = None
    labels: dict[int, str] | None = None


def _read_stopwords_and_labels(config: PipelineConfig, stages: tuple[str, ...]) -> Handoff:
    """A handoff holding the stopword list and the analyst labels, if
    ``stages`` read them, so that a bad file is refused before any write."""
    handoff = Handoff()
    if "dict" in stages:
        _bind("lexicon")
        handoff.stopwords = load_stopwords(config.stopwords)
    if "report" in stages and config.labels is not None:
        _bind("report")
        handoff.labels = check_labels(_read_json(Path(config.labels)))
    return handoff


def stage_ingest(config: PipelineConfig, handoff: Handoff) -> dict:
    """Load the input corpus, validate it, and normalize to JSON Lines."""
    _bind("ingest")
    reviews = load_reviews(Path(config.input), config.format)
    with atomic_open(config.out / "reviews.jsonl") as handle:
        for review in reviews:
            record = {"id": review.id, "source": review.source, "text": review.text}
            handle.write(json.dumps(record, sort_keys=True, ensure_ascii=False))
            handle.write("\n")
    handoff.reviews = reviews
    return {"reviews": len(reviews)}


def stage_dict(config: PipelineConfig, handoff: Handoff) -> dict:
    """Build the term dictionary from the normalized reviews."""
    _bind("ingest", "lexicon")
    reviews = handoff.reviews
    if reviews is None:
        reviews = load_reviews(_require_artifact(config.out / "reviews.jsonl"), "jsonl")
    lexicon = parse_lexical_database(config.lexicon_dir)
    lemmas = ReviewLemmas()
    dictionary = build_dictionary(reviews, lexicon, handoff.stopwords, lemmas)
    del lexicon  # freed here, by reference counting, to keep the encoding peak down
    with atomic_open(config.out / "dictionary.json") as handle:
        handle.writelines(dictionary.json_lines())
    # The provenance (senses and forms) is freed when this stage returns.
    handoff.reviews, handoff.lemmas = reviews, lemmas
    handoff.columns = TermColumns(terms=dictionary.terms, index=dictionary.index)
    return {"terms": len(dictionary)}


def stage_matrix(config: PipelineConfig, handoff: Handoff) -> dict:
    """Build the document-term matrix and its low-variance filtered view."""
    _bind("ingest", "matrix", "mmio")
    reviews, columns, lemmas = handoff.reviews, handoff.columns, handoff.lemmas
    handoff.reviews = handoff.columns = handoff.lemmas = None  # freed when this stage ends
    if lemmas is None:
        reviews = load_reviews(_require_artifact(config.out / "reviews.jsonl"), "jsonl")
        dictionary_path = _require_artifact(config.out / "dictionary.json")
        columns = TermColumns.from_json_dict(_read_json(dictionary_path), dictionary_path)
    matrix = build_matrix(reviews, columns, lemmas)
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
    _bind("mmio", "efa", "report")
    # The read matrix is freed, by reference counting, as soon as phi is made.
    corr = correlation_matrix(read_matrix_market(_require_artifact(config.out / "filtered.mtx")))
    eigenvalues = eigendecompose(corr)
    k = select_factor_count(eigenvalues, parse_factor_spec(config.factors))
    model = extract_uls(corr, k)
    terms = corr.terms
    del corr  # the p x p matrix; what follows needs only its terms
    rotation = varimax_rotate(model.loadings)
    _LOG.info("efa: %s", _solver_summary(model, rotation))
    table = prune_loadings(rotation.loadings, config.threshold, terms)
    refined = refine_factors(table, config.retain)

    _write_json(config.out / "model.json", model_payload(model, eigenvalues, rotation, terms))
    _write_json(config.out / "loading_table.json", table_payload(refined))
    write_loadings_csv(rotation.loadings, terms, refined, config.out / "loadings.csv")
    return {"factors_extracted": model.k, "factors_retained": len(refined.factors)}


def _solver_summary(model: FactorModel, rotation: VarimaxResult) -> str:
    """What ULS and Varimax did: iterations, convergence, Heywood cases,
    Varimax steps and the stationarity measure they ended at."""
    uls = f"ULS {model.n_iter} iterations, {'converged' if model.converged else 'not converged'}"
    heywood = "Heywood case" if model.heywood else "no Heywood case"
    varimax = f"Varimax {rotation.sweeps} steps, stationarity {rotation.stationarity:.3g}, "
    varimax += "converged" if rotation.converged else "not converged"
    return f"{uls}, {heywood}; {varimax}"


def stage_report(config: PipelineConfig, handoff: Handoff) -> dict:
    """Render the retained factors with exemplars and optional labels."""
    _bind("mmio", "report")
    table_path = _require_artifact(config.out / "loading_table.json")
    table = table_from_payload(_read_json(table_path), table_path)
    filtered = read_matrix_market(_require_artifact(config.out / "filtered.mtx"))
    columns = set(filtered.terms)
    unknown = [(f.factor, term) for f in table.factors for term, _ in f.entries if term not in columns]
    if unknown:  # the two artifacts disagree: a stage failure, not bad arguments
        factor, term = unknown[0]
        raise StageError(f"{table_path}: factor {factor} term {term!r} is not a column of filtered.mtx")
    exemplars = exemplar_reviews(filtered, table, limit=config.exemplars)
    report = build_report(table, exemplars)
    if handoff.labels is not None:  # the factor ids are checked against the report here
        report = attach_labels(report, handoff.labels)
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
# the manifest and the commands that run stages


def _manifest_path(config: PipelineConfig) -> Path:
    return config.out / MANIFEST_NAME


def _fresh_manifest(config: PipelineConfig) -> dict:
    return {"version": __version__, "config": config.snapshot(), "stages": {}}


def _open_manifest(config: PipelineConfig) -> dict:
    """The manifest in the output directory, or a fresh one. A manifest
    of another configuration is refused, before any stage writes."""
    path = _manifest_path(config)
    manifest = _read_manifest(path) if path.is_file() else _fresh_manifest(config)
    if manifest.get("config") != config.snapshot():
        raise StageError(
            "output directory holds artifacts from a different configuration; "
            "re-run the full pipeline or use a fresh output directory"
        )
    return manifest


def _record_stage(config: PipelineConfig, manifest: dict, stage: str, counts: dict) -> None:
    """Record ``stage``'s artifacts in ``manifest`` and write it. When they
    differ from the recorded ones, the later stages' entries are dropped:
    those stages consumed the old artifacts, so their own are stale until
    they run again."""
    stages = manifest["stages"]
    artifacts = {name: _sha256(config.out / name) for name in STAGE_ARTIFACTS[stage]}
    if stages.get(stage, {}).get("artifacts") != artifacts:
        for later in STAGES[STAGES.index(stage) + 1 :]:
            stages.pop(later, None)
    stages[stage] = {"artifacts": artifacts, "counts": counts}
    _write_json(_manifest_path(config), manifest)


def cmd_stage(name: str, config: PipelineConfig) -> None:
    """Run one stage and fold its results into the manifest."""
    if name not in STAGE_FUNCS:
        raise ValidationError(f"unknown stage: {name!r}")
    _check_paths(config, (name,))
    handoff = _read_stopwords_and_labels(config, (name,))
    config.out.mkdir(parents=True, exist_ok=True)
    with _run_lock(config.out):
        manifest = _open_manifest(config)
        counts = STAGE_FUNCS[name](config, handoff)
        _record_stage(config, manifest, name, counts)


def cmd_pipeline(config: PipelineConfig) -> None:
    """Run every stage in order against a fresh manifest."""
    _check_paths(config, STAGES)
    handoff = _read_stopwords_and_labels(config, STAGES)
    config.out.mkdir(parents=True, exist_ok=True)
    with _run_lock(config.out):
        _manifest_path(config).unlink(missing_ok=True)
        manifest = _fresh_manifest(config)
        for stage in STAGES:
            counts = STAGE_FUNCS[stage](config, handoff)
            _record_stage(config, manifest, stage, counts)

"""Pipeline stages, artifact persistence, and the run manifest.

Each stage writes its artifacts to the output directory, so the full
pipeline is the five stages run in order. A stage run on its own reads
its inputs from there (or from the configured input files). Within one
``pipeline`` command the stages also hand each other their inputs in
memory (see :class:`Handoff`): the ingested reviews, the term
dictionary and the dict stage's per-review lemmas. The run then reads
the corpus once, tokenizes it once and reads no artifact back, and
writes the same bytes as the stages run one by one: a lone ``matrix``
stage makes the dict stage's lexical pass again, with the same
stopwords. Every artifact is encoded once and written crash-safely.
The manifest records, per stage, artifact checksums and basic counts
plus the config snapshot; timestamps, thread counts, and directory
locations stay out so that reruns yield byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import __version__
from .atomic import atomic_open, write_text
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
from .ingest import Review, load_reviews
from .lexicon import (
    ReviewLemmas,
    TermDictionary,
    build_dictionary,
    load_stopwords,
    parse_lexical_database,
)
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
    """``payload`` as indented JSON with sorted keys, crash-safely."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


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
    """Advisory lock: refuse to run while another live process holds the dir.

    The lock file records its holder's pid. A lock left by a holder that
    has exited, say a killed run, is taken over. Two runs that find the
    same stale lock at the same moment may both take it: the lock guards
    against a forgotten run, not against racing starts.
    """
    lock_path = out / LOCK_NAME
    for attempt in range(2):
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt or not _lock_is_stale(lock_path):
                raise StageError(f"lock file exists (another run in progress?): {lock_path}") from None
            _LOG.warning("taking over a lock whose holder has exited: %s", lock_path)
            lock_path.unlink(missing_ok=True)
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        lock_path.unlink(missing_ok=True)


def _lock_is_stale(lock_path: Path) -> bool:
    """Whether the process a lock file names has exited. A lock whose pid
    cannot be read counts as held: its holder may not have written it yet."""
    try:
        pid = int(lock_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return True  # released since the caller found it
    except (OSError, ValueError):
        return False
    if pid <= 0:  # os.kill would signal a process group
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        pass  # a process of another user, or no pid at all: leave it be
    return False


# ---------------------------------------------------------------------------
# artifact (de)serialization


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
    }


_MODEL_VECTORS = ("communalities", "eigenvalues", "uniquenesses")
_MODEL_MATRICES = ("loadings", "rotated", "rotation")


def model_json(payload: dict) -> str:
    """The text of ``model.json`` for a :func:`model_payload` payload:
    what ``json.dump`` writes with ``indent=2, sort_keys=True,
    ensure_ascii=False``, plus a newline. The float vectors and matrices
    are joined row by row instead of going through the pure-Python
    encoder; every other value is small and goes through ``json``."""
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if key in _MODEL_MATRICES:
            text = _float_rows(value, "  ")
        elif key in _MODEL_VECTORS:
            text = _float_list(value, "  ")
        else:
            text = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
            text = text.replace("\n", "\n  ")
        fields.append(f"  {encode_basestring(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _float_list(values: list[float], indent: str) -> str:
    """A list of floats as ``json.dumps(indent=2)`` writes it at ``indent``."""
    if not values:
        return "[]"
    inner = indent + "  "
    text = (",\n" + inner).join(map(float.__repr__, values))
    # Only the reprs nan, inf and -inf hold an "n"; json spells them
    # NaN, Infinity and -Infinity.
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return f"[\n{inner}{text}\n{indent}]"


def _float_rows(rows: list[list[float]], indent: str) -> str:
    """A list of float lists as ``json.dumps(indent=2)`` writes it at ``indent``."""
    if not rows:
        return "[]"
    inner = indent + "  "
    text = (",\n" + inner).join([_float_list(row, inner) for row in rows])
    return f"[\n{inner}{text}\n{indent}]"


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
    """What one run hands from stage to stage in memory, next to the artifacts.

    ``reviews`` go from ingest to dict and matrix; ``dictionary`` and
    ``lemmas``, the dict stage's lexical pass, go from dict to matrix.
    The matrix stage clears them all, so none outlives the matrix
    stage. They equal what a stage would read back from the artifacts,
    and a stage with nothing handed to it reads those instead.
    """

    reviews: list[Review] | None = None
    dictionary: TermDictionary | None = None
    lemmas: ReviewLemmas | None = None


def stage_ingest(config: PipelineConfig, handoff: Handoff) -> dict:
    """Load the input corpus, validate it, and normalize to JSON Lines."""
    source = _require_input(config.input, "input")
    reviews = load_reviews(source, config.format)
    with atomic_open(config.out / "reviews.jsonl") as handle:
        for review in reviews:
            record = {"id": review.id, "source": review.source, "text": review.text}
            handle.write(json.dumps(record, sort_keys=True, ensure_ascii=False))
            handle.write("\n")
    handoff.reviews = reviews
    return {"reviews": len(reviews)}


def _load_lexicon(config: PipelineConfig):
    root = _require_input(config.lexicon_dir, "lexicon_dir")
    return parse_lexical_database(root)


def stage_dict(config: PipelineConfig, handoff: Handoff) -> dict:
    """Build the term dictionary from the normalized reviews."""
    reviews = handoff.reviews
    if reviews is None:
        reviews = load_reviews(_require_artifact(config.out / "reviews.jsonl"), "jsonl")
    lexicon = _load_lexicon(config)
    lemmas = ReviewLemmas()
    dictionary = build_dictionary(reviews, lexicon, load_stopwords(config.stopwords), lemmas)
    del lexicon  # released before encoding, to keep the run's peak memory down
    write_text(config.out / "dictionary.json", dictionary.to_json_text())
    handoff.reviews, handoff.dictionary, handoff.lemmas = reviews, dictionary, lemmas
    return {"terms": len(dictionary)}


def stage_matrix(config: PipelineConfig, handoff: Handoff) -> dict:
    """Build the document-term matrix and its low-variance filtered view."""
    reviews, dictionary, lemmas = handoff.reviews, handoff.dictionary, handoff.lemmas
    handoff.reviews = handoff.dictionary = handoff.lemmas = None  # freed when this stage ends
    if lemmas is None:
        reviews = load_reviews(_require_artifact(config.out / "reviews.jsonl"), "jsonl")
        dictionary = TermDictionary.from_json_dict(
            _read_json(_require_artifact(config.out / "dictionary.json"))
        )
        lemmas = ReviewLemmas().read(reviews, _load_lexicon(config), load_stopwords(config.stopwords))
    matrix = build_matrix(reviews, dictionary, lemmas)
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
    eigenvalues = eigendecompose(corr)
    k = select_factor_count(eigenvalues, method=method, k=fixed_k)
    model = extract_uls(corr, k)
    rotation = varimax_rotate(model.loadings)
    _LOG.info("efa: %s", _solver_summary(model, rotation))
    table = prune_loadings(rotation.loadings, config.threshold, corr.terms)
    refined = refine_factors(table, config.retain)

    payload = model_payload(model, eigenvalues, rotation, corr.terms)
    write_text(config.out / "model.json", model_json(payload))
    _write_json(config.out / "loading_table.json", table_payload(refined))
    write_loadings_csv(rotation.loadings, corr.terms, refined, config.out / "loadings.csv")
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
    """Record ``stage``'s artifacts. When they differ from the recorded
    ones, the later stages' entries are dropped: those stages consumed
    the old artifacts, so their own are stale until they run again."""
    path = _manifest_path(config)
    manifest = _read_json(path) if path.is_file() else _fresh_manifest(config)
    if manifest.get("config") != config.snapshot():
        raise StageError(
            "output directory holds artifacts from a different configuration; "
            "re-run the full pipeline or use a fresh output directory"
        )
    stages = manifest["stages"]
    artifacts = {name: _sha256(config.out / name) for name in STAGE_ARTIFACTS[stage]}
    if stages.get(stage, {}).get("artifacts") != artifacts:
        for later in STAGES[STAGES.index(stage) + 1 :]:
            stages.pop(later, None)
    stages[stage] = {"artifacts": artifacts, "counts": counts}
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
    """Check manifest checksums, lineage and basic cross-artifact consistency.

    Lineage: every recorded stage's upstream stage is recorded too, and
    no artifact of an unrecorded stage is left in the directory. Returns
    a list of problems; empty means the output directory is internally
    consistent.
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
        with open(reviews_path, encoding="utf-8") as handle:
            actual = sum(1 for line in handle if line.strip())
        if actual != expected:
            problems.append(f"ingest: manifest says {expected} reviews, file has {actual}")

    dict_path = config.out / "dictionary.json"
    expected = _count("dict", "terms")
    if expected is not None and dict_path.is_file():
        # The writer's term key lines; no JSON string holds a raw newline.
        actual = dict_path.read_bytes().count(b'\n      "term": ')
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

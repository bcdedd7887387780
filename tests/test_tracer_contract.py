"""The names ``bench/traced.py`` wraps must exist in the package.

The tracer looks each function up by module and attribute at start-up
and reports a missing one as an absent metric, so a rename (say of
``eigendecompose``) would otherwise only show as a traced benchmark run
that lacks some per-layer metrics.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lexifactor
from lexifactor.pipeline import STAGE_FUNCS, STAGES
from test_acceptance import build_review_corpus

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"
_SRC = str(Path(lexifactor.__file__).resolve().parent.parent)


def _load_traced():
    """``bench/traced.py`` as a module, leaving no bytecode under bench/."""
    module = types.ModuleType("bench_traced")
    module.__file__ = str(TRACED)
    exec(compile(TRACED.read_text(encoding="utf-8"), str(TRACED), "exec"), module.__dict__)
    return module


SPANS = _load_traced().SPANS


@pytest.mark.parametrize("module, attribute", sorted({(m, a) for m, a, _, _ in SPANS}))
def test_span_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize(
    "module, attribute",
    [
        ("lexifactor.lexicon", "tokenize"),
        ("lexifactor.lexicon", "lemmatize_token"),
        ("lexifactor.matrix", "tokenize"),
        ("lexifactor.matrix", "lemmatize_token"),
        ("lexifactor.pipeline", "_sha256"),
    ],
)
def test_counter_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_stage_funcs_dispatch_every_stage():
    assert list(STAGE_FUNCS) == list(STAGES)
    assert all(callable(fn) for fn in STAGE_FUNCS.values())


def test_traced_pipeline_reports_every_fact(lexicon_dir, tmp_path):
    """One traced pipeline run: nothing is missing and every fact the
    tracer takes from a result (``extract_uls`` k and iterations,
    Varimax sweeps against the ``max_sweeps`` default, ...) is there."""
    corpus = build_review_corpus(tmp_path / "reviews.jsonl", n_docs=200)
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [
            sys.executable, str(TRACED), str(trace),
            "pipeline",
            "--input", str(corpus),
            "--lexicon-dir", str(lexicon_dir),
            "--output-dir", str(tmp_path / "out"),
            "--factors", "fixed:8",
        ],
        env=env, capture_output=True, timeout=300, check=True,
    )
    payload = json.loads(trace.read_text(encoding="utf-8"))
    assert payload["status"] == 0
    assert payload["missing"] == []
    assert sorted(payload["facts"]) == sorted(
        [
            "ingest.reviews", "ingest.input_mb", "lexicon.terms", "matrix.nnz",
            "matrix.kept_columns", "mmio.write_mb", "mmio.read_mb", "efa.p", "efa.k",
            "efa.uls_iterations", "efa.uls_converged", "efa.heywood",
            "efa.varimax_sweeps", "efa.varimax_at_cap", "pipeline.hashed_mb",
        ]
    )
    assert payload["facts"]["efa.k"] == [8.0]
    spans = {span[0] for span in payload["spans"]}
    assert {"efa.eigendecompose", "efa.uls", "efa.varimax", "stage.efa"} <= spans


# The layer spans each stage command must report, when run on its own.
STAGE_SPANS = {
    "ingest": {"ingest.load_reviews"},
    "dict": {"ingest.load_reviews", "lexicon.parse", "lexicon.build_dictionary"},
    "matrix": {"ingest.load_reviews", "matrix.build", "matrix.column_stats", "matrix.filter", "mmio.write"},
    "efa": {
        "mmio.read", "efa.correlation", "matrix.column_stats", "efa.eigendecompose", "efa.uls",
        "efa.varimax", "efa.prune_refine", "report.loadings_csv",
    },
    "report": {"mmio.read", "report.exemplars", "report.emit"},
}


def test_traced_stage_commands_report_their_layers(lexicon_dir, tmp_path):
    """Each stage command, traced on its own in one output directory,
    misses no name and reports its stage span and its layers' spans: a
    stage binds its layers' names when it starts, and the tracer's
    wrappers, set before then, are the ones it calls."""
    corpus = build_review_corpus(tmp_path / "reviews.jsonl", n_docs=200)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    for stage in STAGES:
        trace = tmp_path / f"{stage}.json"
        subprocess.run(
            [
                sys.executable, str(TRACED), str(trace),
                stage,
                "--input", str(corpus),
                "--lexicon-dir", str(lexicon_dir),
                "--output-dir", str(tmp_path / "out"),
                "--factors", "fixed:8",
            ],
            env=env, capture_output=True, timeout=300, check=True,
        )
        payload = json.loads(trace.read_text(encoding="utf-8"))
        assert (payload["status"], payload["missing"]) == (0, [])
        spans = {span[0] for span in payload["spans"]}
        assert {"command.stage", f"stage.{stage}"} | STAGE_SPANS[stage] <= spans, stage

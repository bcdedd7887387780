"""Run one lexifactor command in-process with spans around its layers.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 bench/traced.py TRACE.json LEXIFACTOR-ARGS...

The program is not edited: before the command runs, this script wraps
the functions the pipeline calls, as the callers look them up. That is
the names imported into ``lexifactor.pipeline``, ``column_stats`` as
``lexifactor.efa`` sees it, the ``STAGE_FUNCS`` entries (the commands
dispatch through that dict) and the command functions ``lexifactor.cli``
calls. Each call records a span (name, start, end, parent) in memory.
``tokenize``, ``lemmatize_token`` and ``_sha256`` only feed counters,
because they run per token or per file. Everything is written to
TRACE.json when the command returns. A name that no longer exists is
listed under ``missing`` so that its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time


def _mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _varimax_facts(args, kwargs, result):
    cap = kwargs.get("max_sweeps")
    if cap is None:
        rotate = sys.modules["lexifactor.pipeline"].varimax_rotate
        cap = inspect.signature(rotate).parameters["max_sweeps"].default
    return {"efa.varimax_sweeps": result.sweeps, "efa.varimax_at_cap": int(result.sweeps >= cap)}


# (module, attribute, span name, facts taken from (args, kwargs, result))
SPANS = (
    ("lexifactor.pipeline", "load_reviews", "ingest.load_reviews",
     lambda a, k, r: {"ingest.reviews": len(r), "ingest.input_mb": _mb(a[0])}),
    ("lexifactor.pipeline", "parse_lexical_database", "lexicon.parse", None),
    ("lexifactor.pipeline", "build_dictionary", "lexicon.build_dictionary",
     lambda a, k, r: {"lexicon.terms": len(r)}),
    ("lexifactor.pipeline", "build_matrix", "matrix.build", lambda a, k, r: {"matrix.nnz": r.nnz()}),
    ("lexifactor.pipeline", "column_stats", "matrix.column_stats", None),
    ("lexifactor.efa", "column_stats", "matrix.column_stats", None),
    ("lexifactor.pipeline", "filter_low_variance", "matrix.filter",
     lambda a, k, r: {"matrix.kept_columns": len(r[1])}),
    ("lexifactor.pipeline", "write_matrix_market", "mmio.write", lambda a, k, r: {"mmio.write_mb": _mb(a[1])}),
    ("lexifactor.pipeline", "read_matrix_market", "mmio.read", lambda a, k, r: {"mmio.read_mb": _mb(a[0])}),
    ("lexifactor.pipeline", "correlation_matrix", "efa.correlation",
     lambda a, k, r: {"efa.p": r.values.shape[0]}),
    ("lexifactor.pipeline", "eigendecompose", "efa.eigendecompose", None),
    ("lexifactor.pipeline", "extract_uls", "efa.uls",
     lambda a, k, r: {"efa.k": r.k, "efa.uls_iterations": r.n_iter,
                      "efa.uls_converged": int(r.converged), "efa.heywood": int(r.heywood)}),
    ("lexifactor.pipeline", "varimax_rotate", "efa.varimax", _varimax_facts),
    ("lexifactor.pipeline", "prune_loadings", "efa.prune_refine", None),
    ("lexifactor.pipeline", "refine_factors", "efa.prune_refine", None),
    ("lexifactor.pipeline", "exemplar_reviews", "report.exemplars", None),
    ("lexifactor.pipeline", "emit_report", "report.emit", None),
    ("lexifactor.pipeline", "write_loadings_csv", "report.loadings_csv", None),
    ("lexifactor.cli", "cmd_pipeline", "command.pipeline", None),
    ("lexifactor.cli", "cmd_stage", "command.stage", None),
    ("lexifactor.cli", "cmd_verify", "command.verify", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.facts: dict[str, list[float]] = {}
        self.missing: list[str] = []
        # Counters are bumped from build_matrix's worker threads too.
        self.lock = threading.Lock()
        self.token_occurrences = 0
        self.lemmatize_calls = 0
        self.tokens: set[str] = set()
        self.lemmas: set[str] = set()

    def _fact(self, facts) -> None:
        for name, value in facts.items():
            self.facts.setdefault(name, []).append(float(value))

    def span(self, name, fn, facts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if facts is not None:
                try:
                    self._fact(facts(args, kwargs, result))
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    pass  # a changed return type leaves the fact absent
            return result

        return wrapper

    def counted_tokenize(self, fn):
        @functools.wraps(fn)
        def wrapper(text):
            tokens = fn(text)
            with self.lock:
                self.token_occurrences += len(tokens)
            return tokens

        return wrapper

    def counted_lemmatize(self, fn, record_lemmas):
        @functools.wraps(fn)
        def wrapper(lexicon, token):
            lemma = fn(lexicon, token)
            with self.lock:
                self.lemmatize_calls += 1
                self.tokens.add(token)
                if record_lemmas and lemma is not None:
                    self.lemmas.add(lemma)
            return lemma

        return wrapper

    def counted_sha256(self, fn):
        @functools.wraps(fn)
        def wrapper(path):
            digest = fn(path)
            self._fact({"pipeline.hashed_mb": _mb(path)})
            return digest

        return wrapper

    def _patch(self, module_name, attribute, name, make):
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        setattr(module, attribute, make(original))

    def install(self) -> None:
        for module, attribute, name, facts in SPANS:
            self._patch(module, attribute, name, lambda fn, n=name, f=facts: self.span(n, fn, f))
        for module in ("lexifactor.lexicon", "lexifactor.matrix"):
            self._patch(module, "tokenize", "lexicon.tokenize", self.counted_tokenize)
            record = module == "lexifactor.lexicon"
            self._patch(module, "lemmatize_token", "lexicon.lemmatize_token",
                        lambda fn, r=record: self.counted_lemmatize(fn, r))
        self._patch("lexifactor.pipeline", "_sha256", "pipeline.sha256", self.counted_sha256)
        try:
            stages = importlib.import_module("lexifactor.pipeline").STAGE_FUNCS
        except AttributeError:
            self.missing.append("stage")
            return
        for stage, fn in list(stages.items()):
            stages[stage] = self.span(f"stage.{stage}", fn)

    def dump(self, path: str, status: int) -> None:
        payload = {
            "status": status,
            "spans": self.spans,
            "facts": self.facts,
            "missing": self.missing,
            "token_occurrences": self.token_occurrences,
            "lemmatize_calls": self.lemmatize_calls,
            "tokens": sorted(self.tokens),
            "lemmas": sorted(self.lemmas),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from lexifactor import cli

    status = cli.main(args)
    tracer.dump(trace_path, status)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

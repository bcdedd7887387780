"""Lexical factor analysis of review corpora.

From raw reviews to interpretable themes: tokenize, lemmatize against a
WordNet-layout lexical database, build a synonym/antonym-free term
dictionary, form a binary document-term matrix, filter low-variance
columns, run ULS factor extraction with Varimax rotation, and report
the strongest factors with their words and exemplar reviews.
"""

__version__ = "0.1.0"

# The pipeline's stages in run order, each also a command. They live here,
# beside the version, so the command line names them without loading a layer.
STAGES = ("ingest", "dict", "matrix", "efa", "report")

from importlib import import_module

# Each public name by the submodule that defines it. A name is imported on
# first access (PEP 562), so ``import lexifactor``, ``--version`` and
# ``verify`` load neither NumPy nor the numeric stages.
_EXPORTS = {
    "artifacts": (
        "FactorLoadings",
        "LoadingTable",
        "SenseId",
        "TermDictionary",
        "TermProvenance",
        "cmd_verify",
    ),
    "config": ("PipelineConfig", "build_config", "parse_factor_spec"),
    "efa": (
        "CorrelationMatrix",
        "FactorModel",
        "VarimaxResult",
        "correlation_matrix",
        "eigendecompose",
        "extract_uls",
        "prune_loadings",
        "refine_factors",
        "select_factor_count",
        "varimax_criterion",
        "varimax_rotate",
    ),
    "errors": ("ParseError", "StageError", "ValidationError"),
    "ingest": ("Review", "Token", "load_reviews", "tokenize"),
    "lexicon": (
        "Lexicon",
        "ReviewLemmas",
        "build_dictionary",
        "lemmatize",
        "lemmatize_token",
        "load_stopwords",
        "parse_lexical_database",
    ),
    "matrix": (
        "ColumnStats",
        "DocTermMatrix",
        "build_matrix",
        "column_stats",
        "filter_low_variance",
        "filter_top_variance",
    ),
    "mmio": ("read_matrix_market", "write_matrix_market"),
    "pipeline": ("cmd_pipeline", "cmd_stage"),
    "report": (
        "FactorReport",
        "FactorSection",
        "attach_labels",
        "build_report",
        "emit_report",
        "exemplar_reviews",
        "render_markdown",
        "write_loadings_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})

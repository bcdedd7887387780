"""Lexical factor analysis of review corpora.

From raw reviews to interpretable themes: tokenize, lemmatize against a
WordNet-layout lexical database, build a synonym/antonym-free term
dictionary, form a binary document-term matrix, filter low-variance
columns, run ULS factor extraction with Varimax rotation, and report
the strongest factors with their words and exemplar reviews.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, build_config, parse_factor_spec
from .efa import (
    CorrelationMatrix,
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
    varimax_criterion,
    varimax_rotate,
)
from .errors import (
    ConfigurationError,
    DegenerateColumnError,
    DependencyError,
    DuplicateIdError,
    EmptyDictionaryError,
    EmptyMatrixError,
    LexifactorError,
    ParseError,
    SchemaError,
    StageError,
    ValidationError,
)
from .ingest import Review, Token, load_reviews, tokenize
from .lexicon import (
    Lexicon,
    ReviewLemmas,
    SenseId,
    TermDictionary,
    TermProvenance,
    build_dictionary,
    lemmatize,
    lemmatize_token,
    load_stopwords,
    parse_lexical_database,
)
from .matrix import (
    ColumnStats,
    DocTermMatrix,
    build_matrix,
    column_stats,
    filter_low_variance,
    filter_top_variance,
)
from .mmio import read_matrix_market, write_matrix_market
from .pipeline import cmd_pipeline, cmd_stage, cmd_verify
from .report import (
    FactorReport,
    FactorSection,
    attach_labels,
    build_report,
    emit_report,
    exemplar_reviews,
    render_markdown,
    write_loadings_csv,
)

__all__ = [
    "__version__",
    "PipelineConfig",
    "build_config",
    "parse_factor_spec",
    "CorrelationMatrix",
    "FactorLoadings",
    "FactorModel",
    "LoadingTable",
    "VarimaxResult",
    "correlation_matrix",
    "eigendecompose",
    "extract_uls",
    "prune_loadings",
    "refine_factors",
    "select_factor_count",
    "varimax_criterion",
    "varimax_rotate",
    "ConfigurationError",
    "DegenerateColumnError",
    "DependencyError",
    "DuplicateIdError",
    "EmptyDictionaryError",
    "EmptyMatrixError",
    "LexifactorError",
    "ParseError",
    "SchemaError",
    "StageError",
    "ValidationError",
    "Review",
    "Token",
    "load_reviews",
    "tokenize",
    "Lexicon",
    "ReviewLemmas",
    "SenseId",
    "TermDictionary",
    "TermProvenance",
    "build_dictionary",
    "lemmatize",
    "lemmatize_token",
    "load_stopwords",
    "parse_lexical_database",
    "ColumnStats",
    "DocTermMatrix",
    "build_matrix",
    "column_stats",
    "filter_low_variance",
    "filter_top_variance",
    "read_matrix_market",
    "write_matrix_market",
    "cmd_pipeline",
    "cmd_stage",
    "cmd_verify",
    "FactorReport",
    "FactorSection",
    "attach_labels",
    "build_report",
    "emit_report",
    "exemplar_reviews",
    "render_markdown",
    "write_loadings_csv",
]

"""Exception hierarchy shared across the pipeline.

Errors are split by how the command-line driver reports them: validation
problems (bad arguments, bad configuration) exit with status 1, stage
failures (unparseable inputs, empty intermediate products, missing
upstream artifacts) exit with status 2, and I/O failures exit with
status 3.
"""

from __future__ import annotations


class LexifactorError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LexifactorError):
    """Invalid user input: bad flag values, malformed configuration."""


class ConfigurationError(ValidationError):
    """A configuration file could not be parsed or contains bad keys."""


class StageError(LexifactorError):
    """A pipeline stage could not produce its artifact."""


class ParseError(StageError):
    """An input file violates its declared format.

    Carries enough context to point the user at the offending line.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


class SchemaError(ParseError):
    """A record is syntactically valid but missing required fields."""


class DuplicateIdError(StageError):
    """Two reviews share an id within one corpus."""


class EmptyDictionaryError(StageError):
    """Dictionary construction admitted no terms."""


class EmptyMatrixError(StageError):
    """Matrix construction or filtering left no usable columns."""


class DegenerateColumnError(StageError):
    """A correlation was requested over a constant column."""


class DependencyError(StageError):
    """A stage was invoked before the artifact it consumes exists."""

    def __init__(self, artifact: str):
        self.artifact = artifact
        super().__init__(f"missing required artifact: {artifact}")

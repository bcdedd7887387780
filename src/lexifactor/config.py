"""Run configuration: defaults, KEY = VALUE config files, flag overrides.

Command-line flags always win over config file entries. The manifest
snapshot leaves out ``threads`` and ``output_dir`` because neither may
influence artifact bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .errors import ValidationError

_FORMATS = ("jsonl", "csv")


def parse_factor_spec(spec: str) -> int | None:
    """Parse a factor-count spec: ``fixed:<k>`` gives ``k``, ``kaiser`` None (Kaiser's rule)."""
    if spec == "kaiser":
        return None
    if spec.startswith("fixed:"):
        raw = spec.split(":", 1)[1]
        try:
            k = int(raw)
        except ValueError:
            raise ValidationError(f"bad factor count in {spec!r}") from None
        if k < 1:
            raise ValidationError(f"factor count must be positive, got {k}")
        return k
    raise ValidationError(f"bad factor spec {spec!r} (use 'kaiser' or 'fixed:<k>')")


@dataclass
class PipelineConfig:
    """Everything a run needs; field names double as config file keys."""

    input: str | None = None
    format: str = "jsonl"
    lexicon_dir: str | None = None
    stopwords: str | None = None
    labels: str | None = None
    output_dir: str = "out"
    min_variance: float = 0.01
    factors: str = "kaiser"
    threshold: float = 0.3
    retain: int = 15
    exemplars: int = 20
    threads: int = 1

    def validate(self) -> None:
        if self.format not in _FORMATS:
            raise ValidationError(f"unknown review format: {self.format!r}")
        parse_factor_spec(self.factors)
        if not 0.0 <= self.min_variance <= 0.25:
            raise ValidationError(f"min_variance must lie in [0, 0.25], got {self.min_variance}")
        if not 0.0 <= self.threshold < float("inf"):  # NaN and infinity too
            raise ValidationError(f"threshold must be non-negative, got {self.threshold}")
        for name in ("retain", "exemplars", "threads"):
            value = getattr(self, name)
            if value < 1:
                raise ValidationError(f"{name} must be positive, got {value}")
        # The manifest's config snapshot records these paths as UTF-8 JSON.
        # A non-UTF-8 byte of the command line reaches here as a surrogate.
        for name in ("input", "lexicon_dir", "stopwords", "labels"):
            value = getattr(self, name)
            try:
                if value is not None:
                    value.encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(f"{name} is not a UTF-8 path: {value!r}") from None

    def snapshot(self) -> dict[str, Any]:
        """Config as recorded in the manifest.

        ``threads`` and ``output_dir`` are excluded: runs that differ
        only in those must produce byte-identical artifacts.
        """
        snapshot = asdict(self)
        del snapshot["threads"]
        del snapshot["output_dir"]
        return snapshot

    @property
    def out(self) -> Path:
        return Path(self.output_dir)


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
# Annotations are strings under ``from __future__ import annotations``.
_PARSERS = {"int": int, "float": float}


def _coerce(key: str, value: str) -> Any:
    parse = _PARSERS.get(_FIELD_TYPES[key])
    try:
        return value if parse is None else parse(value)
    except ValueError:
        raise ValidationError(f"config key {key!r}: cannot parse {value!r}") from None


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Parse a ``KEY = VALUE`` config file (one pair per line, ``#`` comments)."""
    values: dict[str, Any] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ValidationError(f"config file is a directory: {path}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"config file is not UTF-8 text: {path}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected KEY = VALUE, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FIELD_TYPES:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValidationError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = _coerce(key, value)
    return values


def build_config(
    config_file: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> PipelineConfig:
    """Merge config file values with flag overrides (overrides win)."""
    values: dict[str, Any] = {}
    if config_file is not None:
        values.update(load_config_file(config_file))
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ValidationError(f"unknown config key {key!r}")
            values[key] = value
    config = PipelineConfig(**values)
    config.validate()
    return config

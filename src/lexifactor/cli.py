"""Command-line entry point.

One subcommand per pipeline stage plus ``pipeline`` (all stages) and
``verify`` (checksum audit of an output directory). Exit codes: 0 on
success, 1 for validation problems, 2 for stage failures, 3 for I/O
failures.

This module loads argparse, the package and its error classes and no
more, so ``--version``, ``--help`` and argument errors end there.
Logging, the configuration and the artifact layer load once a command
runs, and each stage command loads only the numeric layers it computes
with (see :mod:`lexifactor.pipeline`).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import STAGES, __version__
from .errors import StageError, ValidationError

if TYPE_CHECKING:
    from .config import PipelineConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2
EXIT_IO = 3

_STAGE_HELP = {
    "ingest": "load and normalize the review corpus",
    "dict": "build the term dictionary",
    "matrix": "build and filter the document-term matrix",
    "efa": "extract, rotate, prune, and refine factors",
    "report": "render the factor report",
}


def cmd_pipeline(config: PipelineConfig) -> None:
    """Run :func:`lexifactor.pipeline.cmd_pipeline`, imported when a
    command that computes runs."""
    from . import pipeline

    pipeline.cmd_pipeline(config)


def cmd_stage(name: str, config: PipelineConfig) -> None:
    """Run :func:`lexifactor.pipeline.cmd_stage`, imported as in :func:`cmd_pipeline`."""
    from . import pipeline

    pipeline.cmd_stage(name, config)


def cmd_verify(config: PipelineConfig) -> list[str]:
    """Run :func:`lexifactor.artifacts.cmd_verify`, imported when ``verify`` runs."""
    from . import artifacts

    return artifacts.cmd_verify(config)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; route through our own codes.
    def error(self, message: str):
        raise ValidationError(message)


def _common_options() -> argparse.ArgumentParser:
    """The options every command takes, for its parser to copy."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", metavar="FILE", help="KEY = VALUE config file; flags override it")
    parser.add_argument("--input", metavar="PATH", help="review corpus to ingest")
    parser.add_argument("--format", choices=("jsonl", "csv"), help="corpus format (default jsonl)")
    parser.add_argument("--lexicon-dir", dest="lexicon_dir", metavar="DIR", help="lexical database directory")
    parser.add_argument("--stopwords", metavar="FILE", help="custom stopword list")
    parser.add_argument("--labels", metavar="FILE", help="JSON object of factor id to label")
    parser.add_argument("--output-dir", dest="output_dir", metavar="DIR", help="artifact directory (default ./out)")
    parser.add_argument("--min-variance", dest="min_variance", type=float, metavar="V",
                        help="drop columns with variance below V (default 0.01)")
    parser.add_argument("--factors", metavar="SPEC", help="'kaiser' or 'fixed:<k>' (default kaiser)")
    parser.add_argument("--threshold", type=float, metavar="T", help="minimum |loading| to keep (default 0.3)")
    parser.add_argument("--retain", type=int, metavar="N", help="factors kept after refinement (default 15)")
    parser.add_argument("--exemplars", type=int, metavar="N", help="exemplar reviews per factor (default 20)")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="accepted for compatibility; must be positive, changes neither speed nor output")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexifactor", description="Lexical factor analysis of review corpora.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = [_common_options()]
    subparsers.add_parser("pipeline", help="run every stage in order", parents=common)
    for stage in STAGES:
        subparsers.add_parser(stage, help=_STAGE_HELP[stage], parents=common)
    subparsers.add_parser("verify", help="audit an output directory against its manifest", parents=common)
    return parser


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command: every flag but ``--config`` is a config key."""
    import logging

    from .config import build_config

    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    overrides = vars(args)
    command = overrides.pop("command")
    config = build_config(overrides.pop("config"), overrides)
    if command == "pipeline":
        cmd_pipeline(config)
    elif command == "verify":
        problems = cmd_verify(config)
        if problems:
            for problem in problems:
                print(f"verify: {problem}", file=sys.stderr)
            return EXIT_STAGE
        print("verify: ok")
    else:
        cmd_stage(command, config)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

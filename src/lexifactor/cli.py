"""Command-line entry point.

One subcommand per pipeline stage plus ``pipeline`` (all stages) and
``verify`` (checksum audit of an output directory). Exit codes: 0 on
success, 1 for validation problems, 2 for stage failures, 3 for I/O
failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from . import __version__
from .artifacts import STAGES, cmd_verify
from .config import PipelineConfig, build_config
from .errors import StageError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2
EXIT_IO = 3

_CONFIG_KEYS = tuple(field.name for field in fields(PipelineConfig))

_STAGE_HELP = {
    "ingest": "load and normalize the review corpus",
    "dict": "build the term dictionary",
    "matrix": "build and filter the document-term matrix",
    "efa": "extract, rotate, prune, and refine factors",
    "report": "render the factor report",
}


def cmd_pipeline(config: PipelineConfig) -> None:
    """Run :func:`lexifactor.pipeline.cmd_pipeline`. The numeric layers are
    imported here, when a command that computes runs, so ``verify``,
    ``--version`` and argument errors start without NumPy."""
    from . import pipeline

    pipeline.cmd_pipeline(config)


def cmd_stage(name: str, config: PipelineConfig) -> None:
    """Run :func:`lexifactor.pipeline.cmd_stage`, imported as in :func:`cmd_pipeline`."""
    from . import pipeline

    pipeline.cmd_stage(name, config)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; route through our own codes.
    def error(self, message: str):
        raise ValidationError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexifactor", description="Lexical factor analysis of review corpora.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    _add_common(subparsers.add_parser("pipeline", help="run every stage in order"))
    for stage in STAGES:
        _add_common(subparsers.add_parser(stage, help=_STAGE_HELP[stage]))
    _add_common(subparsers.add_parser("verify", help="audit an output directory against its manifest"))
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {key: getattr(args, key) for key in _CONFIG_KEYS}
        config = build_config(args.config, overrides)
        if args.command == "pipeline":
            cmd_pipeline(config)
        elif args.command == "verify":
            problems = cmd_verify(config)
            if problems:
                for problem in problems:
                    print(f"verify: {problem}", file=sys.stderr)
                return EXIT_STAGE
            print("verify: ok")
        else:
            cmd_stage(args.command, config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Start-up cost guard: each command loads only the layers it uses.

``import lexifactor``, ``--version``, argument errors and ``verify``
load neither NumPy, SciPy nor ``lexifactor.pipeline``: the package's
exports are imported on first access, and ``verify`` reads the output
directory through the standard-library module ``lexifactor.artifacts``.
Of the stage commands, only ``efa`` loads SciPy, for the phi
correlation. Each check runs in a fresh interpreter, because this test
process has imported all of them long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexifactor
from test_pipeline_cli import run_pipeline, write_corpus

_SRC = str(Path(lexifactor.__file__).resolve().parent.parent)

_NUMERIC = ("numpy", "scipy", "lexifactor.pipeline")

_RUN_CLI = f"""
import sys
from lexifactor.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(status, ",".join(name for name in {_NUMERIC!r} if name in sys.modules) or "-")
"""

_LAZY_EXPORTS = """
import sys
import lexifactor
names = [name for name in lexifactor.__all__ if getattr(lexifactor, name, None) is None]
star = {}
exec("from lexifactor import *", star)
try:
    lexifactor.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
from lexifactor import pipeline
print(names, sorted(set(lexifactor.__all__) - set(star)), set(lexifactor.__all__) <= set(dir(lexifactor)),
      unknown, pipeline is sys.modules["lexifactor.pipeline"])
"""


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return result.stdout.splitlines()[-1]


def _cli(*args: str) -> tuple[str, set[str]]:
    """The exit status of ``lexifactor ARGS`` and which of ``numpy``,
    ``scipy`` and ``lexifactor.pipeline`` it loaded."""
    status, loaded = _python("-c", _RUN_CLI, *args).split()
    return status, set(loaded.split(",")) - {"-"}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("corpus") / "reviews.jsonl")


@pytest.fixture(scope="module")
def finished_dir(corpus, lexicon_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("finished")
    assert run_pipeline(corpus, lexicon_dir, out) == 0
    return out


def test_import_does_not_load_scipy():
    loaded = "import sys, lexifactor; print([m for m in ('numpy', 'scipy') if m in sys.modules])"
    assert _python("-c", loaded) == "[]"


def test_version_does_not_load_scipy():
    assert _cli("--version") == ("0", set())


def test_argument_error_loads_no_numeric_layer():
    assert _cli("--no-such-flag") == ("1", set())


def test_verify_does_not_load_scipy(finished_dir):
    assert _cli("verify", "--output-dir", str(finished_dir)) == ("0", set())


def test_lazy_exports_resolve_every_public_name():
    """Every name in ``__all__`` resolves and is listed by ``dir``, a star
    import binds them all, an unknown name is an ``AttributeError``, and
    ``from lexifactor import pipeline`` still gives the submodule."""
    assert _python("-c", _LAZY_EXPORTS) == "[] [] True AttributeError True"


def test_only_efa_loads_scipy(corpus, lexicon_dir, tmp_path):
    config = [
        "--input", str(corpus),
        "--lexicon-dir", str(lexicon_dir),
        "--output-dir", str(tmp_path),
        "--factors", "fixed:2",
    ]
    loaded = {stage: _cli(stage, *config) for stage in ("ingest", "dict", "matrix", "efa", "report")}
    assert {stage: (status, "scipy" in modules) for stage, (status, modules) in loaded.items()} == {
        "ingest": ("0", False),
        "dict": ("0", False),
        "matrix": ("0", False),
        "efa": ("0", True),
        "report": ("0", False),
    }

"""Start-up cost guard: only the commands that correlate load SciPy.

Each check runs in a fresh interpreter, because this test process has
imported SciPy long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexifactor
from test_pipeline_cli import run_pipeline, write_corpus

_SRC = str(Path(lexifactor.__file__).resolve().parent.parent)

_RUN_CLI = """
import sys
from lexifactor.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(status, "scipy" in sys.modules)
"""


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return result.stdout.splitlines()[-1]


def _cli(*args: str) -> tuple[str, bool]:
    status, loaded = _python("-c", _RUN_CLI, *args).split()
    return status, loaded == "True"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("corpus") / "reviews.jsonl")


@pytest.fixture(scope="module")
def finished_dir(corpus, lexicon_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("finished")
    assert run_pipeline(corpus, lexicon_dir, out) == 0
    return out


def test_import_does_not_load_scipy():
    assert _python("-c", "import sys, lexifactor; print('scipy' in sys.modules)") == "False"


def test_version_does_not_load_scipy():
    assert _cli("--version") == ("0", False)


def test_verify_does_not_load_scipy(finished_dir):
    assert _cli("verify", "--output-dir", str(finished_dir)) == ("0", False)


def test_only_efa_loads_scipy(corpus, lexicon_dir, tmp_path):
    config = [
        "--input", str(corpus),
        "--lexicon-dir", str(lexicon_dir),
        "--output-dir", str(tmp_path),
        "--factors", "fixed:2",
    ]
    loaded = {stage: _cli(stage, *config) for stage in ("ingest", "dict", "matrix", "efa", "report")}
    assert loaded == {
        "ingest": ("0", False),
        "dict": ("0", False),
        "matrix": ("0", False),
        "efa": ("0", True),
        "report": ("0", False),
    }

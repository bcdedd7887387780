"""The robustness promises as standing tests, on the fixture corpus.

- A corrupted artifact ends any command in exit 0, 1, 2 or 3, a failing
  stage command prints exactly one error line, no exception escapes
  ``cli.main``, and ``verify`` then exits 0 or 2.
- A command killed just before or just after any of its artifact
  renames leaves a directory that ``verify`` judges (exit 0 or 2,
  no traceback), and a rerun of ``pipeline`` restores every byte and
  leaves no temporary file.
- A path option that a command reads and that names nothing, or a
  directory where a file belongs or a file where a directory does, ends
  the command in exit 1 and one line before it writes anything.

Tier-1 runs a fixed sample of kill points. ``pytest --kill-sweep`` runs
every one, each command over a finished run.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lexifactor
from lexifactor.artifacts import STAGE_ARTIFACTS, STAGES
from lexifactor.cli import main
from test_pipeline_cli import artifact_bytes, corpus, finished_run, run_command, run_pipeline  # noqa: F401

_SRC = str(Path(lexifactor.__file__).resolve().parent.parent)

# The artifacts that stage commands read, and some that only ``verify`` hashes.
READ_BY_STAGES = (
    "manifest.json",
    "reviews.jsonl",
    "dictionary.json",
    "filtered.mtx",
    "filtered.terms.txt",
    "filtered.docs.txt",
    "loading_table.json",
)
HASHED_ONLY = ("matrix.mtx", "model.json", "loadings.csv", "report.json")
COMMANDS = (*STAGES, "verify")
MUTATIONS = (
    "emptied",
    "truncated",
    "bit flipped",
    "byte replaced",
    "JSON value swapped",
    "garbage line appended",
    "last line repeated",
)
JSON_VALUES = (None, 0, -1.5, "x", True, [], {})
GARBAGE_LINES = (b"garbage\n", b"\xff\xfe\n", b"{\n", b"1 2 3\n", b"-1 -1\n", b"\n")


def json_paths(value, path=()):
    """The path of every node of a parsed JSON value, the root's first."""
    yield path
    children = enumerate(value) if isinstance(value, list) else value.items() if isinstance(value, dict) else ()
    for key, child in children:
        yield from json_paths(child, (*path, key))


def swap_json(value, draw):
    """``value``, freshly parsed, with one of its nodes replaced by a JSON
    scalar or an empty shape."""
    path = draw(st.sampled_from(list(json_paths(value))))
    if not path:
        return draw(st.sampled_from(JSON_VALUES))
    node = value
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(st.sampled_from(JSON_VALUES))
    return value


def mutate(name: str, data: bytes, mutation: str, draw) -> bytes:
    if mutation == "emptied" or not data:
        return b""
    if mutation == "truncated":
        return data[: draw(st.integers(0, len(data) - 1))]
    if mutation in ("bit flipped", "byte replaced"):
        at = draw(st.integers(0, len(data) - 1))
        if mutation == "bit flipped":
            byte = data[at] ^ (1 << draw(st.integers(0, 7)))
        else:
            byte = draw(st.integers(0, 255).filter(lambda b: b != data[at]))
        return data[:at] + bytes([byte]) + data[at + 1 :]
    if mutation == "garbage line appended":
        return data + draw(st.sampled_from(GARBAGE_LINES))
    lines = data.splitlines(keepends=True)
    if mutation == "last line repeated":
        return data + lines[-1]
    # A JSON value swapped: a node of a JSON artifact, of one line of
    # the JSON Lines corpus, or the whole of any other file.
    if name.endswith(".json"):
        return json.dumps(swap_json(json.loads(data), draw)).encode()
    if name.endswith(".jsonl"):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = json.dumps(swap_json(json.loads(lines[at]), draw)).encode() + b"\n"
        return b"".join(lines)
    return json.dumps(draw(st.sampled_from(JSON_VALUES))).encode()


def run_quietly(command, corpus, lexicon_dir, out) -> tuple[int, str]:
    """``command``'s exit code and what it printed to stderr."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run_command(command, corpus, lexicon_dir, out)
    return code, err.getvalue()


@given(
    name=st.sampled_from(READ_BY_STAGES + HASHED_ONLY),
    mutation=st.sampled_from(MUTATIONS),
    command=st.sampled_from(COMMANDS),
    data=st.data(),
)
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_corrupted_artifact_ends_in_an_exit_code_and_one_line(
    corpus, lexicon_dir, finished_run, name, mutation, command, data
):
    with tempfile.TemporaryDirectory() as scratch:
        out = shutil.copytree(finished_run, Path(scratch) / "out")
        path = out / name
        path.write_bytes(mutate(name, path.read_bytes(), mutation, data.draw))

        code, err = run_quietly(command, corpus, lexicon_dir, out)
        assert code in (0, 1, 2, 3)
        if code and command != "verify":
            assert err.count("\n") == 1 and err.startswith("error: "), err
        if command == "verify":
            assert all(line.startswith(("verify: ", "error: ")) for line in err.splitlines()), err
        # A failed stage may have replaced some of its artifacts already,
        # so what the directory holds is for verify to judge.
        assert run_quietly("verify", corpus, lexicon_dir, out)[0] in (0, 2)


# The path options each command reads besides ``--config``, which all read.
PATH_OPTIONS = {
    "pipeline": ("--input", "--lexicon-dir", "--stopwords", "--labels"),
    "ingest": ("--input",),
    "dict": ("--lexicon-dir", "--stopwords"),
    "report": ("--labels",),
}


@given(command=st.sampled_from(("pipeline", *COMMANDS)), finished=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bad_path_option_ends_in_one_line_and_changes_nothing(
    corpus, lexicon_dir, finished_run, command, finished, data
):
    option = data.draw(st.sampled_from(("--config", *PATH_OPTIONS.get(command, ()))))
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        wrong_kind = corpus if option == "--lexicon-dir" else scratch
        bad = data.draw(st.sampled_from((scratch / "nope", wrong_kind)))
        out = shutil.copytree(finished_run, scratch / "out") if finished else scratch / "out"
        before = artifact_bytes(out) if finished else None

        args = [command, "--output-dir", str(out), "--input", str(corpus), "--lexicon-dir", str(lexicon_dir),
                "--factors", "fixed:2", option, str(bad)]
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(args)
        assert code == 1 and err.getvalue().count("\n") == 1, err.getvalue()
        assert (artifact_bytes(out) if out.exists() else None) == before


# Kills the command in argv[3:] when os.replace is called for the
# argv[1]-th time, just before the rename ("before") or just after it.
KILL_AT_RENAME = """
import os, sys
from lexifactor.cli import main

nth, when, calls, replace = int(sys.argv[1]), sys.argv[2], 0, os.replace

def dying_replace(source, target):
    global calls
    calls += 1
    if calls == nth and when == "before":
        os._exit(137)
    replace(source, target)
    if calls == nth:
        os._exit(137)

os.replace = dying_replace
sys.exit(main(sys.argv[3:]))
"""

# Each stage renames its artifacts, then the manifest.
RENAMES = {stage: len(STAGE_ARTIFACTS[stage]) + 1 for stage in STAGES}
RENAMES["pipeline"] = sum(RENAMES.values())
ALL_KILL_POINTS = [
    (command, nth, when)
    for command, count in RENAMES.items()
    for nth in range(1, count + 1)
    for when in ("before", "after")
]
SAMPLE_KILL_POINTS = [
    ("pipeline", 1, "before"),
    ("pipeline", 10, "after"),
    ("matrix", 4, "before"),
    ("report", 3, "after"),
]


def pytest_generate_tests(metafunc):
    if "kill_point" in metafunc.fixturenames:
        points = ALL_KILL_POINTS if metafunc.config.getoption("kill_sweep") else SAMPLE_KILL_POINTS
        metafunc.parametrize("kill_point", points, ids=["-".join(map(str, point)) for point in points])


def test_killed_command_leaves_a_verifiable_and_restorable_directory(
    kill_point, corpus, lexicon_dir, finished_run, tmp_path
):
    command, nth, when = kill_point
    out = shutil.copytree(finished_run, tmp_path / "out")
    args = [command, "--output-dir", str(out), "--input", str(corpus), "--lexicon-dir", str(lexicon_dir),
            "--factors", "fixed:2"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    killed = subprocess.run(
        [sys.executable, "-c", KILL_AT_RENAME, str(nth), when, *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert killed.returncode == 137, killed.stderr  # the kill point was reached

    code, err = run_quietly("verify", corpus, lexicon_dir, out)
    assert code in (0, 2), err
    assert run_pipeline(corpus, lexicon_dir, out) == 0
    assert not list(out.glob("*.tmp")) and not list(out.glob(".*.tmp"))
    assert artifact_bytes(out) == artifact_bytes(finished_run)

"""The README's library example and stage commands run as written.

In the library example only its two input paths are replaced: the
review file by a small seeded corpus and the lexical database by the
fixture lexicon. The stage commands run unchanged in a directory that
holds those two under the names the README gives them.
"""

import json
import re
import shlex
from pathlib import Path

from lexifactor.cli import main
from test_acceptance import build_review_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_the_pipeline_table(lexicon_dir, tmp_path, capsys):
    corpus = build_review_corpus(tmp_path / "reviews.jsonl")
    code = library_example()
    for path, replacement in (("reviews.jsonl", corpus), ("/data/wordnet", lexicon_dir)):
        assert code.count(f'"{path}"') == 1
        code = code.replace(f'"{path}"', repr(str(replacement)))
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out

    # The CLI with the same settings renders the same factor table.
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(corpus), "--lexicon-dir", str(lexicon_dir),
                 "--output-dir", str(out), "--factors", "kaiser",
                 "--threshold", "0.3", "--retain", "15"]) == 0
    table = (out / "report.md").read_text(encoding="utf-8").split("## Exemplar reviews")[0]
    assert printed.startswith(table)
    assert printed.count("\n| ") == 2 + 15  # header, rule and 15 factors


def stage_example() -> tuple[str, list[str]]:
    """The config file and the command lines of the stagewise example."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Stages can run individually") :]
    config, commands = re.search(r"```\n(.*?)```\n\n```sh\n(.*?)```", section, re.S).groups()
    return config, commands.splitlines()


def test_stage_commands_run_as_written(lexicon_dir, tmp_path, monkeypatch, capsys):
    config, commands = stage_example()
    build_review_corpus(tmp_path / "reviews.jsonl")
    (tmp_path / "db").symlink_to(lexicon_dir)
    (tmp_path / "labels.json").write_text(json.dumps({"1": "suites"}), encoding="utf-8")
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    assert [shlex.split(line)[:2] for line in commands] == [
        ["lexifactor", stage] for stage in ("ingest", "dict", "matrix", "efa", "report", "verify")
    ]
    for line in commands:
        capsys.readouterr()
        assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == "verify: ok\n"
    assert "| suites |" in (tmp_path / "out" / "report.md").read_text(encoding="utf-8")

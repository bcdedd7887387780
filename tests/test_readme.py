"""The README's library example runs as written.

Only its two input paths are replaced: the review file by a small
seeded corpus and the lexical database by the fixture lexicon.
"""

import re
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

import csv
import fcntl
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import from_dense, random_binary
import lexifactor
from lexifactor import (
    StageError,
    build_config,
    cmd_pipeline,
    cmd_stage,
    cmd_verify,
    column_stats,
    load_reviews,
    load_stopwords,
    tokenize,
)
from lexifactor import lexicon as lexicon_module
from lexifactor import matrix as matrix_module
from lexifactor import pipeline as pipeline_module
from lexifactor import report as report_module
from lexifactor.artifacts import TermColumns
from lexifactor.cli import main
from lexifactor.mmio import read_matrix_market, write_matrix_market

VOCAB_GROUP_A = ["suite", "tickets", "agent"]
VOCAB_GROUP_B = ["glasses", "box", "churches"]
VOCAB_FILLER = ["noise", "user", "support", "team", "review", "chat", "email", "bot"]


def write_corpus(path, n_docs=60, seed=3, filler=VOCAB_FILLER):
    """Corpus over the fixture lexicon: two co-occurring word groups plus
    independent filler words, with inflected forms mixed in."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_docs):
        words = ["the", "and"]  # stopwords: must not surface anywhere
        if rng.random() < 0.5:
            words += [w for w in VOCAB_GROUP_A if rng.random() < 0.8]
        if rng.random() < 0.5:
            words += [w for w in VOCAB_GROUP_B if rng.random() < 0.8]
        words += [w for w in filler if rng.random() < 0.25]
        record = {"id": f"d{i:03d}", "source": "g2", "text": " ".join(words)}
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("corpus") / "reviews.jsonl")


@pytest.fixture(scope="module")
def finished_run(corpus, lexicon_dir, tmp_path_factory):
    """An output directory of one full pipeline run, to copy, not to change."""
    out = tmp_path_factory.mktemp("finished") / "out"
    assert run_pipeline(corpus, lexicon_dir, out) == 0
    return out


def jsonl_lines(*texts, ids=None):
    """One review record per text, with ids ``ids`` (default d0, d1, ...)."""
    ids = ids or [f"d{i}" for i in range(len(texts))]
    return [json.dumps({"id": id_, "source": "g2", "text": text}) for id_, text in zip(ids, texts)]


def run_command(command, corpus, lexicon_dir, out):
    """Run ``command`` as :func:`run_stages` runs a stage; ``verify``
    takes the output directory only."""
    args = [command, "--output-dir", str(out)]
    if command != "verify":
        args += ["--input", str(corpus), "--lexicon-dir", str(lexicon_dir), "--factors", "fixed:2"]
    return main(args)


def _efa_counts_as_list(text):
    manifest = json.loads(text)
    manifest["stages"]["efa"]["counts"] = [1]
    return json.dumps(manifest)


def _first_table_term_as_list(text):
    table = json.loads(text)
    table["factors"][0]["entries"][0][0] = ["suite"]
    return json.dumps(table)


def run_stages(corpus, lexicon_dir, out, extra=()):
    """Run the five stage commands in order; return their exit codes."""
    return [
        main(
            [
                stage,
                "--input",
                str(corpus),
                "--lexicon-dir",
                str(lexicon_dir),
                "--output-dir",
                str(out),
                "--factors",
                "fixed:2",
                *extra,
            ]
        )
        for stage in ("ingest", "dict", "matrix", "efa", "report")
    ]


def run_pipeline(corpus, lexicon_dir, out, extra=()):
    return main(
        [
            "pipeline",
            "--input",
            str(corpus),
            "--lexicon-dir",
            str(lexicon_dir),
            "--output-dir",
            str(out),
            "--factors",
            "fixed:2",
            *extra,
        ]
    )


def stage_config(corpus, lexicon_dir, out):
    return build_config(
        overrides={
            "input": str(corpus),
            "lexicon_dir": str(lexicon_dir),
            "output_dir": str(out),
            "factors": "fixed:2",
        }
    )


def count_tokenize_calls(monkeypatch) -> Counter:
    """Count ``tokenize`` calls, by text, wherever the package calls it."""
    calls = Counter()

    def counted_tokenize(text):
        calls[text] += 1
        return tokenize(text)

    for module in (lexicon_module, matrix_module):
        monkeypatch.setattr(module, "tokenize", counted_tokenize)
    return calls


@contextmanager
def held_lock(out):
    """Hold the run lock on ``out``; raises ``BlockingIOError`` at once
    if a run holds it."""
    fd = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


# Takes the run lock on the directory in argv[1], says so, and waits.
HOLD_LOCK = """
import fcntl, os, sys, time
fd = os.open(sys.argv[1], os.O_RDONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
time.sleep(600)
"""


def artifact_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.is_file()}


class TestEndToEnd:
    def test_pipeline_produces_consistent_artifacts(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0

        expected = {
            "reviews.jsonl",
            "dictionary.json",
            "matrix.mtx",
            "matrix.terms.txt",
            "matrix.docs.txt",
            "filtered.mtx",
            "filtered.terms.txt",
            "filtered.docs.txt",
            "filter_report.json",
            "model.json",
            "loading_table.json",
            "loadings.csv",
            "report.md",
            "report.json",
            "manifest.json",
        }
        assert {p.name for p in out.iterdir()} == expected  # no lock or temporary file left

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["factors"] == "fixed:2"
        assert "threads" not in manifest["config"]
        assert "output_dir" not in manifest["config"]
        assert manifest["stages"]["ingest"]["counts"]["reviews"] == 60

        model = json.loads((out / "model.json").read_text())
        assert model["k"] == 2
        table = json.loads((out / "loading_table.json").read_text())
        assert len(table["factors"]) <= 2

        config = build_config(overrides={"output_dir": str(out)})
        assert cmd_verify(config) == []

    def test_stopwords_never_become_terms(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(corpus, lexicon_dir, out)
        payload = json.loads((out / "dictionary.json").read_text())
        terms = {record["term"] for record in payload["terms"]}
        assert "the" not in terms and "and" not in terms
        # inflected forms surface as their base lemmas
        assert "ticket" in terms and "glass" in terms and "church" in terms

    def test_csv_input(self, lexicon_dir, tmp_path):
        corpus = tmp_path / "reviews.csv"
        corpus.write_text(
            "id,source,text\n"
            'a,g2,"suite, tickets"\n'
            "b,ph,glasses box\n"
            "c,tp,suite ticket agent\n"
            "d,g2,box churches\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(
            [
                "pipeline",
                "--input",
                str(corpus),
                "--format",
                "csv",
                "--lexicon-dir",
                str(lexicon_dir),
                "--output-dir",
                str(out),
                "--factors",
                "fixed:1",
                "--min-variance",
                "0.05",
            ]
        )
        assert code == 0
        reviews = (out / "reviews.jsonl").read_text().splitlines()
        assert json.loads(reviews[0]) == {"id": "a", "source": "g2", "text": "suite, tickets"}

    def test_labels_reach_report(self, corpus, lexicon_dir, tmp_path):
        labels = tmp_path / "labels.json"
        labels.write_text('{"1": "Office Suites"}', encoding="utf-8")
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out, extra=("--labels", str(labels))) == 0
        assert "Office Suites" in (out / "report.md").read_text()
        payload = json.loads((out / "report.json").read_text())
        assert payload["factors"][0]["label"] == "Office Suites"


class TestDeterminism:
    def test_thread_count_does_not_change_artifact_bytes(self, corpus, lexicon_dir, tmp_path):
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert run_pipeline(corpus, lexicon_dir, out1, extra=("--threads", "1")) == 0
        assert run_pipeline(corpus, lexicon_dir, out8, extra=("--threads", "8")) == 0
        assert artifact_bytes(out1) == artifact_bytes(out8)

    def test_stage_sequence_matches_pipeline(self, corpus, lexicon_dir, tmp_path):
        whole, staged = tmp_path / "whole", tmp_path / "staged"
        assert run_pipeline(corpus, lexicon_dir, whole) == 0
        assert run_stages(corpus, lexicon_dir, staged) == [0] * 5
        assert artifact_bytes(whole) == artifact_bytes(staged)

    def test_custom_stopword_counts_toward_neither_doc_freq_nor_column(
        self, lexicon_dir, tmp_path
    ):
        # "glasses" lemmatizes to "glass", which other reviews hold as is.
        corpus = write_corpus(tmp_path / "reviews.jsonl", filler=[*VOCAB_FILLER, "glass"])
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\nand\nglasses\n", encoding="utf-8")
        extra = ("--stopwords", str(stopwords))
        whole, staged = tmp_path / "whole", tmp_path / "staged"
        assert run_pipeline(corpus, lexicon_dir, whole, extra) == 0
        assert run_stages(corpus, lexicon_dir, staged, extra) == [0] * 5
        assert artifact_bytes(whole) == artifact_bytes(staged)

        records = json.loads((whole / "dictionary.json").read_text())["terms"]
        assert "glass" in {record["term"] for record in records}
        matrix = read_matrix_market(whole / "matrix.mtx")
        assert matrix.terms == tuple(record["term"] for record in records)
        assert column_stats(matrix).df.tolist() == [record["doc_freq"] for record in records]

    def test_hash_seed_does_not_change_artifact_bytes(self, corpus, lexicon_dir, tmp_path):
        # Set and dict iteration order over strings follows PYTHONHASHSEED,
        # so a run in a fresh interpreter per seed shows any that leaks.
        src = str(Path(lexicon_module.__file__).parents[1])
        outputs = []
        for seed in ("0", "4242"):
            out = tmp_path / f"seed{seed}"
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            subprocess.run(
                [sys.executable, "-m", "lexifactor", "pipeline", "--input", str(corpus),
                 "--lexicon-dir", str(lexicon_dir), "--output-dir", str(out), "--factors", "fixed:2"],
                env=env, check=True, capture_output=True,
            )
            outputs.append(artifact_bytes(out))
        assert len(outputs[0]) == 15
        assert outputs[0] == outputs[1]

    def test_rerun_is_byte_identical(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(corpus, lexicon_dir, out)
        first = artifact_bytes(out)
        run_pipeline(corpus, lexicon_dir, out)
        assert artifact_bytes(out) == first


class TestWorkCounts:
    def test_pipeline_parses_once_and_lemmatizes_each_token_once(
        self, corpus, lexicon_dir, tmp_path, monkeypatch
    ):
        parses = []
        lemmatized = Counter()
        parse = pipeline_module.parse_lexical_database
        lemmatize_token = lexicon_module.lemmatize_token

        def counted_parse(root):
            parses.append(root)
            return parse(root)

        def counted_lemmatize(lexicon, token):
            lemmatized[token] += 1
            return lemmatize_token(lexicon, token)

        monkeypatch.setattr(pipeline_module, "parse_lexical_database", counted_parse)
        for module in (lexicon_module, matrix_module):
            monkeypatch.setattr(module, "lemmatize_token", counted_lemmatize)
        assert run_pipeline(corpus, lexicon_dir, tmp_path / "out") == 0

        assert len(parses) == 1
        tokens = {token for review in load_reviews(corpus) for token in tokenize(review.text)}
        assert tokens & load_stopwords()
        # Stopword tokens are never lemmatized.
        assert lemmatized == Counter(dict.fromkeys(tokens - load_stopwords(), 1))

    def test_pipeline_reads_the_corpus_once_and_tokenizes_each_review_once(
        self, corpus, lexicon_dir, tmp_path, monkeypatch
    ):
        reviews = load_reviews(corpus)
        loads = []

        def counted_load(path, format="jsonl"):
            loads.append(path)
            return load_reviews(path, format)

        def no_reload(cls, payload, path):
            raise AssertionError("dictionary.json read back inside one run")

        monkeypatch.setattr(pipeline_module, "load_reviews", counted_load)
        monkeypatch.setattr(TermColumns, "from_json_dict", classmethod(no_reload))
        tokenized = count_tokenize_calls(monkeypatch)
        assert run_pipeline(corpus, lexicon_dir, tmp_path / "out") == 0

        assert loads == [corpus]
        assert tokenized == Counter(review.text for review in reviews)

    def test_lone_matrix_stage_tokenizes_each_review_once(
        self, corpus, lexicon_dir, tmp_path, monkeypatch
    ):
        config = stage_config(corpus, lexicon_dir, tmp_path / "out")
        cmd_stage("ingest", config)
        cmd_stage("dict", config)
        tokenized = count_tokenize_calls(monkeypatch)
        cmd_stage("matrix", config)
        assert tokenized == Counter(review.text for review in load_reviews(corpus))


class TestLoneMatrixStage:
    """A lone ``matrix`` command reads ``reviews.jsonl`` and
    ``dictionary.json`` only: the terms' recorded forms stand in for the
    lexical database and the stopword list."""

    def test_needs_neither_lexicon_nor_lemmatizer_nor_stopwords(
        self, corpus, lexicon_dir, tmp_path, monkeypatch
    ):
        whole, staged = tmp_path / "whole", tmp_path / "staged"
        assert run_pipeline(corpus, lexicon_dir, whole) == 0
        assert [run_command(stage, corpus, lexicon_dir, staged) for stage in ("ingest", "dict")] == [0, 0]

        def unused(*args, **kwargs):
            raise AssertionError("the matrix stage used the lexical layer")

        for module, name in (
            (pipeline_module, "parse_lexical_database"),
            (lexicon_module, "parse_lexical_database"),
            (pipeline_module, "load_stopwords"),
            (lexicon_module, "load_stopwords"),
            (lexicon_module, "lemmatize_token"),
            (matrix_module, "lemmatize_token"),
        ):
            monkeypatch.setattr(module, name, unused)
        assert run_command("matrix", corpus, lexicon_dir, staged) == 0
        monkeypatch.undo()
        assert [run_command(stage, corpus, lexicon_dir, staged) for stage in ("efa", "report")] == [0, 0]
        assert artifact_bytes(staged) == artifact_bytes(whole)

    def test_runs_with_the_lexicon_directory_moved_away(self, corpus, lexicon_dir, tmp_path, capsys):
        lexicon = shutil.copytree(lexicon_dir, tmp_path / "lexicon")
        whole, staged = tmp_path / "whole", tmp_path / "staged"
        assert run_pipeline(corpus, lexicon, whole) == 0
        assert [run_command(stage, corpus, lexicon, staged) for stage in ("ingest", "dict")] == [0, 0]
        lexicon.rename(tmp_path / "elsewhere")
        codes = [run_command(stage, corpus, lexicon, staged) for stage in ("matrix", "efa", "report")]
        assert codes == [0, 0, 0]
        assert artifact_bytes(staged) == artifact_bytes(whole)
        capsys.readouterr()
        assert run_command("verify", corpus, lexicon, staged) == 0
        assert capsys.readouterr().out == "verify: ok\n"

    @pytest.mark.parametrize(
        "forms, message",
        [(None, "'forms'"), ("glass", "got 'glass'"), (["glass", 7], "got ['glass', 7]")],
        ids=["missing", "string", "number"],
    )
    def test_dictionary_without_forms_is_stage_error(
        self, forms, message, corpus, lexicon_dir, finished_run, tmp_path, capsys
    ):
        """A record without a list of string forms, such as one from a
        version that wrote none, ends the command in one line naming the
        file."""
        out = shutil.copytree(finished_run, tmp_path / "out")
        path = out / "dictionary.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        for record in payload["terms"]:
            del record["forms"]
            if forms is not None:
                record["forms"] = forms
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run_command("matrix", corpus, lexicon_dir, out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: malformed dictionary payload: ")
        assert message in err


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda records: records[1].update(term=7), "malformed dictionary payload: expected a list of strings, got [7]"),
            (lambda records: records[1].update(term=records[0]["term"]), "term {first!r} is listed twice"),
        ],
        ids=["number", "repeated"],
    )
    def test_dictionary_terms_must_be_distinct_strings(
        self, edit, message, corpus, lexicon_dir, finished_run, tmp_path, capsys
    ):
        """A term that is no string would end in a traceback from the
        Matrix Market writer; a repeated one would write a matrix with a
        duplicate entry, which ``read_matrix_market`` refuses."""
        out = shutil.copytree(finished_run, tmp_path / "out")
        path = out / "dictionary.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload["terms"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        before = artifact_bytes(out)
        capsys.readouterr()
        assert run_command("matrix", corpus, lexicon_dir, out) == 2
        first = payload["terms"][0]["term"]
        assert capsys.readouterr().err == f"error: {path}: {message.format(first=first)}\n"
        assert artifact_bytes(out) == before


class TestCrashSafeWrites:
    """An encoder that fails mid-write leaves the previous artifact whole
    and no temporary file behind."""

    @staticmethod
    def fail_after(calls, function):
        """``function`` for its first ``calls`` calls; every later call raises."""
        count = iter(range(calls))

        def failing(*args, **kwargs):
            if next(count, None) is None:
                raise RuntimeError("encoder failed mid-write")
            return function(*args, **kwargs)

        return failing

    def test_reviews_jsonl(self, corpus, lexicon_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        before = artifact_bytes(out)
        # The third record fails, after two have been written.
        monkeypatch.setattr(json, "dumps", self.fail_after(2, json.dumps))
        with pytest.raises(RuntimeError):
            cmd_stage("ingest", stage_config(corpus, lexicon_dir, out))
        assert artifact_bytes(out) == before
        assert sorted(path.name for path in out.iterdir()) == sorted(before)

    def test_loadings_csv(self, corpus, lexicon_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        before = artifact_bytes(out)
        writer, fail_after = csv.writer, self.fail_after

        class FailingWriter:  # the fourth row fails, after the header and two rows
            def __init__(self, handle, **kwargs):
                self.writerow = fail_after(3, writer(handle, **kwargs).writerow)

        monkeypatch.setattr(report_module.csv, "writer", FailingWriter)
        with pytest.raises(RuntimeError):
            cmd_stage("efa", stage_config(corpus, lexicon_dir, out))
        assert artifact_bytes(out) == before
        assert sorted(path.name for path in out.iterdir()) == sorted(before)


class TestConfigHandling:
    def test_config_file_applies_and_flags_win(self, corpus, lexicon_dir, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            "# pipeline settings\n"
            f"input = {corpus}\n"
            f"lexicon_dir = {lexicon_dir}\n"
            "factors = fixed:1\n"
            "threshold = 0.9\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(
            ["pipeline", "--config", str(config_file), "--output-dir", str(out), "--factors", "fixed:2"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["factors"] == "fixed:2"  # flag beat the file
        assert manifest["config"]["threshold"] == 0.9

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        config_file = tmp_path / "run.conf"
        config_file.write_text("fish = 1\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(config_file)]) == 1
        assert "fish" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text("threshold 0.3\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(config_file)]) == 1

    def test_config_file_that_is_not_utf8_is_validation_error(self, tmp_path, capsys):
        config_file = tmp_path / "run.conf"
        config_file.write_bytes(b"factors = fixed:2\xff\n")
        assert main(["pipeline", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err == f"error: config file is not UTF-8 text: {config_file}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "config file not found: {path}"),
            ("retain = 3\nretain = 4\n", "{path}:2: duplicate config key 'retain'"),
            ("threshold = high\n", "config key 'threshold': cannot parse 'high'"),
        ],
        ids=["missing", "duplicate-key", "unparseable-value"],
    )
    def test_config_file_error_is_one_validation_line(self, text, message, tmp_path, capsys):
        config_file = tmp_path / "run.conf"
        if text is not None:
            config_file.write_text(text, encoding="utf-8")
        assert main(["pipeline", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=config_file)}\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "config-file"])
    def test_threshold_that_is_not_finite_is_validation_error(
        self, source, value, corpus, lexicon_dir, tmp_path, capsys
    ):
        """A NaN threshold would discard every loading and put ``NaN``,
        which is not JSON, into ``manifest.json`` and ``loading_table.json``."""
        extra = ("--threshold", value)
        if source == "config-file":
            config_file = tmp_path / "run.conf"
            config_file.write_text(f"threshold = {value}\n", encoding="utf-8")
            extra = ("--config", str(config_file))
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out, extra) == 1
        assert capsys.readouterr().err == f"error: threshold must be non-negative, got {value}\n"
        assert not out.exists()

    def test_stage_with_different_config_refused(self, corpus, lexicon_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        code = main(
            [
                "efa",
                "--lexicon-dir",
                str(lexicon_dir),
                "--output-dir",
                str(out),
                "--factors",
                "fixed:2",
                "--threshold",
                "0.5",
            ]
        )
        assert code == 2
        assert "different configuration" in capsys.readouterr().err


    @pytest.mark.parametrize("stage", ["ingest", "dict", "matrix", "efa", "report"])
    def test_refused_stage_writes_nothing(self, stage, corpus, lexicon_dir, finished_run, tmp_path, capsys):
        """A stage command whose configuration differs from the manifest's
        is refused before it runs: here a stopword list that stops the
        fixture corpus's most frequent term, which would change
        ``dictionary.json``."""
        out = shutil.copytree(finished_run, tmp_path / "out")
        records = json.loads((out / "dictionary.json").read_text(encoding="utf-8"))["terms"]
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\nand\n" + "\n".join(records[0]["forms"]) + "\n", encoding="utf-8")
        before = artifact_bytes(out)
        capsys.readouterr()
        code = main([stage, "--input", str(corpus), "--lexicon-dir", str(lexicon_dir),
                     "--output-dir", str(out), "--factors", "fixed:2", "--stopwords", str(stopwords)])
        assert code == 2
        assert "different configuration" in capsys.readouterr().err
        assert artifact_bytes(out) == before
        assert main(["verify", "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out == "verify: ok\n"


class TestExitCodes:
    def test_missing_command_is_validation(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_is_validation(self, capsys):
        assert main(["pipeline", "--threads", "zero"]) == 1

    def test_semantic_validation(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out, extra=("--threads", "0")) == 1
        assert run_pipeline(corpus, lexicon_dir, out, extra=("--min-variance", "0.4")) == 1
        assert run_pipeline(corpus, lexicon_dir, out, extra=("--factors", "some")) == 1

    def test_missing_input_is_validation(self, lexicon_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "pipeline",
                    "--input",
                    str(tmp_path / "nope.jsonl"),
                    "--lexicon-dir",
                    str(lexicon_dir),
                    "--output-dir",
                    str(out),
                ]
            )
            == 1
        )
        assert capsys.readouterr().err == f"error: input not found: {tmp_path / 'nope.jsonl'}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--input", "directory", "input is not a file: "),
            ("--stopwords", "directory", "stopwords is not a file: "),
            ("--stopwords", "", "stopwords is not a file: ."),
            ("--labels", "directory", "labels is not a file: "),
            ("--config", "directory", "config file is a directory: "),
            ("--lexicon-dir", "file", "lexicon_dir is not a directory: "),
            ("--labels", "missing", "labels not found: "),
            ("--lexicon-dir", "missing", "lexicon_dir not found: "),
            ("--lexicon-dir", None, "lexicon_dir is required"),
        ],
        ids=["input-dir", "stopwords-dir", "stopwords-empty", "labels-dir", "config-dir", "lexicon-file",
             "labels-missing", "lexicon-missing", "lexicon-unset"],
    )
    def test_bad_path_option_is_one_validation_line_before_any_write(
        self, option, value, message, corpus, lexicon_dir, tmp_path, capsys
    ):
        values = {"directory": str(tmp_path), "file": str(corpus), "missing": str(tmp_path / "nope"), "": ""}
        options = {"--input": str(corpus), "--lexicon-dir": str(lexicon_dir), "--factors": "fixed:2"}
        if value is None:
            del options[option]
        else:
            options[option] = values[value]
        out = tmp_path / "out"
        assert main(["pipeline", "--output-dir", str(out), *(arg for pair in options.items() for arg in pair)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "dict"])
    def test_missing_stopwords_is_validation(self, command, corpus, lexicon_dir, tmp_path, capsys):
        stopwords = tmp_path / "nope.txt"
        args = ["--input", str(corpus), "--lexicon-dir", str(lexicon_dir), "--output-dir", str(tmp_path / "out"),
                "--factors", "fixed:2", "--stopwords", str(stopwords)]
        if command == "dict":
            assert main(["ingest", *args]) == 0  # ingest reads no stopwords
        capsys.readouterr()
        assert main([command, *args]) == 1
        assert capsys.readouterr().err == f"error: stopwords not found: {stopwords}\n"

    def test_stage_without_upstream_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["efa", "--output-dir", str(out)]) == 2
        assert "missing required artifact" in capsys.readouterr().err

    def test_unparseable_corpus_is_stage_error(self, lexicon_dir, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("{broken\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 2

    def test_overlong_index_in_filtered_matrix_is_stage_error(
        self, corpus, lexicon_dir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        path = out / "filtered.mtx"
        header, size = path.read_text(encoding="utf-8").split("\n")[:2]
        rows, columns, _ = size.split()
        path.write_text(f"{header}\n{rows} {columns} 1\n{'1' * 5000} 1\n", encoding="utf-8")
        capsys.readouterr()
        code = main(
            [
                "efa",
                "--input",
                str(corpus),
                "--lexicon-dir",
                str(lexicon_dir),
                "--output-dir",
                str(out),
                "--factors",
                "fixed:2",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}:3: entry (111")
        assert err.endswith(f", 1) outside {rows}x{columns}\n")

    @pytest.mark.parametrize(
        "lines, extra, message",
        [
            (jsonl_lines("suite", "agent", ids="aa"), (), "{corpus}: duplicate review id: 'a'"),
            (jsonl_lines("suite")[:1] + ['{"id": "b", "source": "g2"}'], (), "{corpus}:2: missing field 'text'"),
            (jsonl_lines("qwzzk zzkqw", "the of and"), (), "no candidate terms survived dictionary construction"),
            (jsonl_lines("suite", "suite", "agent"), ("--min-variance", "0.25"), "no columns with variance >= 0.25"),
            (
                jsonl_lines("suite agent", "suite", "suite box"),
                ("--min-variance", "0"),
                "constant columns have no correlation: suite",
            ),
        ],
        ids=["duplicate-id", "missing-text", "no-terms", "no-columns", "constant-column"],
    )
    def test_stage_failure_is_one_error_line(self, lines, extra, message, lexicon_dir, tmp_path, capsys):
        corpus = tmp_path / "reviews.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_pipeline(corpus, lexicon_dir, tmp_path / "out", extra) == 2
        assert capsys.readouterr().err == f"error: {message.format(corpus=corpus)}\n"

    def test_verify_without_manifest(self, tmp_path, capsys):
        assert main(["verify", "--output-dir", str(tmp_path / "empty")]) == 2
        assert capsys.readouterr().err == f"error: missing required artifact: {tmp_path / 'empty' / 'manifest.json'}\n"

    def test_verify_detects_tampering(self, corpus, lexicon_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(corpus, lexicon_dir, out)
        (out / "loadings.csv").write_text("factor,term,loading,retained\n", encoding="utf-8")
        assert main(["verify", "--output-dir", str(out)]) == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_verify_compares_kept_columns_with_size_line(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        kept = manifest["stages"]["matrix"]["counts"]["kept_columns"]
        manifest["stages"]["matrix"]["counts"]["kept_columns"] = kept + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        config = build_config(overrides={"output_dir": str(out)})
        assert cmd_verify(config) == [
            f"matrix: manifest says {kept + 1} kept columns, matrix has {kept}"
        ]

    def test_verify_compares_term_count_with_dictionary(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        terms = manifest["stages"]["dict"]["counts"]["terms"]
        manifest["stages"]["dict"]["counts"]["terms"] = terms + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        config = build_config(overrides={"output_dir": str(out)})
        assert cmd_verify(config) == [f"dict: manifest says {terms + 1} terms, file lists {terms}"]

    @pytest.mark.parametrize("command", ["verify", "efa"])
    def test_manifest_of_another_version_is_stage_error(
        self, command, corpus, lexicon_dir, finished_run, tmp_path, capsys
    ):
        out = shutil.copytree(finished_run, tmp_path / "out")
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["version"] = {}
        path.write_text(json.dumps(manifest), encoding="utf-8")
        before = artifact_bytes(out)
        capsys.readouterr()
        assert run_command(command, corpus, lexicon_dir, out) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: manifest of lexifactor version {{}}, not {lexifactor.__version__}; "
            "re-run the full pipeline or use a fresh output directory\n"
        )
        assert artifact_bytes(out) == before

    @pytest.mark.parametrize(
        "edit",
        [
            lambda stages: stages["efa"]["artifacts"].pop("loadings.csv"),
            lambda stages: stages["efa"]["artifacts"].update({"extra.csv": "0" * 64}),
            lambda stages: stages.update(bogus={"artifacts": {}, "counts": {}}),
        ],
        ids=["artifact-dropped", "artifact-added", "unknown-stage"],
    )
    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_manifest_with_wrong_names_is_stage_error(
        self, edit, command, corpus, lexicon_dir, finished_run, tmp_path, capsys
    ):
        """A changed ``loadings.csv`` cannot pass ``verify`` by leaving the
        manifest entry that records it, nor by hiding among made-up names."""
        out = shutil.copytree(finished_run, tmp_path / "out")
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest["stages"])
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with open(out / "loadings.csv", "a", encoding="utf-8") as handle:
            handle.write("3,suite,0.5,yes\n")
        capsys.readouterr()
        assert run_command(command, corpus, lexicon_dir, out) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not a run manifest: each stage must map to its artifact names and a counts object\n"
        )

    def test_verify_ok_prints_and_returns_zero(self, corpus, lexicon_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(corpus, lexicon_dir, out)
        assert main(["verify", "--output-dir", str(out)]) == 0
        assert "verify: ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, name, edit",
        [
            ("verify", "manifest.json", lambda text: "[1]"),
            ("report", "manifest.json", lambda text: "[1]"),
            ("verify", "loading_table.json", lambda text: "[]"),
            ("verify", "manifest.json", _efa_counts_as_list),
            ("matrix", "dictionary.json", lambda text: "[]"),
            ("report", "loading_table.json", _first_table_term_as_list),
        ],
        ids=[
            "verify-manifest-list",
            "report-manifest-list",
            "verify-table-list",
            "verify-counts-list",
            "matrix-dictionary-list",
            "report-table-term-list",
        ],
    )
    def test_wrong_shape_json_is_stage_error(
        self, command, name, edit, corpus, lexicon_dir, finished_run, tmp_path, capsys
    ):
        out = shutil.copytree(finished_run, tmp_path / "out")
        path = out / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert run_command(command, corpus, lexicon_dir, out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")

    def test_table_term_missing_from_matrix_is_stage_error(
        self, corpus, lexicon_dir, finished_run, tmp_path, capsys
    ):
        # Two artifacts that disagree: a stage failure, not a bad argument.
        out = shutil.copytree(finished_run, tmp_path / "out")
        path = out / "loading_table.json"
        table = json.loads(path.read_text(encoding="utf-8"))
        factor = table["factors"][-1]
        factor["entries"][0][0] = "suitx"
        path.write_text(json.dumps(table), encoding="utf-8")
        capsys.readouterr()
        assert run_command("report", corpus, lexicon_dir, out) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: factor {factor['factor']} term 'suitx' is not a column of filtered.mtx\n"
        )

    @pytest.mark.parametrize("command", ["ingest", "dict", "report", "verify"])
    def test_input_that_is_not_utf8_is_stage_error(self, command, corpus, lexicon_dir, tmp_path, capsys):
        """One file per reader family gets a \\xff byte before its final
        newline: the corpus, a lexicon file, a matrix sidecar, a JSON
        artifact. The one error line names that file. The run is made
        with the copied inputs, so that the stage command has the
        manifest's configuration and gets as far as reading the file."""
        corpus = shutil.copy(corpus, tmp_path)
        lexicon_dir = shutil.copytree(lexicon_dir, tmp_path / "lexicon")
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        path = {
            "ingest": corpus,
            "dict": lexicon_dir / "index.noun",
            "report": out / "filtered.terms.txt",
            "verify": out / "manifest.json",
        }[command]
        with open(path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\xff\n")
        capsys.readouterr()
        assert run_command(command, corpus, lexicon_dir, out) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_stopwords_and_verified_reviews_that_are_not_utf8_are_stage_errors(
        self, corpus, lexicon_dir, finished_run, tmp_path, capsys
    ):
        """The two other text readers: a custom stopword list, and the
        review count that ``verify`` takes from ``reviews.jsonl``. The
        ``dict`` command runs where ``ingest`` ran with the same
        configuration, so that it gets as far as reading the list."""
        out = shutil.copytree(finished_run, tmp_path / "out")
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_bytes(b"the\n\xff\n")
        args = ["--output-dir", str(tmp_path / "fresh"), "--input", str(corpus),
                "--lexicon-dir", str(lexicon_dir), "--stopwords", str(stopwords)]
        assert main(["ingest", *args]) == 0
        capsys.readouterr()
        assert main(["dict", *args]) == 2
        reviews = out / "reviews.jsonl"
        reviews.write_bytes(reviews.read_bytes() + b"\xff\n")
        assert main(["verify", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {stopwords}: not UTF-8 text (invalid start byte)",
            f"error: {reviews}: not UTF-8 text (invalid start byte)",
        ]

    def test_lock_contention(self, corpus, lexicon_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        with held_lock(out):
            assert run_pipeline(corpus, lexicon_dir, out) == 2
            assert main(["ingest", "--input", str(corpus), "--output-dir", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and all("lock" in line for line in err)
        assert run_pipeline(corpus, lexicon_dir, out) == 0

    def test_lock_of_an_exited_process_is_taken_over(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLD_LOCK, str(out)], stdout=subprocess.PIPE, text=True
        )
        try:
            assert holder.stdout.readline() == "locked\n"
            assert run_pipeline(corpus, lexicon_dir, out) == 2
        finally:
            holder.kill()  # SIGKILL: the holder cannot release the lock itself
            holder.wait(timeout=60)
            holder.stdout.close()
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        assert main(["verify", "--output-dir", str(out)]) == 0

    def test_old_lock_file_naming_a_live_pid_does_not_block(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        # Written the way earlier versions locked: a pid file, here naming a
        # live process that is no run of this directory.
        (out / ".lock").write_text(f"{os.getpid()}\n", encoding="utf-8")
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        assert main(["verify", "--output-dir", str(out)]) == 0

    def test_unwritable_output_is_io_error(self, corpus, lexicon_dir, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        out = blocker / "out"  # parent is a file: mkdir must fail
        assert run_pipeline(corpus, lexicon_dir, out) == 3


def solver_lines(caplog) -> list[str]:
    return [record.getMessage() for record in caplog.records if record.name == "lexifactor"]


class TestLineage:
    """A stage whose artifacts change drops the later stages from the
    manifest, and ``verify`` names what they left behind."""

    LATER = ("dict", "matrix", "efa", "report")

    def test_changed_ingest_makes_downstream_stale(self, lexicon_dir, tmp_path, capsys):
        out = tmp_path / "out"
        corpus = write_corpus(tmp_path / "reviews.jsonl")
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        write_corpus(corpus, seed=4)
        config = stage_config(corpus, lexicon_dir, out)
        cmd_stage("ingest", config)
        assert set(json.loads((out / "manifest.json").read_text())["stages"]) == {"ingest"}

        assert main(["verify", "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        stale = [
            f"{stage}: stale artifact {name}, stage not recorded"
            for stage in self.LATER
            for name in pipeline_module.STAGE_ARTIFACTS[stage]
        ]
        assert cmd_verify(config) == stale
        assert all(problem in err for problem in stale)

        for stage in self.LATER:
            cmd_stage(stage, config)
        assert cmd_verify(config) == []

    def test_unchanged_rerun_keeps_downstream(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        manifest = (out / "manifest.json").read_bytes()
        cmd_stage("dict", stage_config(corpus, lexicon_dir, out))
        assert (out / "manifest.json").read_bytes() == manifest
        assert main(["verify", "--output-dir", str(out)]) == 0

    def test_recorded_stage_needs_recorded_upstream(self, corpus, lexicon_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(corpus, lexicon_dir, out) == 0
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["stages"]["matrix"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        config = build_config(overrides={"output_dir": str(out)})
        assert cmd_verify(config)[0] == "efa: upstream stage matrix is not recorded"


class TestSolverLog:
    """``stage_efa`` logs one INFO line on what ULS and Varimax did."""

    def test_converged_rotation(self, corpus, lexicon_dir, tmp_path, caplog):
        out = tmp_path / "out"
        with caplog.at_level(logging.INFO, logger="lexifactor"):
            assert run_pipeline(corpus, lexicon_dir, out) == 0
        (line,) = solver_lines(caplog)
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert model["converged"] and not model["heywood"] and model["rotation_converged"]
        assert line.startswith(
            f"efa: ULS {model['n_iter']} iterations, converged, no Heywood case; "
            f"Varimax {model['rotation_sweeps']} steps, stationarity "
        )
        assert line.endswith(", converged")

    def test_capped_rotation(self, tmp_path, caplog, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        dense = random_binary(np.random.default_rng(5), 300, 30)
        write_matrix_market(from_dense(dense), out / "filtered.mtx")
        # After five steps these loadings' stationarity measure is 3.3e-3;
        # unlimited, they converge after 796.
        capped = np.random.default_rng(12).normal(size=(30, 8)) * 0.4
        extract, rotate = pipeline_module.extract_uls, pipeline_module.varimax_rotate

        def extract_then_swap(corr, k):
            model = extract(corr, k)
            model.loadings = capped
            return model

        monkeypatch.setattr(pipeline_module, "extract_uls", extract_then_swap)
        monkeypatch.setattr(pipeline_module, "varimax_rotate", lambda loadings: rotate(loadings, max_sweeps=5))
        config = build_config(overrides={"output_dir": str(out), "factors": "fixed:8"})
        with caplog.at_level(logging.INFO, logger="lexifactor"):
            pipeline_module.stage_efa(config, pipeline_module.Handoff())
        (line,) = solver_lines(caplog)
        assert re.fullmatch(
            r"efa: ULS \d+ iterations, (not )?converged, (no )?Heywood case; "
            r"Varimax 5 steps, stationarity 0\.00332, not converged",
            line,
        )
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert model["rotation_sweeps"] == 5 and not model["rotation_converged"]


class TestDirectApi:
    def test_cmd_stage_rejects_unknown_stage(self, tmp_path):
        config = build_config(overrides={"output_dir": str(tmp_path / "out")})
        with pytest.raises(Exception):
            cmd_stage("transmogrify", config)

    def test_cmd_pipeline_releases_lock_on_failure(self, lexicon_dir, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("{broken\n", encoding="utf-8")
        out = tmp_path / "out"
        config = build_config(
            overrides={
                "input": str(corpus),
                "lexicon_dir": str(lexicon_dir),
                "output_dir": str(out),
            }
        )
        with pytest.raises(StageError):
            cmd_pipeline(config)
        with held_lock(out):  # raises BlockingIOError if the run kept the lock
            pass


def test_module_entry_point_reports_version():
    result = subprocess.run(
        [sys.executable, "-m", "lexifactor", "--version"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "lexifactor" in result.stdout

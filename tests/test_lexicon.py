import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordnet_fixture as fx
from helpers import (
    REFERENCE_ADJ_RULES,
    REFERENCE_NOUN_RULES,
    reference_lemmatize,
    reference_parse_lexical_database,
)
import lexifactor
from lexifactor import (
    Lexicon,
    ParseError,
    Review,
    StageError,
    ValidationError,
    build_dictionary,
    lemmatize,
    lemmatize_token,
    load_stopwords,
    parse_lexical_database,
)


class TestParseLexicalDatabase:
    def test_noun_entries_match_fixture(self, lexicon):
        parsed = {lemma for (lemma, pos) in lexicon.entries if pos == "noun"}
        assert parsed == fx.expected_noun_lemmas()

    def test_adj_entries_match_fixture(self, lexicon):
        parsed = {lemma for (lemma, pos) in lexicon.entries if pos == "adj"}
        assert parsed == fx.expected_adj_lemmas()

    def test_multiword_lemma_skipped(self, lexicon):
        assert ("customer_service", "noun") not in lexicon.entries
        assert not any("_" in lemma for (lemma, _) in lexicon.entries)

    def test_marker_stripped_from_satellite(self, lexicon):
        assert lexicon.senses("galore", "adj") == frozenset({("adj", 1300)})

    def test_sense_ids_carry_all_offsets(self, lexicon):
        assert lexicon.senses("glass", "noun") == frozenset({("noun", 800), ("noun", 850)})
        assert lexicon.senses("good", "noun") == frozenset({("noun", 3200)})
        assert lexicon.senses("good", "adj") == frozenset({("adj", 100)})

    def test_antonym_pairs(self, lexicon):
        pairs = [("noun", a, b) for a, b in fx.NOUN_ANTONYMS]
        pairs += [("adj", a, b) for a, b in fx.ADJ_ANTONYMS]
        expected = {}
        for pos, a, b in pairs:
            expected.setdefault((pos, a), set()).add((pos, b))
            expected.setdefault((pos, b), set()).add((pos, a))
        assert lexicon.antonyms == {sense: frozenset(others) for sense, others in expected.items()}

    def test_antonym_index_is_symmetric(self, lexicon, lexicon_dir, tmp_path):
        # A pointer listed in one direction only connects both senses, so
        # dropping loss's pointer to profit leaves the map as it was.
        root = shutil.copytree(lexicon_dir, tmp_path / "lexicon")
        text = (root / "data.noun").read_text(encoding="utf-8")
        one_way = text.replace("loss 0 002 ! 00000500 n 0000 ", "loss 0 001 ", 1)
        assert one_way != text
        (root / "data.noun").write_text(one_way, encoding="utf-8")
        antonyms = parse_lexical_database(root).antonyms
        assert antonyms[("noun", 600)] == frozenset({("noun", 500)})
        assert antonyms == lexicon.antonyms

    def test_exceptions_keep_first_known_base(self, lexicon):
        assert lexicon.exceptions[("children", "noun")] == "child"
        assert lexicon.exceptions[("corpora", "noun")] == "corpus"
        assert lexicon.exceptions[("axes", "noun")] == "ax"  # axis is unknown
        assert lexicon.exceptions[("better", "adj")] == "good"

    def test_exceptions_with_no_known_base_dropped(self, lexicon):
        assert ("oxen", "noun") not in lexicon.exceptions
        assert ("geese", "noun") not in lexicon.exceptions

    def test_missing_files_reported(self, tmp_path):
        with pytest.raises(ParseError, match="index.noun"):
            parse_lexical_database(tmp_path)

    def test_malformed_index_line_reports_location(self, tmp_path):
        fx.write_lexical_database(tmp_path)
        index = tmp_path / "index.noun"
        index.write_text(index.read_text() + "broken n x 1 @ 1 0 00000100\n")
        with pytest.raises(ParseError) as err:
            parse_lexical_database(tmp_path)
        assert err.value.path == str(index)
        assert err.value.line is not None

    def test_index_offset_count_mismatch(self, tmp_path):
        fx.write_lexical_database(tmp_path)
        index = tmp_path / "index.noun"
        index.write_text(index.read_text() + "broken n 2 1 @ 2 0 00000100\n")
        with pytest.raises(ParseError, match="declares 2"):
            parse_lexical_database(tmp_path)

    def test_unknown_offset_in_index(self, tmp_path):
        fx.write_lexical_database(tmp_path)
        index = tmp_path / "index.noun"
        index.write_text(index.read_text() + "phantom n 1 1 @ 1 0 99999999\n")
        with pytest.raises(ParseError, match="phantom"):
            parse_lexical_database(tmp_path)

    def test_first_unknown_offset_named_under_any_hash_seed(self, tmp_path):
        # A frozenset of (pos, offset) senses iterates in an order that
        # follows PYTHONHASHSEED; under seed 6 it yields 99999903 first.
        fx.write_lexical_database(tmp_path)
        index = tmp_path / "index.noun"
        index.write_text(index.read_text() + "phantom n 3 1 @ 3 0 99999901 99999902 99999903\n")
        script = (
            "import sys\n"
            "from helpers import reference_parse_lexical_database\n"
            "from lexifactor import ParseError, parse_lexical_database\n"
            "for parse in (parse_lexical_database, reference_parse_lexical_database):\n"
            "    try:\n"
            "        parse(sys.argv[1])\n"
            "    except ParseError as exc:\n"
            "        print(exc)\n"
        )
        paths = (Path(lexifactor.__file__).parents[1], Path(__file__).parent, os.environ.get("PYTHONPATH"))
        for seed in ("0", "6"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(map(str, filter(None, paths)))}
            result = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)], env=env, check=True, capture_output=True, text=True
            )
            messages = result.stdout.splitlines()
            assert len(messages) == 2, (seed, result.stdout)
            assert all("'phantom' references unknown noun synset 99999901" in m for m in messages), (seed, messages)

    def test_malformed_data_line(self, tmp_path):
        fx.write_lexical_database(tmp_path)
        data = tmp_path / "data.noun"
        data.write_text(data.read_text() + "00009999 06 n zz word 0 000 | gloss\n")
        with pytest.raises(ParseError):
            parse_lexical_database(tmp_path)

    def test_header_lines_skipped(self, lexicon):
        # the generated files carry a two-line indented header; if it were
        # parsed as content the fixture assertions above would fail
        assert lexicon.entries

    def test_entries_hold_int_offsets_in_index_order(self, lexicon):
        assert lexicon.entries[("glass", "noun")] == (800, 850)
        assert lexicon.entries[("galore", "adj")] == (1300,)


# Characters put into a lemma: each sends it through the regex check,
# which strips a marker and drops any other lemma that is not [a-z]+.
_LEMMA_INSERTS = ("7", "_", "+", " ", "Q", "(ip)", "(a)", "é")
_OFFSET_RE = re.compile(r"(?<![^ ])\d{8}(?![^ \n])")


def _offset_spellings(offset: str, rng: random.Random) -> list[str]:
    """Other spellings of one offset that ``int()`` reads as the same value."""
    cut = rng.randrange(1, len(offset))
    return ["+" + offset, offset[:cut] + "_" + offset[cut:], "0" + offset]


def _mutate(files: dict[str, str], rng: random.Random) -> tuple[str, str, str]:
    """One random mutation of one file: (file name, kind, new text)."""
    kind = rng.choice(("truncate", "drop", "double", "flip", "lemma", "offset"))
    names = sorted(files)
    if kind == "offset":
        names = [name for name in names if not name.endswith(".exc")]
    elif kind == "lemma":
        names = [name for name in names if not name.startswith("data.")]
    name = rng.choice(names)
    text = files[name]
    lines = text.splitlines(keepends=True)
    content = [i for i, line in enumerate(lines) if line.strip() and not line[0].isspace()]
    i = rng.choice(content)
    if kind == "truncate":
        return name, kind, text[: rng.randrange(len(text))]
    if kind == "drop":
        del lines[i]
    elif kind == "double":
        lines.insert(i, lines[i])
    elif kind == "flip":
        at = rng.randrange(len(text))
        flipped = chr(ord(text[at]) ^ (1 << rng.randrange(7)))  # stays ASCII
        return name, kind, text[:at] + flipped + text[at + 1 :]
    elif kind == "lemma":
        lemma, rest = lines[i].split(" ", 1)
        at = rng.randrange(len(lemma) + 1)
        lines[i] = f"{lemma[:at]}{rng.choice(_LEMMA_INSERTS)}{lemma[at:]} {rest}"
    else:
        matches = list(_OFFSET_RE.finditer(lines[i]))
        match = rng.choice(matches)
        spelled = rng.choice(_offset_spellings(match.group(), rng))
        lines[i] = lines[i][: match.start()] + spelled + lines[i][match.end() :]
    return name, kind, "".join(lines)


def _outcome(parse, root):
    """What a parser makes of ``root``: its error, or every part of the lexicon."""
    try:
        lexicon = parse(root)
    except ParseError as err:
        return ("error", str(err), err.path, err.line)
    return (
        "lexicon",
        list(lexicon.entries),
        {key: lexicon.senses(*key) for key in lexicon.entries},
        lexicon.exceptions,
        lexicon.antonyms,
    )


class TestParserEquivalence:
    def test_fixture_parses_as_the_reference(self, lexicon_dir):
        assert _outcome(parse_lexical_database, lexicon_dir) == _outcome(
            reference_parse_lexical_database, lexicon_dir
        )

    @pytest.mark.parametrize("insert", _LEMMA_INSERTS)
    def test_lemma_inserts_parse_as_the_reference(self, insert, tmp_path):
        lines = {
            "index.noun": f"ca{insert}fe n 1 1 @ 1 0 00000100\n",
            "index.adj": f"ca{insert}fe a 1 1 @ 1 0 00000100\n",
            "noun.exc": f"ca{insert}fes suite\n",
        }
        for name, line in lines.items():
            root = fx.write_lexical_database(tmp_path / name)
            path = root / name
            path.write_text(path.read_text(encoding="utf-8") + line, encoding="utf-8")
            assert _outcome(parse_lexical_database, root) == _outcome(
                reference_parse_lexical_database, root
            ), name

    def test_random_mutations_parse_or_fail_as_the_reference(self, lexicon_dir, tmp_path):
        rng = random.Random(1616)
        files = {path.name: path.read_text(encoding="utf-8") for path in lexicon_dir.iterdir()}
        root = tmp_path / "db"
        kinds = {}
        for trial in range(400):
            name, kind, mutated = _mutate(files, rng)
            shutil.rmtree(root, ignore_errors=True)
            fx.write_lexical_database(root)
            (root / name).write_text(mutated, encoding="utf-8")
            ours = _outcome(parse_lexical_database, root)
            assert ours == _outcome(reference_parse_lexical_database, root), (trial, name, kind)
            kinds.setdefault(kind, set()).add(ours[0])
        # Every kind of mutation was tried, and the runs both parsed and failed.
        assert set(kinds) == {"truncate", "drop", "double", "flip", "lemma", "offset"}
        assert set().union(*kinds.values()) == {"error", "lexicon"}


class TestLemmatize:
    @pytest.mark.parametrize(
        "token,pos,expected",
        [
            # exception list first
            ("children", "noun", "child"),
            ("corpora", "noun", "corpus"),
            ("data", "noun", "datum"),
            ("teeth", "noun", "tooth"),
            ("men", "noun", "man"),
            ("better", "adj", "good"),
            ("worst", "adj", "bad"),
            ("happier", "adj", "happy"),
            # noun detachment rules, in order
            ("tickets", "noun", "ticket"),
            ("glasses", "noun", "glass"),
            ("taxes", "noun", "tax"),
            ("buzzes", "noun", "buzz"),
            ("churches", "noun", "church"),
            ("wishes", "noun", "wish"),
            ("crashes", "noun", "crash"),
            ("berries", "noun", "berry"),
            ("goods", "noun", "good"),
            # adjective detachment rules
            ("greater", "adj", "great"),
            ("greatest", "adj", "great"),
            ("later", "adj", "late"),
            ("simpler", "adj", "simple"),
            ("simplest", "adj", "simple"),
            ("faster", "adj", "fast"),
            # identity when already a lemma
            ("suite", "noun", "suite"),
            ("good", "adj", "good"),
            ("galore", "adj", "galore"),
            # no analysis
            ("qwzzk", "noun", None),
            ("running", "noun", None),
            ("s", "noun", None),
            ("", "noun", None),
        ],
    )
    def test_cases(self, lexicon, token, pos, expected):
        assert lemmatize(lexicon, token, pos) == expected

    def test_earlier_rule_wins(self, tmp_path):
        # "boxes" can detach -s (giving "boxe") or -xes (giving "box");
        # the -s rule comes first, so a lexicon knowing "boxe" must win
        root = tmp_path / "db"
        fx.write_lexical_database(root)
        data = root / "data.noun"
        data.write_text(data.read_text() + "00009999 06 n 01 boxe 0 000 | rigged gloss\n")
        index = root / "index.noun"
        index.write_text(index.read_text() + "boxe n 1 1 @ 1 0 00009999\n")
        rigged = parse_lexical_database(root)
        assert lemmatize(rigged, "boxes", "noun") == "boxe"

    def test_without_rigged_entry_xes_rule_applies(self, lexicon):
        assert lemmatize(lexicon, "boxes", "noun") == "box"

    def test_exception_beats_rules(self, lexicon):
        # "axes" would reach "ax" through -xes as well, but the exception
        # entry resolves it before any rule runs
        assert lemmatize(lexicon, "axes", "noun") == "ax"

    def test_unsupported_pos(self, lexicon):
        with pytest.raises(ValidationError):
            lemmatize(lexicon, "running", "verb")

    def test_noun_before_adjective(self, lexicon):
        # "good" is both a noun and an adjective; the noun reading wins
        assert lemmatize_token(lexicon, "good") == "good"
        assert lemmatize(lexicon, "good", "noun") == "good"
        # "faster" only analyzes as an adjective
        assert lemmatize_token(lexicon, "faster") == "fast"


_SUFFIXES = sorted({suffix for suffix, _ in REFERENCE_NOUN_RULES + REFERENCE_ADJ_RULES})
_REPLACEMENTS = sorted({replacement for _, replacement in REFERENCE_NOUN_RULES + REFERENCE_ADJ_RULES})


def _rigged_lexicon(stems):
    """Each stem joined to every rule's replacement is a lemma of both parts
    of speech, so several rules can reach a lemma from one token."""
    lemmas = {stem + replacement for stem in stems for replacement in _REPLACEMENTS}
    entries = {(lemma, pos): (1,) for lemma in sorted(lemmas) if lemma for pos in ("noun", "adj")}
    return Lexicon(entries=entries, exceptions={})


_FIXTURE_LEMMAS = sorted(fx.expected_noun_lemmas() | fx.expected_adj_lemmas())
_tokens = st.one_of(
    st.builds(str.__add__, st.sampled_from(_FIXTURE_LEMMAS), st.sampled_from(_SUFFIXES)),
    st.sampled_from(_SUFFIXES),
    st.from_regex(r"[a-z]{1,8}", fullmatch=True),
)


class TestRuleTable:
    @given(token=_tokens)
    @settings(max_examples=400, deadline=None)
    def test_fixture_lexicon_follows_the_documented_order(self, lexicon, token):
        for pos in ("noun", "adj"):
            assert lemmatize(lexicon, token, pos) == reference_lemmatize(lexicon, token, pos)

    @given(
        stems=st.lists(st.from_regex(r"[a-z]{0,3}", fullmatch=True), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_competing_rules_resolve_in_declaration_order(self, stems, data):
        rigged = _rigged_lexicon(stems)
        stem = data.draw(st.sampled_from(stems))
        token = data.draw(st.one_of(st.sampled_from(_SUFFIXES).map(stem.__add__), _tokens))
        for pos in ("noun", "adj"):
            assert lemmatize(rigged, token, pos) == reference_lemmatize(rigged, token, pos)


class TestStopwords:
    def test_default_list_loads(self):
        words = load_stopwords()
        assert {"the", "and", "is", "don", "t"} <= words

    def test_custom_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\n\nbar\n", encoding="utf-8")
        assert load_stopwords(path) == {"foo", "bar"}


def _reviews(texts):
    return [Review(id=f"r{i}", source="g2", text=text) for i, text in enumerate(texts)]


class TestBuildDictionary:
    def test_frequency_order_with_alpha_ties(self, lexicon, stopwords):
        reviews = _reviews(["ticket noise", "ticket", "noise", "user"])
        dictionary = build_dictionary(reviews, lexicon, stopwords)
        # ticket and noise both have df 2: alphabetical tie-break
        assert dictionary.terms == ("noise", "ticket", "user")
        assert dictionary.index == {"noise": 0, "ticket": 1, "user": 2}
        assert dictionary.provenance["ticket"].doc_freq == 2

    def test_synonym_rejected(self, lexicon, stopwords):
        # suite and bundle share a synset; the higher-frequency one wins
        reviews = _reviews(["suite bundle"] + ["suite"] * 9 + ["bundle"] * 2)
        dictionary = build_dictionary(reviews, lexicon, stopwords)
        assert "suite" in dictionary.terms
        assert "bundle" not in dictionary.terms
        assert dictionary.provenance["suite"].doc_freq == 10

    def test_antonym_rejected(self, lexicon, stopwords):
        reviews = _reviews(["profit"] * 3 + ["loss"] * 2 + ["profit loss"])
        dictionary = build_dictionary(reviews, lexicon, stopwords)
        assert "profit" in dictionary.terms
        assert "loss" not in dictionary.terms

    def test_adjective_antonyms_rejected_across_documents(self, lexicon, stopwords):
        reviews = _reviews(["cheap tool", "cheap", "expensive"])
        dictionary = build_dictionary(reviews, lexicon, stopwords)
        assert "cheap" in dictionary.terms
        assert "expensive" not in dictionary.terms

    def test_noun_senses_claimed_for_dual_pos_lemma(self, lexicon, stopwords):
        dictionary = build_dictionary(_reviews(["good stuff"]), lexicon, stopwords)
        assert dictionary.provenance["good"].pos == "noun"
        assert dictionary.provenance["good"].sense_ids == (("noun", 3200),)

    def test_inflected_tokens_count_toward_base(self, lexicon, stopwords):
        reviews = _reviews(["tickets", "ticket", "children"])
        dictionary = build_dictionary(reviews, lexicon, stopwords)
        assert dictionary.provenance["ticket"].doc_freq == 2
        assert "child" in dictionary.terms

    def test_stopwords_removed_before_lemmatization(self, lexicon):
        # with "glasses" stopped, its lemma is no candidate (the token is
        # still lemmatized, for the lemma ids the matrix reads)
        reviews = _reviews(["glasses ticket"])
        dictionary = build_dictionary(reviews, lexicon, frozenset({"glasses"}))
        assert "glass" not in dictionary.terms
        assert "ticket" in dictionary.terms

    def test_duplicate_tokens_count_once_per_document(self, lexicon, stopwords):
        dictionary = build_dictionary(_reviews(["ticket ticket ticket"]), lexicon, stopwords)
        assert dictionary.provenance["ticket"].doc_freq == 1

    def test_no_candidates_is_an_error(self, lexicon, stopwords):
        with pytest.raises(StageError, match="^no candidate terms survived dictionary construction$"):
            build_dictionary(_reviews(["qwzzk zzkqw", "the of and"]), lexicon, stopwords)

    def test_json_round_trip(self, lexicon, stopwords):
        from lexifactor.artifacts import TermColumns

        dictionary = build_dictionary(
            _reviews(["suite ticket", "good noise"]), lexicon, stopwords
        )
        payload = json.loads("".join(dictionary.json_lines()))
        for term, record in zip(dictionary.terms, payload["terms"], strict=True):
            entry = dictionary.provenance[term]
            assert record == {
                "term": term,
                "pos": entry.pos,
                "doc_freq": entry.doc_freq,
                "sense_ids": [[pos, offset] for pos, offset in entry.sense_ids],
                "forms": list(entry.forms),
            }
        restored = TermColumns.from_json_dict(payload, "dictionary.json")
        assert restored.terms == dictionary.terms
        assert restored.index == dictionary.index
        assert list(restored.forms) == dictionary.forms

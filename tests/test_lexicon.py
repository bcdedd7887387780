import json
import shutil

import pytest

import wordnet_fixture as fx
from lexifactor import (
    EmptyDictionaryError,
    ParseError,
    Review,
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
        with pytest.raises(EmptyDictionaryError):
            build_dictionary(_reviews(["qwzzk zzkqw", "the of and"]), lexicon, stopwords)

    def test_json_round_trip(self, lexicon, stopwords):
        from lexifactor import TermDictionary

        dictionary = build_dictionary(
            _reviews(["suite ticket", "good noise"]), lexicon, stopwords
        )
        restored = TermDictionary.from_json_dict(json.loads(dictionary.to_json_text()), "dictionary.json")
        assert restored.terms == dictionary.terms
        assert restored.index == dictionary.index
        assert restored.provenance == dictionary.provenance

    def test_malformed_payload_rejected(self):
        from lexifactor import TermDictionary

        with pytest.raises(ParseError, match="^dictionary.json: malformed dictionary payload"):
            TermDictionary.from_json_dict({"terms": [{"term": "x"}]}, "dictionary.json")

"""Lexical database parsing, lemmatization, and term dictionary construction.

The lexical database follows the classic WordNet on-disk layout: per
part of speech an ``index.<pos>`` file mapping lemmas to synset offsets,
a ``data.<pos>`` file holding the synsets themselves (with their pointer
lists, where the ``!`` symbol marks antonymy), and a ``<pos>.exc`` file
of irregular inflections. Only nouns and adjectives participate.

One lexical pass, :meth:`ReviewLemmas.read`, tokenizes each review once,
drops its stopword tokens and lemmatizes each distinct remaining token
once. It keeps each review's distinct lemmas as CSR arrays of lemma
ids, which both the dictionary's document frequencies and the
document-term matrix count. Within one ``pipeline`` run the dictionary
pass hands these arrays to the matrix stage, so the run tokenizes the
corpus once and parses the database once.

Dictionary construction is a greedy pass over candidate lemmas ranked
by document frequency: a candidate is admitted unless it shares a sense
with an already-admitted term (a synonym) or one of its senses is
antonym-paired with an admitted sense.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyDictionaryError, ParseError, ValidationError
from .ingest import Review, Token, tokenize

# A sense is one synset of one part of speech, e.g. ("noun", 2084442).
SenseId = tuple[str, int]

_POS_FROM_TAG = {"n": "noun", "a": "adj", "s": "adj"}
_ALPHA_RE = re.compile(r"^[a-z]+$")
# Adjective entries may carry a syntactic-position marker, e.g. "galore(ip)".
_MARKER_RE = re.compile(r"\([a-z]+\)$")

# Suffix detachment rules, applied in order; first candidate found in the
# lexicon wins. Each rule is (suffix to strip, replacement).
NOUN_RULES: tuple[tuple[str, str], ...] = (
    ("s", ""),
    ("ses", "s"),
    ("xes", "x"),
    ("zes", "z"),
    ("ches", "ch"),
    ("shes", "sh"),
    ("men", "man"),
    ("ies", "y"),
)
ADJ_RULES: tuple[tuple[str, str], ...] = (
    ("er", ""),
    ("est", ""),
    ("er", "e"),
    ("est", "e"),
)

_RULES = {"noun": NOUN_RULES, "adj": ADJ_RULES}

_DB_FILES = ("index.noun", "index.adj", "data.noun", "data.adj", "noun.exc", "adj.exc")


@dataclass
class Lexicon:
    """Parsed lexical database restricted to nouns and adjectives.

    ``entries`` maps ``(lemma, pos)`` to the set of senses the lemma
    participates in; ``exceptions`` maps irregular ``(inflected, pos)``
    forms to their base lemma; ``antonym_pairs`` holds unordered pairs
    of senses connected by an antonym pointer.
    """

    entries: dict[tuple[str, str], frozenset[SenseId]]
    exceptions: dict[tuple[str, str], str]
    antonym_pairs: frozenset[frozenset[SenseId]] = frozenset()
    _antonym_index: dict[SenseId, frozenset[SenseId]] | None = field(
        default=None, repr=False, compare=False
    )

    def senses(self, lemma: str, pos: str) -> frozenset[SenseId]:
        return self.entries.get((lemma, pos), frozenset())

    def antonym_index(self) -> dict[SenseId, frozenset[SenseId]]:
        """Map each sense to the senses it is antonym-paired with."""
        if self._antonym_index is None:
            index: dict[SenseId, set[SenseId]] = {}
            for pair in self.antonym_pairs:
                members = tuple(pair)
                # A frozenset pair has two members unless it is degenerate.
                for sense in members:
                    others = {m for m in members if m != sense}
                    index.setdefault(sense, set()).update(others)
            self._antonym_index = {k: frozenset(v) for k, v in index.items()}
        return self._antonym_index


@dataclass(frozen=True, slots=True)
class TermProvenance:
    """Why a term entered the dictionary: pos, claimed senses, frequency."""

    pos: str
    sense_ids: tuple[SenseId, ...]
    doc_freq: int


@dataclass
class TermDictionary:
    """Ordered term list with a reverse index and per-term provenance."""

    terms: tuple[str, ...]
    index: dict[str, int]
    provenance: dict[str, TermProvenance]

    def __len__(self) -> int:
        return len(self.terms)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {
                    "term": term,
                    "pos": self.provenance[term].pos,
                    "doc_freq": self.provenance[term].doc_freq,
                    "sense_ids": [[pos, offset] for pos, offset in self.provenance[term].sense_ids],
                }
                for term in self.terms
            ]
        }

    def to_json_text(self) -> str:
        """``dictionary.json``: the text that ``json.dump`` writes for
        :meth:`to_json_dict` with ``indent=2, sort_keys=True,
        ensure_ascii=False``, plus a newline, built from one template per
        term instead of through the pure-Python encoder."""
        records = []
        for term in self.terms:
            entry = self.provenance[term]
            senses = ",\n".join(
                [
                    f"        [\n          {encode_basestring(pos)},\n          {offset}\n        ]"
                    for pos, offset in entry.sense_ids
                ]
            )
            senses = f"[\n{senses}\n      ]" if senses else "[]"
            records.append(
                f'    {{\n      "doc_freq": {entry.doc_freq},\n'
                f'      "pos": {encode_basestring(entry.pos)},\n'
                f'      "sense_ids": {senses},\n'
                f'      "term": {encode_basestring(term)}\n    }}'
            )
        if not records:
            return '{\n  "terms": []\n}\n'
        return '{\n  "terms": [\n' + ",\n".join(records) + "\n  ]\n}\n"

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TermDictionary":
        try:
            records = payload["terms"]
            terms = tuple(record["term"] for record in records)
            provenance = {
                record["term"]: TermProvenance(
                    pos=record["pos"],
                    doc_freq=record["doc_freq"],
                    sense_ids=tuple((pos, int(offset)) for pos, offset in record["sense_ids"]),
                )
                for record in records
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed dictionary payload: {exc}") from exc
        return cls(terms=terms, index={t: i for i, t in enumerate(terms)}, provenance=provenance)


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, one word per line; ``#`` lines are comments.

    Without ``path`` the packaged default list is used.
    """
    if path is None:
        text = resources.files("lexifactor").joinpath("data/stopwords.txt").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    words = (line.strip() for line in text.splitlines())
    return frozenset(w for w in words if w and not w.startswith("#"))


def _content_lines(path: Path) -> Iterator[tuple[int, str]]:
    # License headers in the database files are indented; skip them.
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip() or raw[0].isspace():
                continue
            yield lineno, raw.rstrip("\n")


def _clean_lemma(word: str) -> str | None:
    """Strip any syntactic marker; reject lemmas with non-letter characters."""
    word = _MARKER_RE.sub("", word)
    return word if _ALPHA_RE.match(word) else None


def _parse_index(path: Path, pos: str) -> dict[tuple[str, str], frozenset[SenseId]]:
    entries: dict[tuple[str, str], frozenset[SenseId]] = {}
    for lineno, line in _content_lines(path):
        parts = line.split()
        try:
            lemma, tag = parts[0], parts[1]
            synset_cnt = int(parts[2])
            p_cnt = int(parts[3])
            offsets = [int(x) for x in parts[4 + p_cnt + 2 :]]
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed index line: {exc}", path=str(path), line=lineno) from exc
        if _POS_FROM_TAG.get(tag) != pos:
            raise ParseError(f"unexpected pos tag {tag!r}", path=str(path), line=lineno)
        if len(offsets) != synset_cnt:
            raise ParseError(
                f"index line declares {synset_cnt} synsets but lists {len(offsets)}",
                path=str(path),
                line=lineno,
            )
        cleaned = _clean_lemma(lemma)
        if cleaned is None:
            continue  # multiword and punctuated lemmas are out of scope
        entries[(cleaned, pos)] = frozenset((pos, offset) for offset in offsets)
    return entries


def _parse_data(path: Path, pos: str) -> tuple[set[int], list[tuple[SenseId, SenseId]]]:
    """Return the set of synset offsets and the antonym pointer pairs."""
    offsets: set[int] = set()
    pairs: list[tuple[SenseId, SenseId]] = []
    for lineno, line in _content_lines(path):
        head = line.split("|", 1)[0]
        parts = head.split()
        try:
            offset = int(parts[0])
            ss_type = parts[2]
            w_cnt = int(parts[3], 16)  # word count is hexadecimal
            cursor = 4 + 2 * w_cnt  # words come in (word, lex_id) pairs
            p_cnt = int(parts[cursor])
            cursor += 1
            for _ in range(p_cnt):
                symbol = parts[cursor]
                target_offset = int(parts[cursor + 1])
                target_tag = parts[cursor + 2]
                cursor += 4  # symbol, offset, pos, source/target
                if symbol == "!":
                    target_pos = _POS_FROM_TAG.get(target_tag)
                    if target_pos is None:
                        raise ParseError(
                            f"antonym pointer to unsupported pos {target_tag!r}",
                            path=str(path),
                            line=lineno,
                        )
                    pairs.append(((pos, offset), (target_pos, target_offset)))
        except ParseError:
            raise
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed data line: {exc}", path=str(path), line=lineno) from exc
        if _POS_FROM_TAG.get(ss_type) != pos:
            raise ParseError(f"unexpected synset type {ss_type!r}", path=str(path), line=lineno)
        offsets.add(offset)
    return offsets, pairs


def _parse_exceptions(
    path: Path, pos: str, entries: dict[tuple[str, str], frozenset[SenseId]]
) -> dict[tuple[str, str], str]:
    exceptions: dict[tuple[str, str], str] = {}
    for lineno, line in _content_lines(path):
        parts = line.split()
        if len(parts) < 2:
            raise ParseError("exception line needs an inflected form and a base", path=str(path), line=lineno)
        inflected, bases = parts[0], parts[1:]
        if not _ALPHA_RE.match(inflected):
            continue
        # Keep the first listed base that the lexicon actually knows.
        for base in bases:
            if (base, pos) in entries:
                exceptions[(inflected, pos)] = base
                break
    return exceptions


def parse_lexical_database(root: str | Path) -> Lexicon:
    """Parse the six database files under ``root`` into a :class:`Lexicon`.

    Every synset offset referenced from an index line or an antonym
    pointer must exist in the corresponding data file.
    """
    root = Path(root)
    missing = [name for name in _DB_FILES if not (root / name).is_file()]
    if missing:
        raise ParseError(f"missing lexical database files: {', '.join(missing)}", path=str(root))

    entries: dict[tuple[str, str], frozenset[SenseId]] = {}
    entries.update(_parse_index(root / "index.noun", "noun"))
    entries.update(_parse_index(root / "index.adj", "adj"))

    noun_offsets, noun_pairs = _parse_data(root / "data.noun", "noun")
    adj_offsets, adj_pairs = _parse_data(root / "data.adj", "adj")
    known = {"noun": noun_offsets, "adj": adj_offsets}

    for (lemma, pos), senses in entries.items():
        for _, offset in senses:
            if offset not in known[pos]:
                raise ParseError(
                    f"index entry {lemma!r} references unknown {pos} synset {offset:08d}",
                    path=str(root),
                )
    pairs: set[frozenset[SenseId]] = set()
    for source, target in noun_pairs + adj_pairs:
        if target[1] not in known[target[0]]:
            raise ParseError(
                f"antonym pointer from {source[0]} synset {source[1]:08d} "
                f"references unknown {target[0]} synset {target[1]:08d}",
                path=str(root),
            )
        pairs.add(frozenset((source, target)))

    exceptions: dict[tuple[str, str], str] = {}
    exceptions.update(_parse_exceptions(root / "noun.exc", "noun", entries))
    exceptions.update(_parse_exceptions(root / "adj.exc", "adj", entries))

    return Lexicon(entries=entries, exceptions=exceptions, antonym_pairs=frozenset(pairs))


def lemmatize(lexicon: Lexicon, token: str, pos: str) -> str | None:
    """Reduce ``token`` to a base lemma of the given part of speech.

    Precedence: the exception list first, then the suffix detachment
    rules in declaration order (first candidate present in the lexicon
    wins), then the token itself if it is already a lemma. Returns
    ``None`` when nothing matches.
    """
    if pos not in _RULES:
        raise ValidationError(f"unsupported part of speech: {pos!r}")
    base = lexicon.exceptions.get((token, pos))
    if base is not None:
        return base
    for suffix, replacement in _RULES[pos]:
        if token.endswith(suffix):
            candidate = token[: len(token) - len(suffix)] + replacement
            if candidate and (candidate, pos) in lexicon.entries:
                return candidate
    if (token, pos) in lexicon.entries:
        return token
    return None


def lemmatize_token(lexicon: Lexicon, token: Token) -> str | None:
    """Lemmatize trying nouns before adjectives; ``None`` if neither fits."""
    lemma = lemmatize(lexicon, token, "noun")
    if lemma is None:
        lemma = lemmatize(lexicon, token, "adj")
    return lemma


@dataclass
class ReviewLemmas:
    """Each review's distinct lemmas, from one lexical pass, as CSR arrays.

    The ``r``-th review read holds the lemmas ``vocabulary[i]`` for ``i``
    in ``ids[indptr[r]:indptr[r + 1]]``: the lemma of every token it
    contains that is not a stopword. A new instance holds no reviews;
    :meth:`read` fills it.
    """

    vocabulary: tuple[str, ...] = ()
    indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def read(
        self,
        reviews: Iterable[Review],
        lexicon: Lexicon,
        stopwords: frozenset[str] = frozenset(),
    ) -> "ReviewLemmas":
        """Replace the contents with those of ``reviews`` and return self.

        Each review is tokenized once, its stopword tokens are dropped,
        and each distinct remaining token is lemmatized once, through a
        token→lemma-id map that ends with the pass.
        """
        lemma_of: dict[Token, int] = {}  # -1: the token has no lemma
        vocabulary: dict[str, int] = {}
        indptr = [0]
        ids: list[int] = []
        for review in reviews:
            tokens = set(tokenize(review.text)) - stopwords
            for token in tokens.difference(lemma_of):
                lemma = lemmatize_token(lexicon, token)
                if lemma is None:
                    lemma_of[token] = -1
                else:
                    lemma_of[token] = vocabulary.setdefault(lemma, len(vocabulary))
            found = set(map(lemma_of.__getitem__, tokens))
            found.discard(-1)
            ids.extend(found)
            indptr.append(len(ids))
        self.vocabulary = tuple(vocabulary)
        self.indptr = np.array(indptr, dtype=np.int64)
        self.ids = np.array(ids, dtype=np.int64)
        return self


def build_dictionary(
    reviews: Iterable[Review],
    lexicon: Lexicon,
    stopwords: frozenset[str],
    lemmas: ReviewLemmas | None = None,
) -> TermDictionary:
    """Greedily admit candidate lemmas into the term dictionary.

    A candidate is the lemma of a non-stopword token; its document
    frequency counts the reviews holding such a token. Candidates are
    ranked by document frequency, ties broken alphabetically. A
    candidate claims its noun senses when it has a noun entry, otherwise
    its adjective senses. It is rejected when any claimed sense is
    already claimed (synonym of an admitted term) or is antonym-paired
    with a claimed sense.

    The lexical pass over ``reviews`` fills ``lemmas`` (see
    :meth:`ReviewLemmas.read`), ready for
    :func:`lexifactor.matrix.build_matrix`, so that a caller building
    the matrix next neither tokenizes nor lemmatizes again.
    """
    lemmas = (ReviewLemmas() if lemmas is None else lemmas).read(reviews, lexicon, stopwords)
    doc_freq = np.bincount(lemmas.ids, minlength=len(lemmas.vocabulary)).tolist()
    ranked = sorted(zip(lemmas.vocabulary, doc_freq), key=lambda item: (-item[1], item[0]))
    antonym_index = lexicon.antonym_index()

    claimed: set[SenseId] = set()
    blocked: set[SenseId] = set()
    terms: list[str] = []
    provenance: dict[str, TermProvenance] = {}
    for lemma, freq in ranked:
        pos = "noun" if (lemma, "noun") in lexicon.entries else "adj"
        senses = lexicon.senses(lemma, pos)
        if senses & claimed or senses & blocked:
            continue
        terms.append(lemma)
        claimed.update(senses)
        for sense in senses:
            blocked.update(antonym_index.get(sense, frozenset()))
        provenance[lemma] = TermProvenance(pos=pos, sense_ids=tuple(sorted(senses)), doc_freq=freq)

    if not terms:
        raise EmptyDictionaryError("no candidate terms survived dictionary construction")
    return TermDictionary(
        terms=tuple(terms),
        index={term: i for i, term in enumerate(terms)},
        provenance=provenance,
    )

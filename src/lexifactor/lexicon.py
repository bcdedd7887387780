"""Lexical database parsing, lemmatization, and term dictionary construction.

The lexical database follows the classic WordNet on-disk layout: per
part of speech an ``index.<pos>`` file mapping lemmas to synset offsets,
a ``data.<pos>`` file holding the synsets themselves (with their pointer
lists, where the ``!`` symbol marks antonymy), and a ``<pos>.exc`` file
of irregular inflections. Only nouns and adjectives participate.

One lexical pass tokenizes each review once and reads each token
through a token→lemma-id map that holds every stopword at -1 (no lemma)
and lemmatizes any other token once, on its first lookup. The map holds
the lexicon without a reference cycle, so the parsed lexicon is freed as
soon as its caller drops it. The pass keeps each review's distinct
lemmas as CSR arrays of lemma ids (:class:`ReviewLemmas`), which both
the dictionary's document frequencies and the document-term matrix
count. Within one ``pipeline`` run the dictionary pass hands these
arrays to the matrix stage, so the run tokenizes the corpus once and
parses the database once. Each term of the dictionary also records its
forms, the distinct tokens that the pass mapped to it, so that a
``matrix`` stage run on its own finds each review's terms by token
lookup in the same per-review loop, without the database.

The parsed lexicon is compact: each ``(lemma, pos)`` entry holds a
tuple of int synset offsets, its part of speech implied by the key. A
75,000-entry lexicon holds about 20 MB this way.

Dictionary construction is a greedy pass over candidate lemmas ranked
by document frequency: a candidate is admitted unless it shares a sense
with an already-admitted term (a synonym) or one of its senses is
antonym-paired with an admitted sense: one test against a set of taken
offsets per part of speech.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .artifacts import SenseId, TermDictionary, TermProvenance
from .errors import ParseError, StageError, ValidationError, named_decode_errors
from .ingest import Review, Token, tokenize

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


def _by_last_letter(rules: tuple[tuple[str, str], ...]) -> dict[str, tuple[tuple[str, str], ...]]:
    """The rules grouped by the last letter of their suffix, each group in
    declaration order: only one group can match a given token."""
    groups: dict[str, list[tuple[str, str]]] = {}
    for suffix, replacement in rules:
        groups.setdefault(suffix[-1], []).append((suffix, replacement))
    return {letter: tuple(group) for letter, group in groups.items()}


_RULES = {"noun": _by_last_letter(NOUN_RULES), "adj": _by_last_letter(ADJ_RULES)}

_DB_FILES = ("index.noun", "index.adj", "data.noun", "data.adj", "noun.exc", "adj.exc")


@dataclass
class Lexicon:
    """Parsed lexical database restricted to nouns and adjectives.

    ``entries`` maps ``(lemma, pos)`` to the synset offsets of the
    lemma's senses, as ints in index-file order; :meth:`senses` turns
    them into sense ids. ``exceptions`` maps irregular
    ``(inflected, pos)`` forms to their base lemma; ``antonyms`` maps
    each sense to the senses an antonym pointer connects it with, in
    either direction.
    """

    entries: dict[tuple[str, str], tuple[int, ...]]
    exceptions: dict[tuple[str, str], str]
    antonyms: dict[SenseId, frozenset[SenseId]] = field(default_factory=dict)

    def senses(self, lemma: str, pos: str) -> frozenset[SenseId]:
        """The ``(pos, offset)`` senses of a lemma, built on each call."""
        return frozenset((pos, offset) for offset in self.entries.get((lemma, pos), ()))


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, one word per line; ``#`` lines are comments.

    Without ``path`` the packaged default list is used. Each entry is
    lowercased, as every token is.
    """
    if path is None:
        text = resources.files("lexifactor").joinpath("data/stopwords.txt").read_text("utf-8")
    else:
        with named_decode_errors(path):
            text = Path(path).read_text("utf-8")
    words = (line.strip() for line in text.splitlines())
    return frozenset(w.lower() for w in words if w and not w.startswith("#"))


def _content_lines(path: Path) -> Iterator[tuple[int, str]]:
    # License headers in the database files are indented; skip them, and
    # blank lines, which start with whitespace too. Every reader splits
    # the line on whitespace, so the newline stays on.
    with named_decode_errors(path), open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw[0].isspace():
                yield lineno, raw


def _clean_lemma(word: str) -> str | None:
    """Strip any syntactic marker; reject lemmas with non-letter characters."""
    word = _MARKER_RE.sub("", word)
    return word if _ALPHA_RE.match(word) else None


def _parse_index(path: Path, pos: str) -> dict[tuple[str, str], tuple[int, ...]]:
    entries: dict[tuple[str, str], tuple[int, ...]] = {}
    for lineno, line in _content_lines(path):
        parts = line.split()
        try:
            lemma, tag = parts[0], parts[1]
            synset_cnt = int(parts[2])
            p_cnt = int(parts[3])
            offsets = tuple(map(int, parts[4 + p_cnt + 2 :]))
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
        # A lemma of ASCII lowercase letters alone is already clean.
        if not (lemma.isascii() and lemma.isalpha() and lemma.islower()):
            lemma = _clean_lemma(lemma)
            if lemma is None:
                continue  # multiword and punctuated lemmas are out of scope
        entries[(lemma, pos)] = offsets
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
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed data line: {exc}", path=str(path), line=lineno) from exc
        if _POS_FROM_TAG.get(ss_type) != pos:
            raise ParseError(f"unexpected synset type {ss_type!r}", path=str(path), line=lineno)
        offsets.add(offset)
    return offsets, pairs


def _parse_exceptions(
    path: Path, pos: str, entries: dict[tuple[str, str], tuple[int, ...]]
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

    noun_entries = _parse_index(root / "index.noun", "noun")
    adj_entries = _parse_index(root / "index.adj", "adj")
    entries = {**noun_entries, **adj_entries}

    noun_offsets, noun_pairs = _parse_data(root / "data.noun", "noun")
    adj_offsets, adj_pairs = _parse_data(root / "data.adj", "adj")
    known = {"noun": noun_offsets, "adj": adj_offsets}

    if not (
        noun_offsets.issuperset(chain.from_iterable(noun_entries.values()))
        and adj_offsets.issuperset(chain.from_iterable(adj_entries.values()))
    ):
        # Name the first unknown offset in index-file order.
        for (lemma, pos), offsets in entries.items():
            for offset in offsets:
                if offset not in known[pos]:
                    raise ParseError(
                        f"index entry {lemma!r} references unknown {pos} synset {offset:08d}",
                        path=str(root),
                    )
    antonyms: dict[SenseId, set[SenseId]] = {}
    for source, target in noun_pairs + adj_pairs:
        if target[1] not in known[target[0]]:
            raise ParseError(
                f"antonym pointer from {source[0]} synset {source[1]:08d} "
                f"references unknown {target[0]} synset {target[1]:08d}",
                path=str(root),
            )
        antonyms.setdefault(source, set()).add(target)
        antonyms.setdefault(target, set()).add(source)

    exceptions: dict[tuple[str, str], str] = {}
    exceptions.update(_parse_exceptions(root / "noun.exc", "noun", entries))
    exceptions.update(_parse_exceptions(root / "adj.exc", "adj", entries))

    return Lexicon(
        entries=entries,
        exceptions=exceptions,
        antonyms={sense: frozenset(others) for sense, others in antonyms.items()},
    )


def lemmatize(lexicon: Lexicon, token: str, pos: str) -> str | None:
    """Reduce ``token`` to a base lemma of the given part of speech.

    Precedence: the exception list first, then the suffix detachment
    rules in declaration order (first candidate present in the lexicon
    wins), then the token itself if it is already a lemma. Returns
    ``None`` when nothing matches.
    """
    rules = _RULES.get(pos)
    if rules is None:
        raise ValidationError(f"unsupported part of speech: {pos!r}")
    base = lexicon.exceptions.get((token, pos))
    if base is not None:
        return base
    for suffix, replacement in rules.get(token[-1:], ()):
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

    The ``r``-th review holds the lemmas ``vocabulary[i]`` for ``i``
    in ``ids[indptr[r]:indptr[r + 1]]``: the lemma of every token it
    contains that is not a stopword. A new instance holds no reviews;
    :func:`build_dictionary` fills one.
    """

    vocabulary: tuple[str, ...] = ()
    indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def _review_ids(
    reviews: Iterable[Review], id_of: Callable[[Token], int | None], miss: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Each review's distinct ``id_of(token)`` over its tokens, except
    ``miss``, as CSR arrays ``(indptr, ids)``."""
    indptr = [0]
    ids: list[int] = []
    for review in reviews:
        found = set(map(id_of, tokenize(review.text)))
        found.discard(miss)
        ids.extend(found)
        indptr.append(len(ids))
    return np.array(indptr, dtype=np.int64), np.array(ids, dtype=np.int64)


class _TokenMap(dict):
    """Token → lemma id of one lexical pass, -1 for no lemma. A token not
    yet mapped is lemmatized on its first lookup, and its lemma gets the
    next id of ``vocabulary`` (lemma → id) unless it has one."""

    __slots__ = ("lexicon", "vocabulary")

    def __missing__(self, token: Token) -> int:
        lemma = lemmatize_token(self.lexicon, token)
        vocabulary = self.vocabulary
        self[token] = lemma_id = -1 if lemma is None else vocabulary.setdefault(lemma, len(vocabulary))
        return lemma_id


def _lexical_pass(
    lemmas: ReviewLemmas, reviews: Iterable[Review], lexicon: Lexicon, stopwords: frozenset[str]
) -> dict[Token, int]:
    """Fill ``lemmas`` from ``reviews`` and return the pass's token map:
    each stopword and distinct token of ``reviews`` to a lemma id or -1."""
    lemma_of = _TokenMap.fromkeys(stopwords, -1)
    lemma_of.lexicon, lemma_of.vocabulary = lexicon, {}
    lemmas.indptr, lemmas.ids = _review_ids(reviews, lemma_of.__getitem__, -1)
    lemmas.vocabulary = tuple(lemma_of.vocabulary)
    return lemma_of


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
    candidate takes its noun senses when it has a noun entry, otherwise
    its adjective senses. It is rejected when any of them is a sense of
    an admitted term (a synonym) or is antonym-paired with one.

    The lexical pass over ``reviews``, which tokenizes each review once
    and lemmatizes each distinct token once, fills ``lemmas``, ready for
    :func:`lexifactor.matrix.build_matrix`, so that a caller building
    the matrix next neither tokenizes nor lemmatizes again. Each term's
    provenance lists its ``forms``: the sorted distinct non-stopword
    tokens of ``reviews`` whose lemma it is, from which
    :func:`~lexifactor.matrix.build_matrix` can build the same matrix
    with neither the lexicon nor the stopwords.
    """
    lemmas = ReviewLemmas() if lemmas is None else lemmas
    lemma_of = _lexical_pass(lemmas, reviews, lexicon, stopwords)
    vocabulary = lemmas.vocabulary
    # The tokens that have a lemma, grouped by lemma id, so that each
    # lemma's forms are one slice; the tokens without one (-1) sort first
    # and are cut off. The greedy pass holds this list, not the token map.
    token_lemma = np.fromiter(lemma_of.values(), dtype=np.int64, count=len(lemma_of))
    by_lemma = np.argsort(token_lemma, kind="stable")
    bounds = np.searchsorted(token_lemma[by_lemma], np.arange(len(vocabulary) + 1))
    forms = np.fromiter(lemma_of, dtype=object, count=len(lemma_of))[by_lemma[bounds[0] :]].tolist()
    form_bounds = (bounds - bounds[0]).tolist()
    del lemma_of
    doc_freq = np.bincount(lemmas.ids, minlength=len(vocabulary))
    # A stable sort by falling frequency over alphabetically ordered ids
    # breaks frequency ties alphabetically.
    alphabetical = np.array(sorted(range(len(vocabulary)), key=vocabulary.__getitem__), dtype=np.int64)
    ranked = alphabetical[np.argsort(-doc_freq[alphabetical], kind="stable")]

    # Per part of speech, the offsets of the admitted terms' senses and of
    # the senses antonym-paired with them: a candidate must take none.
    taken: dict[str, set[int]] = {"noun": set(), "adj": set()}
    terms: list[str] = []
    provenance: dict[str, TermProvenance] = {}
    for lemma_id, freq in zip(ranked.tolist(), doc_freq[ranked].tolist()):
        lemma = vocabulary[lemma_id]
        pos = "noun" if (lemma, "noun") in lexicon.entries else "adj"
        offsets = lexicon.entries.get((lemma, pos), ())
        if not taken[pos].isdisjoint(offsets):
            continue
        terms.append(lemma)
        taken[pos].update(offsets)
        for offset in offsets:
            for antonym_pos, antonym in lexicon.antonyms.get((pos, offset), ()):
                taken[antonym_pos].add(antonym)
        provenance[lemma] = TermProvenance(
            pos=pos,
            sense_ids=tuple((pos, offset) for offset in sorted(set(offsets))),
            doc_freq=freq,
            forms=tuple(sorted(forms[form_bounds[lemma_id] : form_bounds[lemma_id + 1]])),
        )

    if not terms:
        raise StageError("no candidate terms survived dictionary construction")
    return TermDictionary(
        terms=tuple(terms),
        index={term: i for i, term in enumerate(terms)},
        provenance=provenance,
    )

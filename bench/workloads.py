"""Workload definitions and seeded input generators.

Each workload names a corpus shape and the lexifactor commands run on
it. ``generate`` writes the corpus (``reviews.jsonl``) and the six
WordNet-layout lexicon files for a seed; the same seed always gives the
same bytes. Generation is vectorized with NumPy so that it stays a small
part of a benchmark run.

Lemmas are three consonant-vowel syllables, so every lemma ends in a
vowel. Inflected forms (``-s`` plurals, ``-er``/``-est`` comparatives)
and irregular forms (``-i`` plurals, ``-or`` comparatives listed in the
``.exc`` files) therefore never collide with a lemma, and each one
lemmatizes back to the lemma it was made from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYLLABLES = [c + v for c in "bcdfghjklmnprtvwz" for v in "aeiou"]
SOURCES = ("web", "app", "store", "email")

# Stand-in stopwords mixed into the text; all are on the packaged list.
STOPWORDS = (
    "the and was it very this that with for but not they have had you all "
    "so just from about when there their what which would could out more"
).split()

LICENSE = "  1 Generated lexical database for the lexifactor benchmark.\n  2 Layout follows WordNet 3.0.\n"


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "zipf" or "planted"; workloads of one corpus share inputs
    why: str
    reviews: int
    nouns: int
    adjectives: int
    mentions: float  # Poisson mean of Zipf-drawn lemma mentions per review
    factors: str
    topics: int = 0
    topic_words: int = 0
    topic_p: float = 0.0
    retain: int = 15
    threshold: float = 0.3
    # Seed of the corpus design (lexicon structure, topic draws, lemma
    # mentions); None takes the run's seed. The run's seed always picks
    # spellings, inflections, junk, stopwords and token order.
    design_seed: int | None = None
    # Time the five stage commands with --threads 2 instead of one pipeline
    # command; they must write the bytes an untimed pipeline run writes.
    stagewise: bool = False


ZIPF = dict(corpus="zipf", reviews=5_000, nouns=60_000, adjectives=15_000, mentions=60.0, factors="fixed:32")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zipf-pipeline",
            why="paper settings (k=32, threshold 0.3, retain 15) on a WordNet-scale lexicon and "
            "Zipf text: lexicon, dictionary, matrix, mmio and a Varimax stuck at its 100-sweep cap",
            **ZIPF,
        ),
        Workload(
            name="planted-efa",
            corpus="planted",
            why="40 planted topics keep ~1,300 columns, so phi, eigh, ULS and a "
            "converging Varimax dominate; topic purity is the oracle",
            reviews=5_000,
            nouns=6_400,
            adjectives=1_600,
            mentions=10.0,
            factors="fixed:40",
            topics=40,
            topic_words=30,
            topic_p=0.4,
            # ULS takes 6 to 32 iterations on different random topic draws,
            # so a per-seed design would make run_s differ by up to 2x.
            design_seed=0,
        ),
        Workload(
            name="zipf-stagewise",
            why="zipf-pipeline inputs run as five stage commands with --threads 2: "
            "six start-ups, two lexicon parses, disk handoffs, threaded matrix build",
            stagewise=True,
            **ZIPF,
        ),
    )
}


def lexifactor_args(workload: Workload, corpus_dir: str, out_dir: str, stagewise: bool) -> list[list[str]]:
    """One repetition's commands, as lexifactor argument lists.

    ``stagewise`` gives the five stage commands, resumed the way the
    README documents, with ``--threads 2``. Every stage command gets the
    same configuration flags, because each stage checks its
    configuration against the manifest's snapshot.
    """
    config = [
        "--input", f"{corpus_dir}/reviews.jsonl",
        "--lexicon-dir", f"{corpus_dir}/lexicon",
        "--output-dir", out_dir,
        "--factors", workload.factors,
        "--threshold", str(workload.threshold),
        "--retain", str(workload.retain),
    ]
    if not stagewise:
        return [["pipeline", *config]]
    stages = ("ingest", "dict", "matrix", "efa", "report")
    return [[stage, *config, "--threads", "2"] for stage in stages]


# ---------------------------------------------------------------------------
# lexicon


def _distinct_words(rng: np.random.Generator, n: int, exclude: set[str]) -> list[str]:
    n_syl = len(SYLLABLES)
    codes = rng.choice(n_syl**3, size=n + n // 50 + 100, replace=False).tolist()
    words = [SYLLABLES[c % n_syl] + SYLLABLES[c // n_syl % n_syl] + SYLLABLES[c // n_syl**2] for c in codes]
    words = [w for w in words if w not in exclude]
    return words[:n]


def _senses(rng: np.random.Generator, n_lemmas: int, n_reserved: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(lemma, synset) pairs: synonym synsets and polysemy.

    The first ``n_reserved`` lemmas each own one synset nobody else
    shares. The others spread over ``0.7 * free`` synsets, each synset
    getting at least one lemma, with a geometric number of extra senses.
    Returns sorted unique pairs and the synset count.
    """
    free = n_lemmas - n_reserved
    shared = int(0.7 * free)
    first = np.empty(free, dtype=np.int64)
    order = rng.permutation(free)
    first[order[:shared]] = np.arange(shared)
    first[order[shared:]] = rng.integers(0, shared, free - shared)
    extra = rng.geometric(0.7, free) - 1
    extra_owner = np.repeat(np.arange(free), extra)
    lemmas = np.concatenate([np.arange(n_reserved), n_reserved + np.arange(free), n_reserved + extra_owner])
    synsets = np.concatenate(
        [shared + np.arange(n_reserved), first, rng.integers(0, shared, extra_owner.size)]
    )
    pairs = np.unique(np.stack([lemmas, synsets], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1], shared + n_reserved


def _offset(synset: int) -> str:
    return f"{10_000_000 + 64 * synset:08d}"


def _write_pos(
    root: Path,
    rng: np.random.Generator,
    words: list[str],
    n_reserved: int,
    pos: str,
    tag: str,
    antonym_share: float,
    irregular: tuple[str, float],
) -> None:
    lemma_of, synset_of, n_synsets = _senses(rng, len(words), n_reserved)
    shared = n_synsets - n_reserved

    lines = [LICENSE.rstrip("\n")]
    bounds = np.flatnonzero(np.diff(lemma_of)) + 1
    for lemma, syns in zip(lemma_of[np.r_[0, bounds]].tolist(), np.split(synset_of, bounds)):
        n = len(syns)
        lines.append(f"{words[lemma]} {tag} {n} 1 @ {n} 0 " + " ".join(_offset(s) for s in syns.tolist()))
    head, body = lines[0], sorted(lines[1:])
    (root / f"index.{pos}").write_text("\n".join([head, *body]) + "\n", encoding="utf-8")

    pointers: dict[int, list[str]] = {}
    n_pairs = int(antonym_share * shared)
    for a, b in zip(rng.integers(0, shared, n_pairs).tolist(), rng.integers(0, shared, n_pairs).tolist()):
        if a != b:
            pointers.setdefault(a, []).append(f"! {_offset(b)} {tag} 0000")
            pointers.setdefault(b, []).append(f"! {_offset(a)} {tag} 0000")
    hypernym = rng.integers(0, shared, n_synsets).tolist()
    satellite = (rng.random(n_synsets) < (0.4 if pos == "adj" else 0.0)).tolist()

    by_synset = np.argsort(synset_of, kind="stable")
    syn_sorted = synset_of[by_synset]
    bounds = np.flatnonzero(np.diff(syn_sorted)) + 1
    lines = [LICENSE.rstrip("\n")]
    for synset, members in zip(syn_sorted[np.r_[0, bounds]].tolist(), np.split(lemma_of[by_synset], bounds)):
        members = members.tolist()
        ptrs = [*pointers.get(synset, []), f"@ {_offset(hypernym[synset])} {tag} 0000"]
        ss_type = "s" if satellite[synset] else tag
        lines.append(
            f"{_offset(synset)} 05 {ss_type} {len(members):02x} "
            + " ".join(f"{words[m]} 0" for m in members)
            + f" {len(ptrs):03d} "
            + " ".join(ptrs)
            + f" | a generated sense of {words[members[0]]}"
        )
    (root / f"data.{pos}").write_text("\n".join(lines) + "\n", encoding="utf-8")

    suffix, share = irregular
    picked = np.flatnonzero(rng.random(len(words)) < share).tolist()
    exc = [f"{words[i]}{suffix} {words[i]}" for i in picked]
    # Lines whose base the lexicon lacks; the parser must drop them.
    exc += [f"{words[i][::-1]}{suffix}q {words[i][::-1]}q" for i in picked[:50]]
    (root / f"{pos}.exc").write_text("\n".join(sorted(exc)) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# corpus


def _zipf(rng: np.random.Generator, n_items: int, size: int) -> np.ndarray:
    cdf = np.cumsum(1.0 / np.arange(1, n_items + 1))
    return np.minimum(np.searchsorted(cdf / cdf[-1], rng.random(size), side="right"), n_items - 1)


def _junk(count: int) -> list[str]:
    """One-off tokens that no lemma or inflection rule matches."""
    codes = np.arange(count)
    letters = np.stack([(codes // 26**i) % 26 for i in range(5)], axis=1).astype(np.uint8) + ord("a")
    return ["qx" + s for s in letters.view("S5").ravel().astype(str).tolist()]


def generate(workload: Workload, seed: int, root: Path) -> dict:
    """Write ``reviews.jsonl`` and ``lexicon/`` under ``root``.

    Returns facts the output checks need: the review count and, for
    planted corpora, the topic of every planted lemma.
    """
    corpus_id = 0 if workload.corpus == "zipf" else 1
    rng = np.random.default_rng([seed, corpus_id])
    design_seed = seed if workload.design_seed is None else workload.design_seed
    design = np.random.default_rng([design_seed, corpus_id, 1])
    root.mkdir(parents=True, exist_ok=True)
    lexicon = root / "lexicon"
    lexicon.mkdir(exist_ok=True)

    n_reserved = workload.topics * workload.topic_words
    words = _distinct_words(rng, workload.nouns + workload.adjectives, set(STOPWORDS))
    nouns = words[: workload.nouns]
    # One adjective lemma in twenty is also a noun, as in WordNet.
    shared = design.choice(np.arange(n_reserved, workload.nouns), workload.adjectives // 20, replace=False)
    adjectives = words[workload.nouns :][: workload.adjectives - shared.size] + [nouns[i] for i in shared.tolist()]
    _write_pos(lexicon, design, nouns, n_reserved, "noun", "n", 0.01, ("i", 0.03))
    _write_pos(lexicon, design, adjectives, 0, "adj", "a", 0.3, ("or", 0.05))

    # Surface forms: token id = 4 * lemma + form, form 0 the lemma itself,
    # 1-2 regular inflections, 3 the irregular form (or a regular one).
    noun_irr = {line.split()[1] for line in (lexicon / "noun.exc").read_text().split("\n") if line}
    adj_irr = {line.split()[1] for line in (lexicon / "adj.exc").read_text().split("\n") if line}
    lemmas = nouns + words[workload.nouns :][: workload.adjectives - shared.size]
    forms: list[str] = []
    for i, w in enumerate(lemmas):
        if i < len(nouns):
            forms += [w, w + "s", w + "s", w + "i" if w in noun_irr else w + "s"]
        else:
            forms += [w, w + "er", w + "est", w + "or" if w in adj_irr else w + "er"]

    n = workload.reviews
    n_background = len(lemmas) - n_reserved
    counts = design.poisson(workload.mentions, n)
    review_of = [np.repeat(np.arange(n), counts)]
    lemma_ids = [n_reserved + design.permutation(n_background)[_zipf(design, n_background, int(counts.sum()))]]
    topic_of: dict[str, int] = {}
    if workload.topics:
        first = design.integers(0, workload.topics, n)
        second = (first + design.integers(1, workload.topics, n)) % workload.topics
        chosen = np.stack([first, second], axis=1)[:, :, None] * workload.topic_words
        picked = chosen + np.arange(workload.topic_words)
        mask = design.random(picked.shape) < workload.topic_p
        review_of.append(np.broadcast_to(np.arange(n)[:, None, None], picked.shape)[mask])
        lemma_ids.append(picked[mask])
        topic_of = {nouns[i]: i // workload.topic_words for i in range(n_reserved)}
    review_of = np.concatenate(review_of)
    lemma_ids = np.concatenate(lemma_ids)
    inflected = rng.random(lemma_ids.size) < 0.2
    token_ids = 4 * lemma_ids + np.where(inflected, rng.integers(1, 4, lemma_ids.size), 0)

    # About 10% one-off junk tokens and a stopword for every three mentions.
    n_mentions = np.bincount(review_of, minlength=n)
    n_junk = rng.poisson(0.1 * n_mentions)
    n_stop = rng.poisson(n_mentions / 3)
    junk_ids = len(forms) + len(STOPWORDS) + np.arange(int(n_junk.sum()))
    stop_ids = len(forms) + rng.integers(0, len(STOPWORDS), int(n_stop.sum()))
    vocab = forms + STOPWORDS + _junk(junk_ids.size)

    all_ids = np.concatenate([token_ids, junk_ids, stop_ids])
    all_reviews = np.concatenate([review_of, np.repeat(np.arange(n), n_junk), np.repeat(np.arange(n), n_stop)])
    order = np.lexsort((rng.random(all_ids.size), all_reviews))
    tokens = [vocab[i] for i in all_ids[order].tolist()]
    ends = np.cumsum(np.bincount(all_reviews, minlength=n)).tolist()
    sources = rng.integers(0, len(SOURCES), n).tolist()

    with open(root / "reviews.jsonl", "w", encoding="utf-8", newline="") as handle:
        start = 0
        for i, end in enumerate(ends):
            text = " ".join(tokens[start:end])
            start = end
            record = {"id": f"r{i:06d}", "source": SOURCES[sources[i]], "text": text.capitalize() + "."}
            handle.write(json.dumps(record) + "\n")
    return {"reviews": n, "topic_of": topic_of}

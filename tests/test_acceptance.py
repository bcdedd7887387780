"""Acceptance suite for the full analysis pipeline.

Each criterion prints one ``[PASS]``/``[FAIL]`` line on the real
terminal (bypassing pytest capture) so a plain ``pytest`` run shows the
verdicts. Oracles are independent re-derivations: exhaustive grid
searches, planted models with analytically known loadings, textbook
formulas, and byte-level artifact comparison.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import align_columns, from_dense, random_binary, textbook_phi
from lexifactor import (
    CorrelationMatrix,
    FactorLoadings,
    Lexicon,
    LoadingTable,
    Review,
    TermDictionary,
    TermProvenance,
    attach_labels,
    build_matrix,
    build_report,
    column_stats,
    correlation_matrix,
    extract_uls,
    filter_top_variance,
    lemmatize,
    prune_loadings,
    render_markdown,
    varimax_rotate,
)
from lexifactor.cli import main
from lexifactor.efa import uls_objective


@contextmanager
def verdict(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {name}", flush=True)
        raise
    else:
        with capsys.disabled():
            print(f"[PASS] {name}", flush=True)


def corr_from(values) -> CorrelationMatrix:
    values = np.asarray(values, dtype=np.float64)
    return CorrelationMatrix(values=values, terms=tuple(f"t{i}" for i in range(len(values))))


# ---------------------------------------------------------------------------
# criterion 1: single-factor extraction vs exhaustive communality grid


def _random_correlation(rng, p=6):
    """Single-factor correlation matrix with off-diagonal noise.

    Communalities stay well inside (0, 1) so the optimum is interior;
    boundary (Heywood) behavior is exercised elsewhere.
    """
    planted = rng.uniform(0.3, 0.9, size=p)
    noise = np.triu(rng.uniform(-0.03, 0.03, size=(p, p)), 1)
    C = np.outer(planted, planted) + noise + noise.T
    np.fill_diagonal(C, 1.0)
    assert np.linalg.eigvalsh(C)[0] > 0.01
    return C


def _batch_objectives(C, H):
    """Single-factor residual objective for each communality vector in H."""
    m, p = H.shape
    R = np.broadcast_to(C, (m, p, p)).copy()
    R[:, np.arange(p), np.arange(p)] = H
    w, V = np.linalg.eigh(R)
    lam = np.clip(w[:, -1], 0.0, None)
    L = V[:, :, -1] * np.sqrt(lam)[:, None]
    residual = C[None, :, :] - L[:, :, None] * L[:, None, :]
    residual[:, np.arange(p), np.arange(p)] = 0.0
    return (residual**2).sum(axis=(1, 2))


def _grid_minimum(C, start, step=1e-3):
    """Coordinate descent over the communality grid {0, step, ..., 1}."""
    p = C.shape[0]
    grid = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    h = start.copy()
    best = float(_batch_objectives(C, h[None, :])[0])
    for _ in range(50):
        improved = False
        for i in range(p):
            H = np.repeat(h[None, :], len(grid), axis=0)
            H[:, i] = grid
            objectives = _batch_objectives(C, H)
            j = int(np.argmin(objectives))
            if objectives[j] < best - 1e-15:
                best = float(objectives[j])
                h[i] = grid[j]
                improved = True
        if not improved:
            break
    return best


def test_criterion_1_uls_objective_matches_grid_search(capsys):
    """20 random 6x6 correlation matrices: the k=1 extraction objective
    agrees with a step-1e-3 brute-force grid search within 1e-4, in
    under 10 seconds."""
    with verdict(capsys, "criterion 1: k=1 objective matches 1e-3 grid search on 20 matrices"):
        rng = np.random.default_rng(101)
        start_time = time.perf_counter()
        worst = 0.0
        for _ in range(20):
            C = _random_correlation(rng)
            model = extract_uls(corr_from(C), 1)
            ours = uls_objective(C, model.loadings)
            grid = min(
                _grid_minimum(C, np.full(6, 0.5)),
                _grid_minimum(C, np.clip(np.round(model.communalities, 3), 0.0, 1.0)),
            )
            worst = max(worst, abs(ours - grid))
        elapsed = time.perf_counter() - start_time
        assert worst <= 1e-4, f"objective gap {worst:.2e} exceeds 1e-4"
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


# ---------------------------------------------------------------------------
# criterion 2: exact-model recovery


def test_criterion_2_exact_model_recovery(capsys):
    """100 noiseless p=12, k=3 simple-structure models: extraction plus
    rotation recovers the planted loadings within 1e-3 up to column
    permutation and sign, with no failures."""
    with verdict(capsys, "criterion 2: 100/100 exact 12x3 models recovered within 1e-3"):
        rng = np.random.default_rng(202)
        ranges = [(0.75, 0.9), (0.6, 0.75), (0.45, 0.6)]
        failures = 0
        for _ in range(100):
            planted = np.zeros((12, 3))
            for f, (lo, hi) in enumerate(ranges):
                planted[4 * f : 4 * f + 4, f] = rng.uniform(lo, hi, size=4)
            C = planted @ planted.T
            np.fill_diagonal(C, 1.0)
            model = extract_uls(corr_from(C), 3)
            rotated = varimax_rotate(model.loadings).loadings
            aligned = align_columns(rotated, planted)
            if np.max(np.abs(aligned - planted)) > 1e-3:
                failures += 1
        assert failures == 0, f"{failures} of 100 models not recovered"


# ---------------------------------------------------------------------------
# criterion 3: planted factors in synthetic binary documents


def test_criterion_3_synthetic_corpus_recovery(capsys):
    """5,000 synthetic binary documents with three planted word blocks:
    rotated loadings land within 0.1 of the analytic values and each
    factor's top words are exactly its block's vocabulary."""
    with verdict(capsys, "criterion 3: planted 3-factor structure recovered from 5,000 documents"):
        rng = np.random.default_rng(303)
        n_docs, words_per_block, n_noise = 5000, 8, 6
        rates = [0.7, 0.6, 0.5]
        baseline, noise_rate = 0.05, 0.15
        n_words = 3 * words_per_block + n_noise

        active = rng.random((n_docs, 3)) < 0.5
        dense = np.zeros((n_docs, n_words))
        for f, a in enumerate(rates):
            block = slice(f * words_per_block, (f + 1) * words_per_block)
            prob = np.where(active[:, f : f + 1], a, baseline)
            dense[:, block] = rng.random((n_docs, words_per_block)) < prob
        dense[:, 3 * words_per_block :] = rng.random((n_docs, n_noise)) < noise_rate

        corr = correlation_matrix(from_dense(dense))
        model = extract_uls(corr, 3)
        rotated = varimax_rotate(model.loadings).loadings

        # within a block, phi = 0.25 (a-b)^2 / (p (1-p)) with p = (a+b)/2,
        # so each block word loads sqrt(phi) on its factor and 0 elsewhere
        planted = np.zeros((n_words, 3))
        for f, a in enumerate(rates):
            p = 0.5 * (a + baseline)
            phi = 0.25 * (a - baseline) ** 2 / (p * (1.0 - p))
            planted[f * words_per_block : (f + 1) * words_per_block, f] = np.sqrt(phi)

        aligned = align_columns(rotated, planted)
        worst = np.max(np.abs(aligned - planted))
        assert worst <= 0.1, f"loading error {worst:.3f} exceeds 0.1"

        for f in range(3):
            top = set(np.argsort(-np.abs(aligned[:, f]))[:words_per_block].tolist())
            block = set(range(f * words_per_block, (f + 1) * words_per_block))
            assert top == block, f"factor {f} top words {sorted(top)} != block {sorted(block)}"


# ---------------------------------------------------------------------------
# criterion 4: rotation invariants over random loading matrices


def test_criterion_4_rotation_invariants(capsys):
    """1,000 random loading matrices (p <= 50, k <= 10): the rotation is
    orthogonal to 1e-10, preserves communalities to 1e-10, and the
    criterion history never decreases. Zero violations allowed."""
    with verdict(capsys, "criterion 4: rotation invariants hold on 1,000 random matrices"):
        rng = np.random.default_rng(404)
        violations = 0
        for _ in range(1000):
            p = int(rng.integers(2, 51))
            k = int(rng.integers(1, min(10, p) + 1))
            loadings = rng.normal(size=(p, k)) * rng.uniform(0.2, 1.0)
            result = varimax_rotate(loadings)
            ortho = np.max(np.abs(result.rotation.T @ result.rotation - np.eye(k)))
            comm = np.max(
                np.abs((result.loadings**2).sum(axis=1) - (loadings**2).sum(axis=1))
            )
            monotone = bool(np.all(np.diff(np.array(result.criterion_history)) >= 0.0))
            if ortho > 1e-10 or comm > 1e-10 or not monotone:
                violations += 1
        assert violations == 0, f"{violations} of 1000 rotations violated an invariant"


# ---------------------------------------------------------------------------
# criterion 5: phi correlation against the textbook formula


def test_criterion_5_phi_against_textbook(capsys):
    """50 random corpora up to 100x100: the sparse-path correlation
    matches dense Pearson within 1e-12; a hand-built contingency table
    yields 1/sqrt(3) = 0.57735 to five decimals."""
    with verdict(capsys, "criterion 5: sparse phi matches dense textbook values on 50 corpora"):
        rng = np.random.default_rng(505)
        for _ in range(50):
            n = int(rng.integers(4, 101))
            p = int(rng.integers(2, 101))
            dense = random_binary(rng, n, p)
            ours = correlation_matrix(from_dense(dense)).values
            pearson = np.corrcoef(dense, rowvar=False)
            assert np.max(np.abs(ours - pearson)) <= 1e-12
            if p <= 12:
                assert np.max(np.abs(ours - textbook_phi(dense))) <= 1e-12

        # 4 documents, columns [1,1,0,0] and [1,0,0,0]
        dense = np.array([[1, 1], [1, 0], [0, 0], [0, 0]], dtype=float)
        phi = correlation_matrix(from_dense(dense)).values[0, 1]
        assert round(phi, 5) == 0.57735
        assert phi == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 6: production-parameter pipeline and the reference table row


CORPUS_SURFACES = [
    "noise", "price", "profit", "corpus", "glasses", "box", "quiz", "churches",
    "wishes", "men", "berries", "children", "teeth", "data", "user", "support",
    "team", "review", "chat", "email", "agent", "bot", "feature", "bug",
    "crashes", "taxes", "buzzes", "ax", "good", "bad", "happy", "fast", "late",
    "great", "simple", "nice", "expensive", "able", "galore",
]


def build_review_corpus(path, n_docs=400, seed=606):
    """Reviews over the fixture vocabulary: 41 candidate terms, with
    suite and ticket(s) co-occurring through a shared latent topic."""
    rng = np.random.default_rng(seed)
    lines = []
    for d in range(n_docs):
        words = ["the", "and"]
        topic = rng.random() < 0.4
        if rng.random() < (0.9 if topic else 0.05):
            words.append("suite")
        if rng.random() < (0.9 if topic else 0.05):
            words.append("tickets")
        for i, surface in enumerate(CORPUS_SURFACES):
            if rng.random() < 0.10 + 0.02 * (i % 16):
                words.append(surface)
        lines.append(json.dumps({"id": f"r{d:04d}", "source": "g2", "text": " ".join(words)}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_criterion_6_production_parameters(capsys, lexicon_dir, tmp_path):
    """The full pipeline runs with the production configuration (32
    fixed factors, 0.3 loading threshold, 15 retained factors) and the
    reference loading pattern renders as its expected table row."""
    with verdict(capsys, "criterion 6: production-parameter pipeline and reference table row"):
        corpus = build_review_corpus(tmp_path / "reviews.jsonl")
        out = tmp_path / "out"
        code = main(
            [
                "pipeline",
                "--input", str(corpus),
                "--lexicon-dir", str(lexicon_dir),
                "--output-dir", str(out),
                "--factors", "fixed:32",
                "--threshold", "0.3",
                "--retain", "15",
            ]
        )
        assert code == 0

        model = json.loads((out / "model.json").read_text())
        assert model["k"] == 32
        assert len(model["terms"]) >= 32

        table = json.loads((out / "loading_table.json").read_text())
        assert len(table["factors"]) == 15
        assert table["threshold"] == 0.3
        for factor in table["factors"]:
            for _, loading in factor["entries"]:
                assert abs(loading) >= 0.3

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["factors"] == "fixed:32"
        assert manifest["config"]["threshold"] == 0.3
        assert manifest["config"]["retain"] == 15
        efa_counts = manifest["stages"]["efa"]["counts"]
        assert efa_counts["factors_extracted"] == 32
        assert efa_counts["factors_retained"] == 15
        matrix_counts = manifest["stages"]["matrix"]["counts"]
        assert matrix_counts["kept_columns"] >= 32
        assert manifest["stages"]["report"]["counts"]["factors_reported"] == 15

        # suite and ticket share a planted topic: some retained factor
        # must carry both above the threshold
        pairs = [
            {term for term, _ in factor["entries"]} for factor in table["factors"]
        ]
        assert any({"suite", "ticket"} <= terms for terms in pairs)

        assert main(["verify", "--output-dir", str(out)]) == 0

        # reference pattern: suite 0.65 and ticket 0.41 survive the 0.3
        # threshold, noise does not, and the row renders with its label
        reference = LoadingTable(
            factors=(
                FactorLoadings(1, (("suite", 0.65), ("ticket", 0.41))),
            ),
            threshold=0.3,
        )
        rotated = np.array([[0.65], [0.41], [0.12]])

        pruned = prune_loadings(rotated, 0.3, ("suite", "ticket", "noise"))
        assert pruned.factors[0].entries == reference.factors[0].entries
        assert [term for term, _ in pruned.factors[0].entries] == ["suite", "ticket"]

        report = attach_labels(
            build_report(pruned), {"1": "Customer Service Automation"}
        )
        assert (
            "| 1 | suite (0.65), ticket (0.41) | Customer Service Automation |"
            in render_markdown(report)
        )


# ---------------------------------------------------------------------------
# criterion 7: corpus-scale timing


def _base26_words(count):
    words = []
    for i in range(count):
        v = i
        chars = []
        for _ in range(4):
            chars.append(chr(ord("a") + v % 26))
            v //= 26
        words.append("".join(reversed(chars)))
    return words


def test_criterion_7_scale(capsys):
    """A 55,968 x 13,522 corpus at ~1% density: matrix plus column stats
    in under 60 seconds, then ULS extraction with 32 factors over the
    586 highest-variance columns in under 5 minutes."""
    with verdict(capsys, "criterion 7: 55,968x13,522 matrix < 60s and 586-column EFA < 300s"):
        n_docs, n_terms, mentions = 55_968, 13_522, 135
        words = _base26_words(n_terms)
        lexicon = Lexicon(
            entries={(w, "noun"): frozenset({("noun", i)}) for i, w in enumerate(words)},
            exceptions={},
        )
        dictionary = TermDictionary(
            terms=tuple(words),
            index={w: i for i, w in enumerate(words)},
            provenance={
                w: TermProvenance(pos="noun", sense_ids=(("noun", i),), doc_freq=0)
                for i, w in enumerate(words)
            },
        )
        rng = np.random.default_rng(707)
        draws = rng.integers(0, n_terms, size=(n_docs, mentions))
        word_array = np.array(words)
        reviews = [
            Review(id=f"d{i}", source="synthetic", text=" ".join(word_array[row]))
            for i, row in enumerate(draws)
        ]
        del draws

        started = time.perf_counter()
        matrix = build_matrix(reviews, dictionary, lexicon)
        stats = column_stats(matrix)
        build_seconds = time.perf_counter() - started

        assert matrix.n_docs == n_docs and matrix.n_terms == n_terms
        density = matrix.nnz() / (n_docs * n_terms)
        assert 0.008 <= density <= 0.012, f"density {density:.4f} not ~1%"
        assert build_seconds < 60.0, f"matrix+stats took {build_seconds:.1f}s, budget 60s"

        filtered, _ = filter_top_variance(matrix, 586, stats)
        started = time.perf_counter()
        corr = correlation_matrix(filtered)
        model = extract_uls(corr, 32)
        result = varimax_rotate(model.loadings)
        efa_seconds = time.perf_counter() - started

        assert result.loadings.shape == (586, 32)
        assert efa_seconds < 300.0, f"EFA took {efa_seconds:.1f}s, budget 300s"


# ---------------------------------------------------------------------------
# criterion 8: lemmatizer conformance


_NOUN_RULES = (
    ("s", ""), ("ses", "s"), ("xes", "x"), ("zes", "z"),
    ("ches", "ch"), ("shes", "sh"), ("men", "man"), ("ies", "y"),
)
_ADJ_RULES = (("er", ""), ("est", ""), ("er", "e"), ("est", "e"))


def _reference_morphy(lexicon, token, pos):
    """Straight transcription of the documented analysis order."""
    if (token, pos) in lexicon.exceptions:
        return lexicon.exceptions[(token, pos)]
    for suffix, replacement in _NOUN_RULES if pos == "noun" else _ADJ_RULES:
        if token.endswith(suffix):
            candidate = token[: len(token) - len(suffix)] + replacement
            if candidate and (candidate, pos) in lexicon.entries:
                return candidate
    return token if (token, pos) in lexicon.entries else None


def _conformance_cases(lexicon):
    rng = np.random.default_rng(808)
    cases = []
    nouns = sorted(lemma for lemma, pos in lexicon.entries if pos == "noun")
    adjs = sorted(lemma for lemma, pos in lexicon.entries if pos == "adj")
    for lemma in nouns:
        cases.append((lemma, "noun"))
        cases.append((lemma + "s", "noun"))
        if lemma.endswith(("s", "x", "z", "ch", "sh")):
            cases.append((lemma + "es", "noun"))
        if lemma.endswith("y"):
            cases.append((lemma[:-1] + "ies", "noun"))
        if lemma.endswith("man"):
            cases.append((lemma[:-3] + "men", "noun"))
    for lemma in adjs:
        cases.append((lemma, "adj"))
        if lemma.endswith("e"):
            cases.append((lemma + "r", "adj"))
            cases.append((lemma + "st", "adj"))
        else:
            cases.append((lemma + "er", "adj"))
            cases.append((lemma + "est", "adj"))
    for (inflected, pos) in list(lexicon.exceptions):
        cases.append((inflected, pos))
    # forms dropped from the exception files and plain unknowns
    cases += [("oxen", "noun"), ("geese", "noun"), ("running", "noun"), ("running", "adj")]
    alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    for _ in range(60):
        length = int(rng.integers(3, 10))
        word = "".join(rng.choice(alphabet, size=length))
        cases.append((word, "noun"))
        cases.append((word, "adj"))
    return cases


def test_criterion_8_lemmatizer_conformance(capsys, lexicon):
    """At least 200 inflected forms, exception entries, identities, and
    unknowns: the lemmatizer agrees with a reference transcription of
    the analysis order on every single one."""
    with verdict(capsys, "criterion 8: lemmatizer agrees with reference on 200+ words"):
        cases = _conformance_cases(lexicon)
        assert len(cases) >= 200, f"only {len(cases)} conformance cases generated"
        mismatches = [
            (token, pos, lemmatize(lexicon, token, pos), _reference_morphy(lexicon, token, pos))
            for token, pos in cases
            if lemmatize(lexicon, token, pos) != _reference_morphy(lexicon, token, pos)
        ]
        assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:3]}"


# ---------------------------------------------------------------------------
# criterion 9: thread count never changes artifact bytes


def test_criterion_9_threaded_runs_byte_identical(capsys, lexicon_dir, tmp_path):
    """Two full pipeline runs over the same corpus, one with 1 thread
    and one with 8, produce byte-identical artifacts including the
    manifest."""
    with verdict(capsys, "criterion 9: artifacts byte-identical with 1 and 8 threads"):
        corpus = build_review_corpus(tmp_path / "reviews.jsonl", n_docs=300, seed=909)
        outputs = {}
        for threads in (1, 8):
            out = tmp_path / f"threads{threads}"
            code = main(
                [
                    "pipeline",
                    "--input", str(corpus),
                    "--lexicon-dir", str(lexicon_dir),
                    "--output-dir", str(out),
                    "--factors", "fixed:8",
                    "--threads", str(threads),
                ]
            )
            assert code == 0
            outputs[threads] = {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if path.is_file() and path.name != ".lock"
            }
        assert set(outputs[1]) == set(outputs[8])
        different = [name for name in outputs[1] if outputs[1][name] != outputs[8][name]]
        assert not different, f"artifacts differ between thread counts: {different}"

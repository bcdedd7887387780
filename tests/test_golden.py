"""Golden artifacts: two seeded pipeline runs against committed hashes.

Each configuration runs ``lexifactor pipeline`` in a fresh interpreter
with the BLAS thread count pinned to 1, since LAPACK results move in
the last bits with the thread count. On a host whose fingerprint
(NumPy version, BLAS name and version, SIMD extensions found) matches
the one recorded in ``golden/artifacts.json``, all 15 artifacts must
match their recorded sha256. On any other host the 9 artifacts that
hold no computed floats are still compared by hash, and ``model.json``
and ``report.md`` are compared with the golden copies by
:func:`helpers.assert_equivalent_factor_results`.

After a change that moves artifact bytes on purpose, rewrite the
golden files with ``python tests/test_golden.py`` (``src`` on
``PYTHONPATH``) and say in the change why the bytes moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import lexifactor
from helpers import assert_equivalent_factor_results
from test_acceptance import CORPUS_SURFACES, build_review_corpus
from wordnet_fixture import write_lexical_database

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_INDEX = GOLDEN_DIR / "artifacts.json"
_SRC = str(Path(lexifactor.__file__).resolve().parent.parent)

FLOAT_FREE = (
    "reviews.jsonl",
    "dictionary.json",
    "matrix.mtx",
    "matrix.terms.txt",
    "matrix.docs.txt",
    "filtered.mtx",
    "filtered.terms.txt",
    "filtered.docs.txt",
    "filter_report.json",
)
COMPARED_COPIES = ("model.json", "report.md")


def unstructured_corpus(path: Path, n_docs: int = 200, seed: int = 2) -> Path:
    """Reviews in which each fixture surface appears with probability
    0.3, independently: no factor structure for Varimax to find."""
    rng = np.random.default_rng(seed)
    lines = []
    for d in range(n_docs):
        words = ["the", "and"] + [s for s in CORPUS_SURFACES if rng.random() < 0.3]
        lines.append(json.dumps({"id": f"u{d:04d}", "source": "g2", "text": " ".join(words)}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# name -> (corpus writer, --factors, expected k, expected Varimax sweeps)
CONFIGURATIONS = {
    # criterion 6's corpus: planted suite/ticket topic, Varimax converges
    "planted-kaiser": (build_review_corpus, "kaiser", 19, 45),
    # seed 2 of the unstructured corpus: Varimax stops at its 100-sweep cap
    "unstructured-capped": (unstructured_corpus, "fixed:12", 12, 100),
}


def fingerprint() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd_found": list(config["SIMD Extensions"]["found"]),
    }


def run_configuration(name: str, work: Path) -> Path:
    """Run one configuration's pipeline in a subprocess; return its output dir.

    The corpus and the fixture lexicon are written into ``work`` and
    named by relative paths, because the manifest records both paths.
    """
    write_corpus, factors, _, _ = CONFIGURATIONS[name]
    write_corpus(work / "reviews.jsonl")
    write_lexical_database(work / "lexdb")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    subprocess.run(
        [
            sys.executable, "-m", "lexifactor", "pipeline",
            "--input", "reviews.jsonl",
            "--lexicon-dir", "lexdb",
            "--output-dir", "out",
            "--factors", factors,
        ],
        cwd=work, env=env, capture_output=True, timeout=300, check=True,
    )
    return work / "out"


def artifact_hashes(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each configuration's output directory, run once per session."""
    return {name: run_configuration(name, tmp_path_factory.mktemp(name)) for name in CONFIGURATIONS}


def golden_copies(name: str) -> tuple[dict, str]:
    copies = GOLDEN_DIR / name
    return (
        json.loads((copies / "model.json").read_text(encoding="utf-8")),
        (copies / "report.md").read_text(encoding="utf-8"),
    )


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_golden_hashes(name, runs):
    golden = json.loads(GOLDEN_INDEX.read_text(encoding="utf-8"))
    hashes = artifact_hashes(runs[name])
    expected = golden["configurations"][name]
    assert sorted(hashes) == sorted(expected), "artifact set differs"
    assert len(hashes) == 15

    model = json.loads((runs[name] / "model.json").read_text(encoding="utf-8"))
    _, _, k, sweeps = CONFIGURATIONS[name]
    assert (model["k"], model["rotation_sweeps"]) == (k, sweeps)

    compared = hashes if fingerprint() == golden["fingerprint"] else FLOAT_FREE
    different = sorted(n for n in compared if hashes[n] != expected[n])
    assert not different, f"artifacts differ from the golden hashes: {different}"


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_golden_numeric_equivalence(name, runs):
    """The check that stands in for the float-bearing hashes on a host
    with another fingerprint; it runs everywhere."""
    out = runs[name]
    golden_model, golden_report = golden_copies(name)
    assert_equivalent_factor_results(
        json.loads((out / "model.json").read_text(encoding="utf-8")),
        golden_model,
        (out / "report.md").read_text(encoding="utf-8"),
        golden_report,
    )


def test_equivalence_helper_rejects_changes():
    golden_model, golden_report = golden_copies("planted-kaiser")
    k = golden_model["k"]
    rotated = np.array(golden_model["rotated"])

    # reversed factor order with every sign flipped is the same result
    flipped = dict(golden_model, rotated=(-rotated[:, ::-1]).tolist())
    renumbered = re.sub(
        r"^\| (\d+) \|", lambda m: f"| {k + 1 - int(m.group(1))} |", golden_report, flags=re.M
    )
    assert_equivalent_factor_results(flipped, golden_model, renumbered, golden_report)

    nudged = rotated.copy()
    nudged[3, 2] += 1e-6
    changed_report = golden_report.replace("ticket (0.87), ", "", 1)
    for model, report in [
        (dict(golden_model, rotated=nudged.tolist()), golden_report),
        (dict(golden_model, terms=golden_model["terms"][::-1]), golden_report),
        (golden_model, changed_report),
        (golden_model, renumbered),
    ]:
        with pytest.raises(AssertionError):
            assert_equivalent_factor_results(model, golden_model, report, golden_report)


def write_golden() -> None:
    """Rerun every configuration and rewrite the golden hashes and copies."""
    index = {"fingerprint": fingerprint(), "configurations": {}}
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CONFIGURATIONS):
            work = Path(scratch) / name
            work.mkdir()
            out = run_configuration(name, work)
            index["configurations"][name] = artifact_hashes(out)
            (GOLDEN_DIR / name).mkdir(parents=True, exist_ok=True)
            for artifact in COMPARED_COPIES:
                (GOLDEN_DIR / name / artifact).write_bytes((out / artifact).read_bytes())
    GOLDEN_INDEX.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()

"""Benchmark of the lexifactor command line on seeded synthetic workloads.

Run from the repository root::

    python3 bench/run.py --workload zipf-pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

One client runs one command at a time (a closed loop). A run generates
the workload's inputs from ``--seed``, times a fresh ``python -m
lexifactor --version`` several times (``setup_s``), and then repeats the
workload's command sequence and two ``lexifactor verify`` until about
``--seconds`` have passed, each repetition in a fresh output directory.
Every command is a subprocess of its own whose peak RSS comes from
``os.wait4``.

Output checks, each counted into ``failed``: every command exits 0,
``verify`` prints ``verify: ok``, every repetition writes the same
artifact bytes, the manifest counts match the workload,
``zipf-stagewise`` writes the same bytes as an untimed ``pipeline`` run
on the same inputs, and on ``planted-efa`` every retained factor is at
least 90% one planted topic, a different topic for each factor.

With ``--trace 1`` the run then repeats the sequence once more through
``bench/traced.py`` and reports per-layer metrics instead of end-to-end
ones. The last line of standard output is one JSON object; the lines
before it give every metric with its unit and sample count, and the
machine the numbers come from. The exit code is 0 when every check
passes, 1 when one fails and 2 when the program is not there to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, Workload, generate, lexifactor_args  # noqa: E402

WORK = Path(".bench_work")
RUN_DIR = WORK / "run"  # inputs and outputs of the current run, removed at its end
TRACES = WORK / "traces"  # merged traces of --trace 1 runs, kept
SETUP_PROBES = 5  # at least this many set-up samples per run
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s, hung commands included
VERIFY_OK = "verify: ok"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("reviews_per_s", "1/s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
)


@dataclass
class Command:
    status: int
    wall_s: float
    rss_mb: float
    stdout: str


@dataclass
class Run:
    """Bookkeeping of one benchmark run: commands attempted and failed."""

    deadline: float
    env: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def spawn(self, argv: list[str]) -> Command:
        """Run one command to completion; a command past the deadline is killed."""
        self.attempted += 1
        log = RUN_DIR / "command.log"
        with open(log, "w+", encoding="utf-8") as stdout:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
            stdout.seek(0)
            output = stdout.read()
        command = Command(proc.returncode, wall, usage.ru_maxrss / 1024, output)
        if command.status != 0:
            self.fail(f"exit {command.status}: {' '.join(argv[1:])}\n{output[-2000:]}")
        return command

    def lexifactor(self, args: list[str]) -> Command:
        return self.spawn([sys.executable, "-m", "lexifactor", *args])

    def fail(self, problem: str, commands: int = 1) -> None:
        self.failed += commands
        self.problems.append(problem)


def digests(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


def output_problems(workload: Workload, facts: dict, out: Path) -> list[str]:
    """Manifest counts, and topic purity for planted corpora."""
    try:
        return _output_problems(workload, facts, out)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _output_problems(workload: Workload, facts: dict, out: Path) -> list[str]:
    problems = []
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    k = int(workload.factors.split(":")[1])
    for stage, key, want in (
        ("ingest", "reviews", facts["reviews"]),
        ("efa", "factors_extracted", k),
        ("efa", "factors_retained", workload.retain),
    ):
        got = stages.get(stage, {}).get("counts", {}).get(key)
        if got != want:
            problems.append(f"manifest {stage}.{key} is {got}, expected {want}")
    if facts["topic_of"]:
        table = json.loads((out / "loading_table.json").read_text(encoding="utf-8"))
        seen = set()
        for factor in table["factors"]:
            topics = Counter(facts["topic_of"].get(term) for term, _ in factor["entries"])
            topic, hits = topics.most_common(1)[0] if topics else (None, 0)
            purity = hits / max(1, len(factor["entries"]))
            if topic is None or purity < 0.9 or topic in seen:
                problems.append(f"factor {factor['factor']}: {purity:.2f} of topic {topic}, seen {topic in seen}")
            seen.add(topic)
    return problems


def measure(
    run: Run, workload: Workload, facts: dict, seconds: float
) -> tuple[dict[str, list[float]], dict[str, str] | None]:
    """Set-up probes, then the closed loop of workload repetitions.

    Returns the samples of every metric and the artifact digests all
    repetitions agreed on.
    """
    samples: dict[str, list[float]] = defaultdict(list)

    def setup_probe() -> None:
        samples["setup_s"].append(run.lexifactor(["--version"]).wall_s)

    run.lexifactor(["--version"])  # compiles the package's bytecode once
    setup_probe()

    corpus = f"{RUN_DIR}/{workload.corpus}"
    expected = None
    if workload.stagewise:
        for args in lexifactor_args(workload, corpus, f"{RUN_DIR}/reference", stagewise=False):
            run.lexifactor(args)
        expected = digests(RUN_DIR / "reference")

    out = RUN_DIR / "out"
    commands = lexifactor_args(workload, corpus, str(out), workload.stagewise)
    started = time.perf_counter()
    repetitions = 0
    # Start another repetition while half of one of average length still
    # fits, so that a run lasts --seconds on average.
    while repetitions == 0 or (
        (time.perf_counter() - started) * (repetitions + 0.5) / repetitions <= seconds
        and time.monotonic() < run.deadline - 30
    ):
        repetitions += 1
        shutil.rmtree(out, ignore_errors=True)
        results = [run.lexifactor(args) for args in commands]
        # verify is short, so it runs twice per repetition for more samples.
        verifies = [run.lexifactor(["verify", "--output-dir", str(out)]) for _ in range(2)]
        results += verifies
        if any(result.status != 0 for result in results):
            break
        problems = [f"verify said: {v.stdout.strip()}" for v in verifies if VERIFY_OK not in v.stdout]
        problems += output_problems(workload, facts, out)
        got = digests(out)
        if expected is None:
            expected = got
        elif got != expected:
            changed = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
            against = "the pipeline run" if workload.stagewise else "the first repetition"
            problems.append(f"artifacts differ from {against}: {', '.join(changed)}")
        if problems:
            run.fail("; ".join(problems), len(results))
            break
        run_s = sum(result.wall_s for result in results[: len(commands)])
        samples["run_s"].append(run_s)
        samples["reviews_per_s"].append(facts["reviews"] / run_s)
        samples["verify_s"] += [v.wall_s for v in verifies]
        samples["peak_rss_mb"].append(max(result.rss_mb for result in results))
        samples["artifact_mb"].append(sum(path.stat().st_size for path in out.iterdir()) / 1e6)
        # Probes spread over the run see the same machine as the repetitions.
        setup_probe()
    while len(samples["setup_s"]) < SETUP_PROBES:
        setup_probe()
    return samples, expected


# ---------------------------------------------------------------------------
# traced run


PER_LAYER = (
    # name, unit, better, how it is computed from the traces
    ("ingest.load_reviews_s", "s", "lower", ("self", "ingest.load_reviews")),
    ("ingest.load_reviews_calls", "count", "lower", ("calls", "ingest.load_reviews")),
    ("ingest.reviews", "count", "higher", ("max", "ingest.reviews")),
    ("ingest.input_mb", "MB", "lower", ("sum", "ingest.input_mb")),
    ("lexicon.parse_s", "s", "lower", ("self", "lexicon.parse")),
    ("lexicon.parse_calls", "count", "lower", ("calls", "lexicon.parse")),
    ("lexicon.build_dictionary_s", "s", "lower", ("self", "lexicon.build_dictionary")),
    ("lexicon.token_occurrences", "count", "lower", ("counter", "token_occurrences")),
    ("lexicon.distinct_tokens", "count", "lower", ("distinct", "tokens")),
    ("lexicon.lemmatize_calls", "count", "lower", ("counter", "lemmatize_calls")),
    ("lexicon.lemmatize_calls_per_distinct_token", "ratio", "lower", ("waste", None)),
    ("lexicon.candidates", "count", "lower", ("distinct", "lemmas")),
    ("lexicon.terms", "count", "lower", ("max", "lexicon.terms")),
    ("matrix.build_s", "s", "lower", ("self", "matrix.build")),
    ("matrix.column_stats_s", "s", "lower", ("self", "matrix.column_stats")),
    ("matrix.column_stats_calls", "count", "lower", ("calls", "matrix.column_stats")),
    ("matrix.filter_s", "s", "lower", ("self", "matrix.filter")),
    ("matrix.nnz", "count", "lower", ("max", "matrix.nnz")),
    ("matrix.kept_columns", "count", "lower", ("max", "matrix.kept_columns")),
    ("mmio.write_s", "s", "lower", ("self", "mmio.write")),
    ("mmio.write_mb", "MB", "lower", ("sum", "mmio.write_mb")),
    ("mmio.read_s", "s", "lower", ("self", "mmio.read")),
    ("mmio.read_calls", "count", "lower", ("calls", "mmio.read")),
    ("mmio.read_mb", "MB", "lower", ("sum", "mmio.read_mb")),
    ("mmio.read_mb_per_s", "MB/s", "higher", ("rate", None)),
    ("efa.correlation_s", "s", "lower", ("self", "efa.correlation")),
    ("efa.eigendecompose_s", "s", "lower", ("self", "efa.eigendecompose")),
    ("efa.uls_s", "s", "lower", ("self", "efa.uls")),
    ("efa.uls_iterations", "count", "lower", ("max", "efa.uls_iterations")),
    ("efa.uls_converged", "flag", "higher", ("min", "efa.uls_converged")),
    ("efa.heywood", "flag", "lower", ("max", "efa.heywood")),
    ("efa.varimax_s", "s", "lower", ("self", "efa.varimax")),
    ("efa.varimax_sweeps", "count", "lower", ("max", "efa.varimax_sweeps")),
    ("efa.varimax_at_cap", "flag", "lower", ("max", "efa.varimax_at_cap")),
    ("efa.prune_refine_s", "s", "lower", ("self", "efa.prune_refine")),
    ("efa.p", "count", "lower", ("max", "efa.p")),
    ("efa.k", "count", "lower", ("max", "efa.k")),
    ("report.exemplars_s", "s", "lower", ("self", "report.exemplars")),
    ("report.emit_s", "s", "lower", ("self", "report.emit")),
    ("report.loadings_csv_s", "s", "lower", ("self", "report.loadings_csv")),
    ("pipeline.ingest_s", "s", "lower", ("total", "stage.ingest")),
    ("pipeline.dict_s", "s", "lower", ("total", "stage.dict")),
    ("pipeline.matrix_s", "s", "lower", ("total", "stage.matrix")),
    ("pipeline.efa_s", "s", "lower", ("total", "stage.efa")),
    ("pipeline.report_s", "s", "lower", ("total", "stage.report")),
    ("pipeline.glue_s", "s", "lower", ("glue", None)),
    ("pipeline.verify_s", "s", "lower", ("total", "command.verify")),
    ("pipeline.hashed_mb", "MB", "lower", ("sum", "pipeline.hashed_mb")),
    ("trace.overhead_s", "s", "lower", ("overhead", None)),
)

# Wrapped names (see traced.py) each kind of metric depends on.
_NEEDS = {
    "token_occurrences": "lexicon.tokenize",
    "lemmatize_calls": "lexicon.lemmatize_token",
    "tokens": "lexicon.lemmatize_token",
    "lemmas": "lexicon.lemmatize_token",
    "pipeline.hashed_mb": "pipeline.sha256",
}


def layer_metrics(traces: list[dict], untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics from the traces of one workload repetition.

    A span's self time is its duration minus the time its child spans
    cover. A metric whose wrapped function was missing is left out.
    """
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    facts: dict[str, list[float]] = defaultdict(list)
    counters: Counter[str] = Counter()
    distinct: dict[str, set] = defaultdict(set)
    missing: set[str] = set()
    for trace in traces:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child_s in zip(spans, covered):
            self_s[name] += end - start - child_s
            total_s[name] += end - start
            calls[name] += 1
        for name, values in trace["facts"].items():
            facts[name] += values
        for name in ("token_occurrences", "lemmatize_calls"):
            counters[name] += trace[name]
        for name in ("tokens", "lemmas"):
            distinct[name].update(trace[name])
        missing.update(trace["missing"])

    def glue() -> float:
        names = [name for name in self_s if name.startswith("stage.")] + ["command.pipeline", "command.stage"]
        return sum(self_s[name] for name in names)

    metrics: dict[str, float] = {}
    for name, _, _, (kind, source) in PER_LAYER:
        if kind in ("self", "calls", "total"):
            if source in missing or (source.startswith("stage.") and "stage" in missing):
                continue
            value = {"self": self_s, "calls": calls, "total": total_s}[kind][source]
        elif kind in ("max", "min", "sum"):
            if not facts[source] or _NEEDS.get(source) in missing:
                continue
            value = {"max": max, "min": min, "sum": sum}[kind](facts[source])
        elif kind in ("counter", "distinct"):
            if _NEEDS[source] in missing:
                continue
            value = counters[source] if kind == "counter" else len(distinct[source])
        elif kind == "waste":
            if "lexicon.lemmatize_token" in missing or not distinct["tokens"]:
                continue
            value = counters["lemmatize_calls"] / len(distinct["tokens"])
        elif kind == "rate":
            if "mmio.read" in missing or not facts["mmio.read_mb"] or not self_s["mmio.read"]:
                continue
            value = sum(facts["mmio.read_mb"]) / self_s["mmio.read"]
        elif kind == "glue":
            if "stage" in missing:
                continue
            value = glue()
        else:  # overhead
            value = traced_s - untraced_s
        metrics[name] = value
    return metrics


def traced(run: Run, workload: Workload, expected: dict, untraced_s: float, label: str) -> dict[str, float]:
    """One more repetition with every command run under traced.py."""
    out = RUN_DIR / "out"
    shutil.rmtree(out, ignore_errors=True)
    trace_dir = RUN_DIR / "trace"
    trace_dir.mkdir()
    commands = lexifactor_args(workload, f"{RUN_DIR}/{workload.corpus}", str(out), workload.stagewise)
    commands.append(["verify", "--output-dir", str(out)])
    script = str(Path(__file__).resolve().parent / "traced.py")
    traces, traced_s = [], 0.0
    for i, args in enumerate(commands):
        path = trace_dir / f"{i}.json"
        result = run.spawn([sys.executable, script, str(path), *args])
        traced_s += result.wall_s
        if result.status == 0:
            traces.append(json.loads(path.read_text(encoding="utf-8")))
    if len(traces) == len(commands) and digests(out) != expected:
        run.fail("traced run wrote different artifacts", len(commands))
    TRACES.mkdir(parents=True, exist_ok=True)
    (TRACES / f"{label}.json").write_text(json.dumps({"commands": commands, "traces": traces}), encoding="utf-8")
    return layer_metrics(traces, untraced_s, traced_s)


# ---------------------------------------------------------------------------
# entry point


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{config.get('name')} {config.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def bench(workload: Workload, seed: int, seconds: float, trace: bool) -> bool:
    started = time.monotonic()
    src = Path("src").resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = Run(deadline=started + RUN_LIMIT_S, env=env)
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir(parents=True)
    try:
        facts = generate(workload, seed, RUN_DIR / workload.corpus)
        samples, expected = measure(run, workload, facts, seconds)
        if trace:
            untraced_s = statistics.median(samples["run_s"]) + statistics.median(samples["verify_s"])
            label = f"{workload.name}-seed{seed}"
            metrics = {
                name: (value, next(unit for n, unit, _, _ in PER_LAYER if n == name))
                for name, value in traced(run, workload, expected, untraced_s, label).items()
            }
            counts = {name: 1 for name in metrics}
        else:
            metrics = {name: (statistics.median(samples[name]), unit) for name, unit in END_TO_END}
            counts = {name: len(samples[name]) for name, _ in END_TO_END}
    except statistics.StatisticsError:
        metrics, counts = {}, {}
        run.fail("no repetition completed without errors", 0)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    correct = not run.problems
    print(f"workload {workload.name}, seed {seed}: {workload.why}")
    print(f"machine {json.dumps(machine_facts())}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    if not trace:
        print(f"samples {json.dumps(samples)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:8s} n={counts[name]}")
    rate = run.failed / max(1, run.attempted)
    print(f"  {'error_rate':44s} {rate:14.6g} {'fraction':8s} n={run.attempted} commands, {run.failed} failed")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/lexifactor/__init__.py").is_file():
        print("error: run from the repository root; src/lexifactor is missing", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

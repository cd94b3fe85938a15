"""kgxir benchmark: seeded inputs, three workloads, checked outputs.

    python3 perfbench/run.py --workload serve-large --seed 1 --seconds 36 --trace 0

Run from the repository root. The benchmark reaches kgxir only through its
public surface: ``kgxir.cli.main`` for ``index``, ``query``, ``eval-rerank``
and ``eval-mis``, and ``load_index``/``load_kg`` plus ``explain_query`` for
warm queries. Every output is checked by ``checks.py`` against the truth
``gen.py`` planted; an operation whose check fails counts as failed.

A run repeats whole rounds of the same operations until the next round
would end after ``--seconds``, and runs on past it until it holds at least
``MIN_ROUNDS`` rounds and the workload's ``min_warm`` warm queries. Each
round is: one set-up (generate and write the inputs into an empty
directory, then ``kgxir index`` them into its empty ``artifact/``), half
the warm queries, one cold query, ``kgxir eval-rerank``, the other half of
the warm queries, and ``kgxir eval-mis``, each preceded by a calibration
sample (``calib.py``).
Interleaving puts every kind of operation under the same slow and fast
spells of a shared machine, and each end-to-end timing is a median over the
run's rounds or queries (the 95th percentile is taken over the distinct
queries, each at its median latency), never a single call, scaled to
reference speed. After the rounds, ``rss_probe.py``
does one round's kgxir operations in a fresh process, for ``peak_rss_mb``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds per-layer metrics per round, from spans that
``spans.py`` records around kgxir's public functions, and the spans are
written to ``.perfbench-out/<workload>-<seed>/spans.jsonl``. Other output
goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
HASH_SEED = "0"
# Every once-per-round timing is a median of at least MIN_ROUNDS values, and
# the query latencies pool at least Workload.min_warm warm queries; a
# run stops short of them only after MAX_SECONDS, to end well within 180 s.
MIN_ROUNDS = 5
MAX_SECONDS = 120.0

sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
from spans import LAYERS, Tracer, layer_name  # noqa: E402


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    k: int
    warm_per_round: int  # warm queries per round, cycling over the queries
    min_warm: int = 200  # timed warm queries a run must hold


# Sizes are scaled down from the prototype so that a round takes a few
# seconds on a 2-core machine; each keeps the layer that dominates it.
WORKLOADS = {
    # Many documents and a small KG: scoring every document (retrieve)
    # dominates the warm queries, and the artifact dominates cold queries.
    "serve-large": Workload(
        gen.Shape(
            n_docs=800, sentences_per_doc=4, words_per_sentence=20, n_filler=5000,
            n_entities=50, cluster_size=10, n_relations=3, edges_per_entity=6,
            entities_per_doc=3, n_queries=20,
        ),
        k=10,
        warm_per_round=100,
    ),
    # Long documents, a large KG with aliases and k = 50: per-query KG and
    # explanation work (the gazetteer rebuilt per query, MIS over 50 x 12
    # sentences, neighbor scans) dominates.
    "explain-deep": Workload(
        gen.Shape(
            n_docs=150, sentences_per_doc=12, words_per_sentence=14, n_filler=1500,
            n_entities=3000, cluster_size=50, n_relations=10, edges_per_entity=8,
            entities_per_doc=8, n_queries=20, aliases_per_entity=2,
        ),
        k=50,
        warm_per_round=40,
    ),
    # The write and batch paths: corpus linking in index and eval-rerank,
    # refits and re-indexing inside the eval runners, and retrieval over
    # many queries in eval-mis.
    "build-eval": Workload(
        gen.Shape(
            n_docs=500, sentences_per_doc=10, words_per_sentence=16, n_filler=2000,
            n_entities=2000, cluster_size=40, n_relations=10, edges_per_entity=10,
            entities_per_doc=6, n_queries=20,
        ),
        k=10,
        warm_per_round=16,
        # Warm latency is not this workload's point, and more warm queries
        # per round would let the per-query gazetteer outweigh corpus linking.
        min_warm=5 * 16,
    ),
}

QUERY_MODE = dict(linker="gazetteer", expansion_on=True, relatedness="complement")
QUERY_FLAGS = ["--linker", "gazetteer", "--expand", "on", "--relatedness", "complement"]


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def p95_over_queries(ms_by_query: dict[str, list[float]]) -> float:
    """The tail over the query mix: each distinct query at its median latency
    over its repeats, then the 95th percentile over queries. The tail of
    single latencies is the machine's jitter, which moves from run to run
    by more than any bound (README, "Steadiness")."""
    return p95([statistics.median(v) for v in ms_by_query.values()])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def files_under(directory: Path) -> dict[str, Path]:
    """Every regular file below ``directory``, by its relative path."""
    return {path.relative_to(directory).as_posix(): path for path in sorted(directory.rglob("*")) if path.is_file()}


def digests(directory: Path) -> dict[str, str]:
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files_under(directory).items()}


def machine_record(kgxir) -> str:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__} "
        f"({blas.get('name', '?')} {blas.get('version', '?')}), kgxir {kgxir.__version__}"
    )


def truth_of(data: gen.Dataset, k: int) -> checks.Truth:
    return checks.Truth(
        docs={
            d.id: {"embedding_text": d.embedding_text, "sentences": list(d.sentences), "entities": list(d.entities)}
            for d in data.docs
        },
        queries={
            q.id: {"text": q.text, "mentions": list(q.mentions), "gold": (q.gold_doc, q.gold_sentence)}
            for q in data.queries
        },
        entities={e.id: {"label": e.label, "description": e.description} for e in data.entities},
        out_links=data.out_links(),
        in_links=data.in_links(),
        qrels=data.qrels,
        k=k,
    )


def kg_flags(paths: dict[str, Path]) -> list[str]:
    return [
        "--kg-entities", str(paths["kg_entities.tsv"]),
        "--kg-relations", str(paths["kg_relations.tsv"]),
        "--kg-edges", str(paths["kg_edges.tsv"]),
    ]


def index_argv(paths: dict[str, Path], index: Path) -> list[str]:
    return ["index", "--corpus", str(paths["corpus.jsonl"]), "--index", str(index), *kg_flags(paths)]


def query_argv(paths: dict[str, Path], index: Path, query_id: str, text: str, k: int) -> list[str]:
    return ["query", text, "--index", str(index), *kg_flags(paths), *QUERY_FLAGS,
            "--k", str(k), "--query-id", query_id, "--json"]


def eval_rerank_argv(paths: dict[str, Path], k: int, out: Path) -> list[str]:
    return ["eval-rerank", "--corpus", str(paths["corpus.jsonl"]), *kg_flags(paths),
            "--queries", str(paths["queries.tsv"]), "--qrels", str(paths["qrels.txt"]),
            "--k", str(k), "--out", str(out)]


def eval_mis_argv(paths: dict[str, Path], out: Path) -> list[str]:
    return ["eval-mis", "--corpus", str(paths["corpus.jsonl"]), *kg_flags(paths),
            "--queries", str(paths["queries.tsv"]), "--sentence-gold", str(paths["sentence_gold.tsv"]),
            "--gold-links", str(paths["gold_links.tsv"]), "--out", str(out)]


def cli_main(cli, argv: list[str]) -> tuple[int, str]:
    """``kgxir.cli.main(argv)`` in this process, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class Run:
    def __init__(self, name: str, workload: Workload, seed: int, seconds: float, tracer: Tracer | None,
                 min_rounds: int = MIN_ROUNDS, min_warm: int | None = None):
        import kgxir
        import kgxir.cli

        self.kgxir = kgxir
        self.cli = kgxir.cli
        self.name = name
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.min_warm = workload.min_warm if min_warm is None else min_warm
        self.tracer = tracer
        self.dir = OUT / f"{name}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.query_ms_by_id: dict[str, list[float]] = {}
        self.calibration = calib.Calibration()

    # -- bookkeeping ---------------------------------------------------------

    def record(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def outcome(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAILED {label}: " + "; ".join(problems[:5]))

    def set_operation(self, operation: str) -> None:
        if self.tracer is not None:
            self.tracer.operation = operation

    def timed_cli(self, operation: str, metric: str, argv: list[str]) -> tuple[int, str]:
        self.set_operation(operation)
        start = time.perf_counter()
        code, out = cli_main(self.cli, argv)
        self.record(metric, time.perf_counter() - start)
        self.set_operation("")
        return code, out

    # -- operations ----------------------------------------------------------

    def setup(self, directory: Path) -> tuple[float, float, dict[str, Path], gen.Dataset]:
        """Generate and write the inputs into an emptied ``directory``, then
        ``kgxir index`` them into its empty ``artifact/`` subdirectory, so
        every file the index writes, whatever their layout, lands there.
        Returns (set-up seconds, index seconds, paths, dataset)."""
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        data = gen.generate(self.w.shape, self.seed, self.name)
        paths = gen.write(data, directory)
        (directory / "artifact").mkdir()
        paths["index"] = directory / "artifact" / "index.json"
        index_start = time.perf_counter()
        code, _ = cli_main(self.cli, index_argv(paths, paths["index"]))
        end = time.perf_counter()
        if code != 0:
            raise RuntimeError(f"kgxir index exited {code}")
        return end - start, end - index_start, paths, data

    def explain(self, query: gen.Query, index=None):
        return self.kgxir.explain_query(
            self.index if index is None else index, query.text, query_id=query.id, k=self.w.k, kg=self.kg,
            **QUERY_MODE,
        )

    def check_record(self, query_id: str, text: str) -> list[str]:
        """Check an explanation record; a repeated query must give the record
        already verified for it."""
        known = self.checked.get(query_id)
        if known is not None:
            return [] if text == known else ["record differs from the verified record of this query"]
        problems = checks.check_explain(self.truth, json.loads(text))
        if not problems:
            self.checked[query_id] = text
        return problems

    def repeat_setup(self, label: str) -> None:
        """A set-up from scratch into its own directory; it must write the
        same files as the first set-up, inputs and artifact, byte for byte."""
        self.set_operation(f"{label}:setup")
        setup_s, index_s, _, _ = self.setup(self.dir / "again")
        self.set_operation("")
        self.record("setup_s", setup_s)
        self.record("index_s", index_s)
        again = digests(self.dir / "again")
        differ = sorted(name for name in again.keys() | self.digests.keys() if again.get(name) != self.digests.get(name))
        self.outcome(f"{label} setup", [f"{name} differs between two set-ups" for name in differ])

    def warm_block(self, queries: list[gen.Query], label: str) -> None:
        records = []
        block_start = time.perf_counter()
        for query in queries:
            self.set_operation(f"{label}:warm:{query.id}")
            start = time.perf_counter()
            record = self.explain(query)
            records.append((query, record, time.perf_counter() - start))
        elapsed = time.perf_counter() - block_start
        self.set_operation("")
        self.record("query_qps", len(queries) / elapsed)
        for query, record, seconds in records:
            self.record("query_ms", seconds * 1000.0)
            self.query_ms_by_id.setdefault(query.id, []).append(seconds * 1000.0)
            self.outcome(f"{label} warm {query.id}", self.check_record(query.id, record.to_json()))

    def cold_query(self, query: gen.Query, label: str) -> None:
        argv = query_argv(self.paths, self.paths["index"], query.id, query.text, self.w.k)
        code, out = self.timed_cli(f"{label}:cold:{query.id}", "cold_query_s", argv)
        problems = [f"kgxir query exited {code}"] if code else self.check_record(query.id, out.rstrip("\n"))
        self.outcome(f"{label} cold {query.id}", problems)

    def eval_rerank(self, label: str) -> None:
        out = self.dir / "rerank.jsonl"
        code, _ = self.timed_cli(f"{label}:eval-rerank", "eval_rerank_s", eval_rerank_argv(self.paths, self.w.k, out))
        problems = [f"kgxir eval-rerank exited {code}"] if code else checks.check_eval_rerank(self.truth, read_jsonl(out))
        self.outcome(f"{label} eval-rerank", problems)

    def eval_mis(self, label: str) -> None:
        out = self.dir / "mis.jsonl"
        code, _ = self.timed_cli(f"{label}:eval-mis", "eval_mis_s", eval_mis_argv(self.paths, out))
        problems = [f"kgxir eval-mis exited {code}"] if code else checks.check_eval_mis(self.truth, read_jsonl(out))
        self.outcome(f"{label} eval-mis", problems)

    # -- the run -------------------------------------------------------------

    def prepare(self) -> None:
        """First set-up, oracles, the loaded-versus-in-memory check and a
        warm-up; none of it is timed into the metrics."""
        _, _, self.paths, self.data = self.setup(self.dir / "first")
        self.digests = digests(self.dir / "first")
        written = files_under(self.dir / "first" / "artifact").values()
        self.artifact_mb = sum(path.stat().st_size for path in written) / 1e6
        self.truth = truth_of(self.data, self.w.k)
        self.queries = self.data.queries
        self.checked: dict[str, str] = {}
        kgxir, p = self.kgxir, self.paths
        self.index = kgxir.load_index(p["index"])
        self.kg = kgxir.load_kg(p["kg_entities.tsv"], p["kg_relations.tsv"], p["kg_edges.tsv"])
        # The loaded artifact must answer like an index built in memory.
        corpus = kgxir.load_corpus(p["corpus.jsonl"])
        model = kgxir.fit_embedder([doc.embedding_text for doc in corpus])
        in_memory = kgxir.build_index(corpus, model, gazetteer=kgxir.build_gazetteer(self.kg))
        differ = [q.id for q in self.queries[:4] if self.explain(q).to_json() != self.explain(q, in_memory).to_json()]
        self.outcome("loaded-vs-in-memory", [f"{qid}: loaded artifact answers differently" for qid in differ])
        for query in self.queries[:4]:
            self.outcome(f"warm-up {query.id}", self.check_record(query.id, self.explain(query).to_json()))

    def loop(self) -> int:
        if self.tracer is not None:
            self.tracer.install()
        w = self.w
        cycle = [self.queries[i % len(self.queries)] for i in range(w.warm_per_round)]
        half = w.warm_per_round // 2
        started = time.perf_counter()
        round_seconds: list[float] = []
        warm = 0
        while True:
            round_start = time.perf_counter()
            rounds = len(round_seconds)
            label = f"r{rounds}"
            steps = (
                partial(self.repeat_setup, label),
                partial(self.warm_block, cycle[:half], label),
                partial(self.cold_query, self.queries[rounds % len(self.queries)], label),
                partial(self.eval_rerank, label),
                partial(self.warm_block, cycle[half:], label),
                partial(self.eval_mis, label),
            )
            for step in steps:
                self.record("calibration_ms", self.calibration.sample_ms())
                step()
            warm += w.warm_per_round
            if self.tracer is not None:
                self.untraced_block(cycle[:half])
            now = time.perf_counter()
            round_seconds.append(now - round_start)
            elapsed = now - started
            if elapsed + statistics.median(round_seconds) <= self.seconds:
                continue
            if len(round_seconds) >= self.min_rounds and warm >= self.min_warm:
                break
            if elapsed > max(self.seconds, MAX_SECONDS):
                log(f"warning: stopped after {len(round_seconds)} rounds and {warm} warm queries at "
                    f"{elapsed:.0f} s, short of {self.min_rounds} rounds and {self.min_warm} warm queries")
                break
        if self.tracer is not None:
            self.tracer.uninstall()
        return len(round_seconds)

    def untraced_block(self, queries: list[gen.Query]) -> None:
        """Warm queries with the wrappers removed, to measure tracing overhead."""
        self.tracer.uninstall()
        for query in queries:
            start = time.perf_counter()
            self.explain(query)
            self.record("untraced_query_ms", (time.perf_counter() - start) * 1000.0)
        self.tracer.install()

    def end_to_end(self) -> dict[str, dict]:
        s = self.samples
        timings = {
            "setup_s": (statistics.median(s["setup_s"]), "s"),
            "query_p50_ms": (statistics.median(s["query_ms"]), "ms"),
            "query_p95_ms": (p95_over_queries(self.query_ms_by_id), "ms"),
            "query_qps": (statistics.median(s["query_qps"]), "1/s"),
            "cold_query_ms": (statistics.median(s["cold_query_s"]) * 1000.0, "ms"),
            "index_s": (statistics.median(s["index_s"]), "s"),
            "eval_rerank_s": (statistics.median(s["eval_rerank_s"]), "s"),
            "eval_mis_s": (statistics.median(s["eval_mis_s"]), "s"),
        }
        scale = calib.scale(s["calibration_ms"])
        log(f"{len(s['query_ms'])} warm queries; scale to reference speed {scale:.4f}; wall clock: "
            + ", ".join(f"{name} {value:.4g}" for name, (value, _) in timings.items()))
        metrics = {
            name: {"value": value / scale if unit == "1/s" else value * scale, "unit": unit}
            for name, (value, unit) in timings.items()
        }
        metrics["artifact_mb"] = {"value": self.artifact_mb, "unit": "MB"}
        metrics["peak_rss_mb"] = {"value": self.probe_peak_rss_mb(), "unit": "MB"}
        return metrics

    def probe_peak_rss_mb(self) -> float:
        """Peak resident memory of one round of kgxir operations on the
        first set-up's inputs, done by ``rss_probe.py`` in a fresh process
        that holds none of the benchmark's own state (oracles, calibration
        arrays, samples). Counts as one operation; it fails if a kgxir
        command in it exits with an error."""
        argv = [sys.executable, str(HERE / "rss_probe.py"), "--inputs", str(self.dir / "first"),
                "--work", str(self.dir / "probe"), "--k", str(self.w.k)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"rss_probe.py exited {done.returncode}")
        report = json.loads(done.stdout.splitlines()[-1])
        self.outcome("peak-rss probe", [f"kgxir {name} exited {code}" for name, code in report["exit_codes"].items() if code])
        return report["peak_rss_mb"]

    def per_layer(self, rounds: int) -> dict[str, dict]:
        scale = calib.scale(self.samples["calibration_ms"])
        self_ms, calls = self.tracer.self_times()
        self_ms = {name: ms * scale for name, ms in self_ms.items()}
        metrics = {}
        for module, attribute in LAYERS:
            name = layer_name(module, attribute)
            metrics[f"{name}.ms"] = {"value": self_ms.get(name, 0.0) / rounds, "unit": "ms"}
            metrics[f"{name}.calls"] = {"value": calls.get(name, 0) / rounds, "unit": "count"}
        traced = statistics.median(self.samples["query_ms"]) * scale
        untraced = statistics.median(self.samples["untraced_query_ms"]) * scale
        metrics["trace.overhead_ms"] = {"value": traced - untraced, "unit": "ms"}
        top = max(self_ms, key=self_ms.get)
        log(f"{self.name}: most self time in {top} ({self_ms[top] / rounds:.1f} ms per round)")
        for name in sorted(self_ms, key=self_ms.get, reverse=True)[:8]:
            log(f"  {name:36s} {self_ms[name] / rounds:10.2f} ms {calls[name] / rounds:10.1f} calls per round")
        if self.tracer.absent:
            log("absent layers: " + ", ".join(self.tracer.absent))
        log(f"tracing overhead on query p50: {traced - untraced:.3f} ms ({untraced:.3f} ms untraced)")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # A fresh interpreter with a fixed hash seed, in this same process.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    if not (ROOT / "src" / "kgxir" / "__init__.py").is_file():
        log(f"error: no kgxir sources under {ROOT / 'src'}; run from a kgxir checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tracer = Tracer() if args.trace else None
    run = Run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    log(machine_record(run.kgxir))
    try:
        run.prepare()
        rounds = run.loop()
    except Exception:  # a crash is reported without a result line
        traceback.print_exc()
        return 1
    try:
        if tracer is not None:
            metrics = run.per_layer(rounds)
            tracer.write_jsonl(run.dir / "spans.jsonl")
        else:
            metrics = run.end_to_end()
            (run.dir / "samples.json").write_text(json.dumps({**run.samples, "query_ms_by_id": run.query_ms_by_id}))
    except Exception:
        traceback.print_exc()
        return 1
    log(f"{args.workload}: {rounds} rounds, {len(run.samples['query_ms'])} timed warm queries, "
        f"{run.attempted} operations, {run.failed} failed")
    if run.failed == 0:  # the inputs are kept only to debug a failure
        for directory in ("first", "again", "probe"):
            shutil.rmtree(run.dir / directory, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's generator, checks and workloads, at smoke size.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py

Each check must reject a record altered on purpose and must agree with the
program on ``demos/data``; each workload must finish a round with no failed
operation, traced and untraced.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

import kgxir  # noqa: E402
import kgxir.cli  # noqa: E402

DEMO = ROOT / "demos" / "data"


def smoke(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    shape = dataclasses.replace(
        w.shape,
        n_docs=min(w.shape.n_docs, 60),
        n_entities=min(w.shape.n_entities, 300),
        n_filler=min(w.shape.n_filler, 400),
        n_queries=8,
    )
    return run.Workload(shape, k=min(w.k, 12), warm_per_round=8)


@pytest.fixture(scope="module")
def small():
    """A prepared smoke-size run of explain-deep, for mutating its records."""
    r = run.Run("explain-deep", smoke("explain-deep"), 5, 0.0, None)
    r.prepare()
    return r


# ---------------------------------------------------------------------------
# Generator


def test_generator_is_deterministic_and_seeded(tmp_path):
    shape = smoke("build-eval").shape
    a = gen.write(gen.generate(shape, 3, "x"), tmp_path / "a")
    b = gen.write(gen.generate(shape, 3, "x"), tmp_path / "b")
    c = gen.write(gen.generate(shape, 4, "x"), tmp_path / "c")
    assert all(a[n].read_bytes() == b[n].read_bytes() for n in a)
    assert a["corpus.jsonl"].read_bytes() != c["corpus.jsonl"].read_bytes()


def test_surfaces_are_unambiguous_and_disjoint_from_filler():
    data = gen.generate(smoke("explain-deep").shape, 1, "x")
    owner = {}
    for item in [*data.entities, *data.relations]:
        for surface in (item.label, *item.aliases):
            for token in surface.split():
                assert owner.setdefault(token, item.id) == item.id
    filler = {w.lower() for d in data.docs for s in d.sentences for w in s.rstrip(".").split()} - set(owner)
    label_tokens = {t for d in data.docs for s in d.sentences for t in s.rstrip(".").lower().split()} & set(owner)
    assert filler and label_tokens  # both kinds of word occur in the text
    assert {q.case for q in data.queries} == set(gen.CASES)
    assert all(q.mentions for q in data.queries)


# ---------------------------------------------------------------------------
# Each check rejects an altered record


def explained(small, query_index=0) -> dict:
    query = small.queries[query_index]
    return json.loads(small.explain(query).to_json())


def test_explain_check_accepts_the_program(small):
    for query in small.queries:
        assert checks.check_explain(small.truth, json.loads(small.explain(query).to_json())) == []


def test_explain_check_rejects_two_ranks_swapped(small):
    record = explained(small)
    results = record["results"]
    results[0], results[1] = results[1], results[0]
    results[0]["final_rank"], results[1]["final_rank"] = 1, 2
    assert checks.check_explain(small.truth, record)


def test_explain_check_rejects_swapped_embedding_ranks(small):
    record = explained(small)
    a, b = record["results"][0], record["results"][1]
    a["embedding_rank"], b["embedding_rank"] = b["embedding_rank"], a["embedding_rank"]
    assert checks.check_explain(small.truth, record)


def test_explain_check_rejects_a_wrong_mis_index(small):
    record = explained(small)
    truth = small.truth
    for r in record["results"]:
        n = len(truth.docs[r["doc_id"]]["sentences"])
        r["mis_index"] = (r["mis_index"] + 1) % n
    assert any("mis_index" in p for p in checks.check_explain(truth, record))


def test_explain_check_rejects_a_perturbed_qdr_value(small):
    record = explained(small)
    record["results"][0]["qdr_value"] += 1e-6
    assert checks.check_explain(small.truth, record)


def test_explain_check_rejects_a_consistent_but_wrong_breakdown(small):
    record = explained(small)
    target = next(r for r in record["results"] if r["qdr_breakdown"])
    entity, value = target["qdr_breakdown"][0]
    target["qdr_breakdown"][0] = [entity, value + 1e-6]
    target["qdr_value"] = sum(v for _, v in target["qdr_breakdown"])
    assert checks.check_explain(small.truth, record)


def test_explain_check_rejects_a_wrong_expansion(small):
    record = explained(small)
    record["expansion_case"] = "none" if record["expansion_case"] != "none" else "A"
    assert checks.check_explain(small.truth, record)


def eval_records(small, command: str) -> list[dict]:
    out = small.dir / f"test-{command}.jsonl"
    if command == "eval-rerank":
        argv = run.eval_rerank_argv(small.paths, small.w.k, out)
    else:
        argv = run.eval_mis_argv(small.paths, out)
    assert run.cli_main(kgxir.cli, argv)[0] == 0
    return run.read_jsonl(out)


def test_eval_rerank_check_rejects_altered_records(small):
    records = eval_records(small, "eval-rerank")
    assert checks.check_eval_rerank(small.truth, records) == []
    queries = [r for r in records if r["record"] == "query"]

    swapped = copy.deepcopy(records)
    for r in swapped:
        if r["record"] == "query" and r["system"] == "embedding":
            r["ranking"][0], r["ranking"][-1] = r["ranking"][-1], r["ranking"][0]
    assert checks.check_eval_rerank(small.truth, swapped)

    for key in ("map_at_k", "ndcg_at_k", "precision"):
        altered = copy.deepcopy(records)
        next(r for r in altered if r["record"] == "query")[key] += 0.01
        assert checks.check_eval_rerank(small.truth, altered), key
    assert queries


def test_eval_mis_check_rejects_altered_records(small):
    records = eval_records(small, "eval-mis")
    assert checks.check_eval_mis(small.truth, records) == []
    truth = small.truth

    wrong_mis = copy.deepcopy(records)
    for r in wrong_mis:
        if r["record"] == "query":
            r["mis_index"] = (r["mis_index"] + 1) % len(truth.docs[r["top_doc"]]["sentences"])
    assert checks.check_eval_mis(truth, wrong_mis)

    wrong_doc = copy.deepcopy(records)
    first = next(r for r in wrong_doc if r["record"] == "query")
    first["top_doc"] = next(d for d in truth.docs if d != first["top_doc"])
    assert checks.check_eval_mis(truth, wrong_doc)


def test_metric_oracles_on_a_hand_computed_case():
    grades = {"a": 2, "b": 0, "c": 1}
    assert checks.ap_at_k(["a", "b", "c"], grades, 3) == pytest.approx((1 / 1 + 2 / 3) / 2)
    dcg = 3 / 1 + 0 + 1 / 2
    idcg = 3 / 1 + 1 / math.log2(3)
    assert checks.ndcg_at_k(["a", "b", "c"], grades, 3) == pytest.approx(dcg / idcg)
    assert checks.precision_recall(["a", "b"], grades) == (0.5, 0.5)


# ---------------------------------------------------------------------------
# The checks agree with the program on the demo data


def demo_surfaces():
    """Surface table from the demo KG by the documented rule: token tuple ->
    id, the smallest id winning a collision."""
    entities, relations = {}, {}
    for table, name in ((entities, "kg_entities.tsv"), (relations, "kg_relations.tsv")):
        for line in (DEMO / name).read_text(encoding="utf-8").splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            for surface in [parts[1], *[a for a in parts[2].split("|") if a]]:
                key = tuple(checks.tokens(surface))
                if key:
                    table[key] = min(table.get(key, parts[0]), parts[0])
    return entities, relations


def demo_link(text: str, entities, relations) -> list[tuple[str, str]]:
    """Greedy left-to-right longest token match; an entity wins over a
    relation at equal length."""
    toks = checks.tokens(text)
    longest = max(len(k) for k in [*entities, *relations])
    found, i = [], 0
    while i < len(toks):
        for n in range(min(longest, len(toks) - i), 0, -1):
            key = tuple(toks[i : i + n])
            if key in entities or key in relations:
                found.append(("entity", entities[key]) if key in entities else ("relation", relations[key]))
                i += n
                break
        else:
            i += 1
    return found


def demo_sentences(text: str) -> list[str]:
    """Split after '.', '!' or '?' followed by whitespace or the end."""
    out, start = [], 0
    for i, ch in enumerate(text):
        if ch in ".!?" and (i + 1 == len(text) or text[i + 1].isspace()):
            out.append(text[start : i + 1].strip())
            start = i + 1
    if text[start:].strip():
        out.append(text[start:].strip())
    return out


@pytest.fixture(scope="module")
def demo_truth():
    entities, relations = demo_surfaces()
    docs = {}
    for line in (DEMO / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        d = json.loads(line)
        title = d.get("title", "")
        docs[d["id"]] = {
            "embedding_text": (title + " " + d["text"]) if title else d["text"],
            "sentences": demo_sentences(d["text"]),
            "entities": list(
                dict.fromkeys(i for kind, i in demo_link(d["text"], entities, relations) if kind == "entity")
            ),
        }
    gold = {}
    for line in (DEMO / "sentence_gold.tsv").read_text(encoding="utf-8").splitlines():
        qid, doc, s = line.split("\t")
        gold[qid] = (doc, int(s))
    queries = {}
    for line in (DEMO / "queries.tsv").read_text(encoding="utf-8").splitlines():
        qid, text = line.split("\t")
        queries[qid] = {"text": text, "mentions": demo_link(text, entities, relations), "gold": gold[qid]}
    kg_entities, out_links, in_links = {}, {}, {}
    for line in (DEMO / "kg_entities.tsv").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            eid, label, _, description = line.split("\t")
            kg_entities[eid] = {"label": label, "description": description}
            in_links[eid] = set()
    for line in (DEMO / "kg_edges.tsv").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            source, relation, target = line.split("\t")
            out_links.setdefault((source, relation), set()).add(target)
            in_links[target].add(source)
    qrels = {}
    for line in (DEMO / "qrels.txt").read_text(encoding="utf-8").splitlines():
        qid, _, doc, grade = line.split()
        qrels.setdefault(qid, {})[doc] = int(grade)
    return checks.Truth(docs, queries, kg_entities, out_links, in_links, qrels, k=4)


def test_checks_agree_with_the_program_on_the_demo_queries(demo_truth):
    kg = kgxir.load_kg(DEMO / "kg_entities.tsv", DEMO / "kg_relations.tsv", DEMO / "kg_edges.tsv")
    corpus = kgxir.load_corpus(DEMO / "corpus.jsonl")
    model = kgxir.fit_embedder([d.embedding_text for d in corpus])
    index = kgxir.build_index(corpus, model, gazetteer=kgxir.build_gazetteer(kg))
    cases = set()
    for qid, q in demo_truth.queries.items():
        record = kgxir.explain_query(index, q["text"], query_id=qid, k=4, kg=kg, **run.QUERY_MODE)
        assert checks.check_explain(demo_truth, json.loads(record.to_json())) == []
        cases.add(record.expansion_case)
    assert cases == {"A", "B"}


def test_checks_agree_with_the_program_on_the_demo_evals(demo_truth, tmp_path):
    demo_paths = {name: DEMO / name for name in ("kg_entities.tsv", "kg_relations.tsv", "kg_edges.tsv")}
    common = ["--corpus", str(DEMO / "corpus.jsonl"), *run.kg_flags(demo_paths), "--queries", str(DEMO / "queries.tsv")]
    rerank, mis = tmp_path / "r.jsonl", tmp_path / "m.jsonl"
    assert kgxir.cli.main(["eval-rerank", *common, "--qrels", str(DEMO / "qrels.txt"), "--k", "4", "--out", str(rerank)]) == 0
    gold = ["--sentence-gold", str(DEMO / "sentence_gold.tsv"), "--gold-links", str(DEMO / "gold_links.tsv")]
    assert kgxir.cli.main(["eval-mis", *common, *gold, "--out", str(mis)]) == 0
    rerank, mis = run.read_jsonl(rerank), run.read_jsonl(mis)
    assert checks.check_eval_rerank(demo_truth, rerank) == []
    assert checks.check_eval_mis(demo_truth, mis) == []


# ---------------------------------------------------------------------------
# Workloads and tracer at smoke size


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_round_has_no_failures(name, traced):
    tracer = Tracer() if traced else None
    r = run.Run(name, smoke(name), 2, 0.0, tracer, min_rounds=1, min_warm=0)
    r.prepare()
    rounds = r.loop()
    assert rounds == 1 and r.failed == 0 and r.attempted > 0
    if traced:
        metrics = r.per_layer(rounds)
        assert metrics["retrieval.retrieve.calls"]["value"] > 0
        assert metrics["cli.main.calls"]["value"] == 4  # index, query, eval-rerank, eval-mis
        assert not tracer.absent
        assert kgxir.explain.retrieve is kgxir.retrieval.retrieve  # wrappers removed
    else:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        assert set(r.end_to_end()) == {m["name"] for m in declared}


def test_minimum_rounds_and_warm_queries_outlast_the_time_budget():
    r = run.Run("serve-large", smoke("serve-large"), 2, 0.0, None, min_rounds=2, min_warm=20)
    r.prepare()
    assert r.loop() == 3  # 8 warm queries per round: 2 rounds give only 16
    assert len(r.samples["query_ms"]) == 24


def test_query_tail_is_over_queries_not_single_latencies():
    ms = {f"q{i}": [10.0 + i / 10] * 5 for i in range(20)}
    steady = run.p95_over_queries(ms)
    ms["q3"][0] = ms["q7"][2] = 100.0  # two pauses on single repeats
    assert run.p95_over_queries(ms) == steady
    ms["q5"] = [30.0] * 5  # one query slower on every repeat
    assert run.p95_over_queries(ms) > steady


def sidecar_save_index(monkeypatch, content):
    """Make ``kgxir index`` write a second file beside its JSON artifact."""
    save_index = kgxir.cli.save_index

    def save_with_sidecar(index, path):
        save_index(index, path)
        Path(path).with_suffix(".npz").write_bytes(content())

    monkeypatch.setattr(kgxir.cli, "save_index", save_with_sidecar)


def test_artifact_counts_and_compares_every_file_index_writes(monkeypatch):
    sidecar_save_index(monkeypatch, lambda: b"x" * 1000)
    r = run.Run("build-eval", smoke("build-eval"), 2, 0.0, None)
    r.prepare()
    artifact = r.dir / "first" / "artifact"
    assert r.artifact_mb == ((artifact / "index.json").stat().st_size + 1000) / 1e6
    assert "artifact/index.npz" in r.digests
    r.repeat_setup("r0")
    assert r.failed == 0

    counter = iter(range(100))
    sidecar_save_index(monkeypatch, lambda: str(next(counter)).encode())
    r.repeat_setup("r1")
    assert r.failed == 1


def test_tracer_reports_a_removed_name_as_absent(monkeypatch):
    monkeypatch.delattr(kgxir.linking, "link")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["linking.link"]
    finally:
        tracer.uninstall()


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans[:] = [("outer", 0, 100, -1, "r0"), ("inner", 10, 40, 0, "r0"), ("inner", 50, 60, 0, "r0")]
    self_ms, calls = tracer.self_times()
    assert self_ms == {"outer": 60 / 1e6, "inner": 40 / 1e6}
    assert calls == {"outer": 1, "inner": 2}

import itertools
import math

import pytest

from kgxir import evaluation
from kgxir.errors import DataFormatError, UsageError
from kgxir.evaluation import (
    EvalReport,
    average_precision_at_k,
    compare_mis_modes,
    ndcg_at_k,
    parse_qrels,
    parse_queries,
    parse_sentence_gold,
    precision_recall,
    run_rerank_experiment,
)
from kgxir.explain import explain_query
from kgxir.kg import KnowledgeGraph, parse_edges, parse_entities, parse_relations
from kgxir.retrieval import Document, build_index, retrieve
from kgxir.text import fit_embedder

from conftest import build_disambiguation_fixture, build_rerank_fixture


# --- independent metric oracles --------------------------------------------


def ap_oracle(ranked, relevant, k):
    denominator = min(len(relevant), k)
    if denominator == 0:
        return 0.0
    total = 0.0
    for i in range(1, min(k, len(ranked)) + 1):
        if ranked[i - 1] in relevant:
            total += len(set(ranked[:i]) & relevant) / i
    return total / denominator


def dcg_oracle(gains, k):
    return sum((2**g - 1) / math.log2(i + 1) for i, g in enumerate(gains[:k], start=1))


def ndcg_oracle(ranked, grades, k):
    dcg = dcg_oracle([grades.get(d, 0) for d in ranked], k)
    idcg = dcg_oracle(sorted(grades.values(), reverse=True), k)
    return dcg / idcg if idcg > 0 else 0.0


GRADE_VECTORS = [
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (2, 1, 0, 0, 0),
    (3, 1, 2, 0, 1),
    (1, 1, 1, 1, 1),
    (0, 2, 0, 2, 0),
]


class TestLoaders:
    def test_queries_parse(self):
        queries = parse_queries(["q1\tfirst query", "# note", "q2\tsecond"])
        assert queries == {"q1": "first query", "q2": "second"}

    def test_duplicate_query_id_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate query id"):
            parse_queries(["q1\ta", "q1\tb"])

    def test_qrels_parse(self):
        qrels = parse_qrels(["q1 0 d1 2", "q1 0 d2 0", "q2 0 d1 1"])
        assert qrels == {"q1": {"d1": 2, "d2": 0}, "q2": {"d1": 1}}

    def test_negative_grade_cites_line(self):
        with pytest.raises(DataFormatError, match=":2:"):
            parse_qrels(["q1 0 d1 1", "q1 0 d2 -1"])
        for grade, message in [
            ("high", "<qrels>:1: grade 'high' is not an integer"),
            ("901", "<qrels>:1: grade 901 is not in 0..900"),
        ]:
            with pytest.raises(DataFormatError) as raised:
                parse_qrels([f"q1 0 d1 {grade}"])
            assert str(raised.value) == message
        # Fewer than 2**63 gains, each below 2**MAX_GRADE, sum to a finite DCG.
        assert math.isfinite(2.0 ** (evaluation.MAX_GRADE + 63))
        top = parse_qrels([f"q1 0 d{i} {evaluation.MAX_GRADE}" for i in range(1000)])["q1"]
        assert ndcg_at_k(list(top), top, 1000) == 1.0

    def test_duplicate_judgment_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate judgment"):
            parse_qrels(["q1 0 d1 1", "q1 0 d1 2"])

    def test_sentence_gold_parse(self):
        gold = parse_sentence_gold(["q1\td1\t0", "q1\td1\t2"])
        assert gold.answers["q1"] == ("d1", {0: 1, 2: 2})

    def test_sentence_gold_conflicting_docs_rejected(self):
        with pytest.raises(DataFormatError, match="already mapped"):
            parse_sentence_gold(["q1\td1\t0", "q1\td2\t1"])
        for index, message in [
            ("x", "<sentence-gold>:1: sentence index 'x' is not an integer"),
            ("-1", "<sentence-gold>:1: negative sentence index -1"),
        ]:
            with pytest.raises(DataFormatError) as raised:
                parse_sentence_gold([f"q1\td1\t{index}"])
            assert str(raised.value) == message


class TestPrecisionRecall:
    def test_perfect(self):
        assert precision_recall(["a", "b", "c"], {"a", "b", "c"}) == (1.0, 1.0)

    def test_disjoint(self):
        assert precision_recall(["x", "y"], {"a", "b"}) == (0.0, 0.0)

    def test_partial(self):
        p, r = precision_recall(["a", "b", "x", "y"], set("abcdefgh"))
        assert (p, r) == (0.5, 0.25)

    def test_empty_edges(self):
        assert precision_recall([], {"a"}) == (0.0, 0.0)
        assert precision_recall(["a"], set()) == (0.0, 0.0)


class TestRankingMetrics:
    def test_ap_examples(self):
        assert average_precision_at_k(["d1", "d2"], {"d1"}, 2) == 1.0
        assert average_precision_at_k(["d2", "d1"], {"d1"}, 2) == 0.5
        assert average_precision_at_k(["d2", "d3"], {"d1"}, 2) == 0.0

    def test_ndcg_examples(self):
        assert ndcg_at_k(["d1", "d2"], {"d1": 1, "d2": 0}, 2) == 1.0
        assert ndcg_at_k(["d2", "d1"], {"d1": 1, "d2": 0}, 2) == pytest.approx(
            0.6309, abs=1e-4
        )
        assert ndcg_at_k(["d1", "d2"], {"d1": 0, "d2": 0}, 2) == 0.0

    def test_ndcg_sums_add_left_to_right(self):
        # 2**60 absorbs each small gain alone, but not their compensated sum
        # (the built-in sum from Python 3.12 on), which lowers the ratio.
        grades = {"d1": 60, "d2": 7, "d3": 7}
        ranked = ["d1", "dx", "d2", "d3"]
        gains = [2.0**60 - 1, 0.0, 127 / math.log2(4), 127 / math.log2(5)]
        ideal = [2.0**60 - 1, 127 / math.log2(3), 127 / math.log2(4), 0.0]
        assert math.fsum(gains) / math.fsum(ideal) < 1.0
        assert ndcg_at_k(ranked, grades, 4) == 1.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            average_precision_at_k(["d1"], {"d1"}, 0)
        with pytest.raises(ValueError):
            ndcg_at_k(["d1"], {"d1": 1}, 0)

    def test_against_oracle_over_all_permutations(self):
        docs = ["d1", "d2", "d3", "d4", "d5"]
        for size in range(1, 6):
            for grade_vector in GRADE_VECTORS:
                grades = dict(zip(docs[:size], grade_vector))
                relevant = {d for d, g in grades.items() if g >= 1}
                for perm in itertools.permutations(docs[:size]):
                    ranked = list(perm)
                    for k in range(1, 6):
                        assert average_precision_at_k(ranked, relevant, k) == pytest.approx(
                            ap_oracle(ranked, relevant, k), abs=1e-9
                        )
                        assert ndcg_at_k(ranked, grades, k) == pytest.approx(
                            ndcg_oracle(ranked, grades, k), abs=1e-9
                        )

    def test_grade_sorted_ranking_has_ndcg_one(self):
        docs = ["d1", "d2", "d3", "d4", "d5"]
        for grade_vector in GRADE_VECTORS:
            grades = dict(zip(docs, grade_vector))
            if not any(grade_vector):
                continue
            ranked = sorted(docs, key=lambda d: -grades[d])
            for k in range(1, 6):
                assert ndcg_at_k(ranked, grades, k) == pytest.approx(1.0, abs=1e-12)

    def test_metrics_in_unit_interval(self):
        docs = ["d1", "d2", "d3", "d4"]
        grades = {"d1": 2, "d3": 1}
        relevant = {"d1", "d3"}
        for perm in itertools.permutations(docs):
            for k in (1, 2, 4):
                assert 0.0 <= average_precision_at_k(list(perm), relevant, k) <= 1.0
                assert 0.0 <= ndcg_at_k(list(perm), grades, k) <= 1.0

    def test_invariant_below_rank_k(self):
        ranked = ["d1", "d2", "d3", "d4", "d5"]
        grades = {"d1": 1, "d4": 2}
        relevant = {"d1", "d4"}
        k = 2
        base_ap = average_precision_at_k(ranked, relevant, k)
        base_ndcg = ndcg_at_k(ranked, grades, k)
        for tail in itertools.permutations(["d3", "d4", "d5"]):
            shuffled = ranked[:2] + list(tail)
            assert average_precision_at_k(shuffled, relevant, k) == base_ap
            assert ndcg_at_k(shuffled, grades, k) == base_ndcg


# --- experiment runners -----------------------------------------------------


class TestMisExperiment:
    def test_linker_modes_reproduce_expected_ordering(self):
        corpus, kg, queries, gold_lines, gold_links = build_disambiguation_fixture()
        gold = parse_sentence_gold(gold_lines)
        report = compare_mis_modes(corpus, kg, queries, gold, gold_links=gold_links)
        by_mode = {row["system"]: row["sentence_accuracy"] for row in report.rows}
        assert report.config["linker"] == "off|gazetteer|gold"
        for mode in by_mode:
            assert len([q for q in report.per_query if q["system"] == mode]) == len(queries)
        assert by_mode["gold"] >= by_mode["off"] >= by_mode["gazetteer"]
        assert by_mode["gold"] >= by_mode["off"] + 0.05

    def test_missing_gold_for_query_raises(self, medical_kg, medical_corpus):
        gold = parse_sentence_gold(["q1\td-heart\t0"])
        with pytest.raises(KeyError, match="q2"):
            compare_mis_modes(medical_corpus, medical_kg, {"q1": "heart", "q2": "spoon"}, gold)

    def test_out_of_range_gold_index_rejected(self, medical_kg, medical_corpus):
        gold = parse_sentence_gold(["q1\td-heart\t99"])
        with pytest.raises(ValueError, match="out-of-range"):
            compare_mis_modes(medical_corpus, medical_kg, {"q1": "heart"}, gold)

    def test_unknown_gold_document_rejected(self, medical_kg, medical_corpus):
        gold = parse_sentence_gold(["q1\td-nowhere\t0"])
        with pytest.raises(ValueError, match="unknown document 'd-nowhere'"):
            compare_mis_modes(medical_corpus, medical_kg, {"q1": "heart"}, gold)

    def test_gold_checked_before_the_first_query(self, medical_kg, medical_corpus, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a query ran before the sentence gold was checked")

        monkeypatch.setattr(evaluation, "_rank", fail)
        gold = parse_sentence_gold(["q1\td-heart\t0", "q2\td-heart\t99"])
        with pytest.raises(ValueError, match="'q2' has out-of-range indices"):
            compare_mis_modes(medical_corpus, medical_kg, {"q1": "heart", "q2": "spoon"}, gold)

    def test_missing_query_refused_before_the_index_is_built(
        self, medical_kg, medical_corpus, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise AssertionError("build_index called before the sentence gold was checked")

        monkeypatch.setattr(evaluation, "build_index", fail)
        gold = parse_sentence_gold(["q1\td-heart\t0"], source="gold.tsv")
        with pytest.raises(KeyError, match=r"gold.tsv: no sentence gold for query id 'q2'"):
            compare_mis_modes(medical_corpus, medical_kg, {"q1": "heart", "q2": "spoon"}, gold)

    def test_compare_runs_all_available_modes(self):
        corpus, kg, queries, gold_lines, gold_links = build_disambiguation_fixture(n_groups=6)
        gold = parse_sentence_gold(gold_lines)
        with_gold = compare_mis_modes(corpus, kg, queries, gold, gold_links=gold_links)
        assert [row["system"] for row in with_gold.rows] == ["off", "gazetteer", "gold"]
        without_gold = compare_mis_modes(corpus, kg, queries, gold)
        assert [row["system"] for row in without_gold.rows] == ["off", "gazetteer"]

    def test_aggregates_equal_mean_of_per_query(self):
        corpus, kg, queries, gold_lines, gold_links = build_disambiguation_fixture(n_groups=8)
        gold = parse_sentence_gold(gold_lines)
        report = compare_mis_modes(corpus, kg, queries, gold, gold_links=gold_links)
        for row in report.rows:
            records = [q for q in report.per_query if q["system"] == row["system"]]
            for column, key in [
                ("passage_accuracy", "passage_hit"),
                ("sentence_accuracy", "sentence_hit"),
            ]:
                hits = [q[key] for q in records]
                assert row[column] == sum(hits) / len(hits)


@pytest.fixture(scope="module")
def fixture():
    return build_rerank_fixture()


class TestRerankExperiment:

    @pytest.mark.parametrize(
        "linker, message", [("gold", "gold annotations"), ("bogus", "linker mode")]
    )
    def test_linker_checked_before_any_work(self, fixture, monkeypatch, linker, message):
        corpus, kg, queries, qrel_lines = fixture

        def fail(*args, **kwargs):
            raise AssertionError("build_index called before the linker was checked")

        monkeypatch.setattr(evaluation, "build_index", fail)
        with pytest.raises(UsageError, match=message):
            run_rerank_experiment(
                corpus, kg, queries, parse_qrels(qrel_lines), k=10, linker_mode=linker
            )

    def test_precision_and_recall_identical_across_systems(self, fixture):
        corpus, kg, queries, qrel_lines = fixture
        qrels = parse_qrels(qrel_lines)
        report = run_rerank_experiment(corpus, kg, queries, qrels, k=10)
        baseline, ours = report.rows
        assert baseline["system"] == "embedding"
        assert ours["system"] == "kg-qdr"
        assert baseline["precision"] == ours["precision"]
        assert baseline["recall"] == ours["recall"]
        # Exact per-query equality too, not just aggregate.
        per_system = {}
        for record in report.per_query:
            per_system.setdefault(record["query_id"], {})[record["system"]] = record
        for query_id, systems in per_system.items():
            assert systems["embedding"]["precision"] == systems["kg-qdr"]["precision"]
            assert systems["embedding"]["recall"] == systems["kg-qdr"]["recall"]
            assert set(systems["embedding"]["ranking"]) == set(systems["kg-qdr"]["ranking"])

    def test_qdr_reverses_a_wrong_embedding_order(self):
        entities = parse_entities(
            [
                "EA\ttopica\t\t",
                "EB\ttopicb\t\t",
                "EC\ttopicc\t\t",
                "X1\tsource one\t\t",
                "X2\tsource two\t\t",
                "X3\tsource three\t\t",
            ]
        )
        relations = parse_relations(["r\trelated\t"])
        edges = parse_edges(
            ["X1\tr\tEA", "X2\tr\tEA", "X1\tr\tEB", "X2\tr\tEB", "X3\tr\tEC"],
            entities,
            relations,
        )
        kg = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
        corpus = [
            Document(id="d-bad", text="alpha alpha alpha notes on topicc."),
            Document(id="d-good", text="alpha commentary about topicb."),
        ]
        queries = {"q1": "alpha alpha topica"}
        qrels = parse_qrels(["q1 0 d-good 1", "q1 0 d-bad 0"])
        report = run_rerank_experiment(corpus, kg, queries, qrels, k=2)
        baseline, ours = report.rows
        assert ours["map_at_k"] > baseline["map_at_k"]
        assert ours["ndcg_at_k"] > baseline["ndcg_at_k"]
        rankings = {
            record["system"]: record["ranking"] for record in report.per_query
        }
        assert rankings["embedding"] == ["d-bad", "d-good"]
        assert rankings["kg-qdr"] == ["d-good", "d-bad"]

    @pytest.mark.parametrize("linker", ["gazetteer", "gold"])
    def test_rankings_match_the_query_path(self, fixture, linker):
        corpus, kg, queries, qrel_lines = fixture
        entity_ids = sorted(kg.entities)
        # Gold links that differ from what the gazetteer finds; every third
        # query has none.
        gold = {
            query_id: [("entity", entity_ids[(5 * i) % len(entity_ids)])]
            for i, query_id in enumerate(queries)
            if i % 3
        }
        report = run_rerank_experiment(
            corpus, kg, queries, parse_qrels(qrel_lines), k=10, linker_mode=linker, gold_links=gold
        )
        rankings = {(r["system"], r["query_id"]): r["ranking"] for r in report.per_query}
        index = build_index(
            corpus, fit_embedder([doc.embedding_text for doc in corpus]), gazetteer=kg.gazetteer
        )
        reordered = 0
        for query_id, text in queries.items():
            embedding = [doc.doc_id for doc in retrieve(index, text, 10)]
            record = explain_query(
                index, text, query_id=query_id, k=10, kg=kg, linker=linker, gold_links=gold,
                expansion_on=False, relatedness="complement",
            )
            assert rankings["embedding", query_id] == embedding
            assert rankings["kg-qdr", query_id] == [r.doc_id for r in record.results]
            reordered += rankings["kg-qdr", query_id] != embedding
        assert reordered >= len(queries) // 2

    def test_k_one_map_is_zero_or_one(self, fixture):
        corpus, kg, queries, qrel_lines = fixture
        qrels = parse_qrels(qrel_lines)
        report = run_rerank_experiment(corpus, kg, queries, qrels, k=1)
        for record in report.per_query:
            assert record["map_at_k"] in (0.0, 1.0)

    def test_aggregates_equal_mean_of_per_query(self, fixture):
        corpus, kg, queries, qrel_lines = fixture
        qrels = parse_qrels(qrel_lines)
        report = run_rerank_experiment(corpus, kg, queries, qrels, k=10)
        for row in report.rows:
            values = [
                record["ndcg_at_k"]
                for record in report.per_query
                if record["system"] == row["system"]
            ]
            assert row["ndcg_at_k"] == pytest.approx(sum(values) / len(values), abs=1e-12)

    def test_gold_query_without_links_keeps_embedding_order(self, medical_kg, medical_corpus):
        queries = {"q1": "heart disease", "q2": "obesity and heart disease"}
        qrels = parse_qrels(["q1 0 d-heart 1", "q2 0 d-heart 1"])
        gold = {"q1": [("entity", "Q1")]}
        report = run_rerank_experiment(
            medical_corpus, medical_kg, queries, qrels, k=3, linker_mode="gold", gold_links=gold
        )
        q2 = {r["system"]: r for r in report.per_query if r["query_id"] == "q2"}
        assert q2["kg-qdr"]["query_entities"] == []
        assert q2["kg-qdr"]["ranking"] == q2["embedding"]["ranking"]

    def test_zero_idcg_queries_flagged(self, medical_kg, medical_corpus):
        queries = {"q1": "heart disease"}
        qrels = parse_qrels(["q1 0 d-heart 0"])
        report = run_rerank_experiment(medical_corpus, medical_kg, queries, qrels, k=2)
        assert any("zero ideal DCG" in note for note in report.notes)
        assert report.per_query[0]["zero_idcg"] is True


class TestEvalReport:
    def make_report(self):
        return EvalReport(
            experiment="demo",
            config={"k": 3, "linker": "off"},
            rows=[{"system": "a", "map_at_k": 0.5, "queries": 2}],
            per_query=[{"system": "a", "query_id": "q1", "map_at_k": 0.25}],
            notes=["something"],
        )

    def test_table_contains_headers_and_values(self):
        table = self.make_report().format_table()
        assert "MAP@3" in table
        assert "0.5000" in table
        assert "note: something" in table

    def test_records_roundtrip_through_json(self):
        import json

        text = self.make_report().to_jsonl()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["record"] == "config"
        assert any(r["record"] == "aggregate" for r in parsed)
        assert any(r["record"] == "query" for r in parsed)
        assert any(r["record"] == "note" for r in parsed)

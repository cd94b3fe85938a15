import itertools
import math

import pytest

from kgxir import evaluation
from kgxir.errors import DataFormatError, UsageError
from kgxir.evaluation import (
    EvalReport,
    accuracy,
    average_precision_at_k,
    compare_mis_modes,
    ndcg_at_k,
    parse_qrels,
    parse_queries,
    parse_sentence_gold,
    precision_recall,
    run_rerank_experiment,
)
from kgxir.kg import KnowledgeGraph, parse_edges, parse_entities, parse_relations
from kgxir.linking import GoldAnnotations
from kgxir.retrieval import Document

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
        assert qrels.grades_for("q1") == {"d1": 2, "d2": 0}
        assert qrels.relevant_docs("q1") == {"d1"}
        assert qrels.relevant_docs("missing") == set()

    def test_negative_grade_cites_line(self):
        with pytest.raises(DataFormatError, match=":2:"):
            parse_qrels(["q1 0 d1 1", "q1 0 d2 -1"])

    def test_duplicate_judgment_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate judgment"):
            parse_qrels(["q1 0 d1 1", "q1 0 d1 2"])

    def test_sentence_gold_parse(self):
        gold = parse_sentence_gold(["q1\td1\t0", "q1\td1\t2"])
        assert gold.answers["q1"] == ("d1", frozenset({0, 2}))

    def test_sentence_gold_conflicting_docs_rejected(self):
        with pytest.raises(DataFormatError, match="already mapped"):
            parse_sentence_gold(["q1\td1\t0", "q1\td2\t1"])


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy({"q1": "a", "q2": "b"}, {"q1": {"a"}, "q2": {"b"}}) == 1.0

    def test_none_correct(self):
        assert accuracy({"q1": "x", "q2": "y"}, {"q1": {"a"}, "q2": {"b"}}) == 0.0

    def test_two_of_three(self):
        gold = {"q1": {"a"}, "q2": {"b"}, "q3": {"c"}}
        predictions = {"q1": "a", "q2": "b", "q3": "nope"}
        assert accuracy(predictions, gold) == pytest.approx(0.666667, abs=1e-6)

    def test_unknown_query_raises(self):
        with pytest.raises(KeyError):
            accuracy({"mystery": "a"}, {"q1": {"a"}})

    def test_multi_item_gold_sets(self):
        assert accuracy({"q1": "b"}, {"q1": {"a", "b"}}) == 1.0


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
        by_mode = {}
        for mode in ("off", "gazetteer", "gold"):
            report = compare_mis_modes(
                corpus, kg, queries, gold, gold_links=gold_links, modes=(mode,)
            )
            (row,) = report.rows
            by_mode[mode] = row["sentence_accuracy"]
            assert report.config["linker"] == mode
            assert len(report.per_query) == len(queries)
        assert by_mode["gold"] >= by_mode["off"] >= by_mode["gazetteer"]
        assert by_mode["gold"] >= by_mode["off"] + 0.05

    def test_missing_gold_for_query_raises(self, medical_kg, medical_corpus):
        gold = parse_sentence_gold(["q1\td-heart\t0"])
        with pytest.raises(KeyError, match="q2"):
            compare_mis_modes(
                medical_corpus, medical_kg, {"q1": "heart", "q2": "spoon"}, gold, modes=("off",)
            )

    def test_out_of_range_gold_index_rejected(self, medical_kg, medical_corpus):
        gold = parse_sentence_gold(["q1\td-heart\t99"])
        with pytest.raises(ValueError, match="out-of-range"):
            compare_mis_modes(medical_corpus, medical_kg, {"q1": "heart"}, gold, modes=("off",))

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
        report = compare_mis_modes(
            corpus, kg, queries, gold, gold_links=gold_links, modes=("gold",)
        )
        (row,) = report.rows
        hits = [q["sentence_hit"] for q in report.per_query]
        assert row["sentence_accuracy"] == pytest.approx(sum(hits) / len(hits), abs=1e-12)


@pytest.fixture(scope="module")
def fixture():
    return build_rerank_fixture()


class TestRerankExperiment:

    @pytest.mark.parametrize(
        "linker, message", [("gold", "gold annotations"), ("bogus", "linker mode")]
    )
    def test_linker_checked_before_any_work(self, fixture, monkeypatch, linker, message):
        corpus, kg, queries, qrel_lines = fixture

        def fail(texts):
            raise AssertionError("fit_embedder called before the linker was checked")

        monkeypatch.setattr(evaluation, "fit_embedder", fail)
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
        gold = GoldAnnotations(links={"q1": [("entity", "Q1")]})
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

    def test_records_roundtrip_through_json(self, tmp_path):
        import json

        report = self.make_report()
        path = tmp_path / "records.jsonl"
        report.write_records(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["record"] == "config"
        assert any(r["record"] == "aggregate" for r in parsed)
        assert any(r["record"] == "query" for r in parsed)
        assert any(r["record"] == "note" for r in parsed)

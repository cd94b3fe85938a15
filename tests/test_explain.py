import json
from pathlib import Path

import pytest

from kgxir import linking
from kgxir.explain import explain_query
from kgxir.kg import KnowledgeGraph, load_kg, parse_edges, parse_entities, parse_relations
from kgxir.linking import build_gazetteer
from kgxir.retrieval import build_index, load_corpus
from kgxir.text import fit_embedder

from conftest import (
    MEDICAL_EDGE_LINES,
    MEDICAL_ENTITY_LINES,
    MEDICAL_RELATION_LINES,
    build_medical_kg,
)


@pytest.fixture()
def index(medical_corpus, medical_kg):
    model = fit_embedder([d.embedding_text for d in medical_corpus])
    return build_index(medical_corpus, model, gazetteer=build_gazetteer(medical_kg))


class TestExplainQuery:
    def test_full_pipeline_on_relation_query(self, index, medical_kg):
        record = explain_query(
            index,
            "cause of heart disease",
            query_id="q1",
            k=3,
            kg=medical_kg,
            linker="gazetteer",
            expansion_on=True,
            relatedness="complement",
        )
        assert record.expansion_case == "A"
        assert record.appended_terms == ("atherosclerosis", "obesity", "smoking")
        assert record.entity_ids == ("Q1",)
        assert record.relation_ids == ("P1",)
        assert len(record.results) == 3
        top = record.results[0]
        assert top.final_rank == 1
        assert top.qdr_value is not None
        assert top.mis_text is not None
        # QDR breakdown has one entry per distinct query entity.
        assert [eid for eid, _ in top.qdr_breakdown] == ["Q1"]

    def test_expansion_off_shows_case_none(self, index, medical_kg):
        record = explain_query(
            index,
            "cause of heart disease",
            kg=medical_kg,
            linker="gazetteer",
            expansion_on=False,
            relatedness="off",
            k=2,
        )
        assert record.expansion_case == "none"
        assert record.appended_terms == ()
        # Mentions still recorded: they exist even though expansion is off.
        assert record.entity_ids == ("Q1",)

    def test_no_kg_baseline(self, index):
        record = explain_query(index, "capacity of a tablespoon", k=2)
        assert record.expansion_case == "none"
        assert record.results[0].doc_id == "d-tbsp"
        assert record.results[0].qdr_value is None
        assert record.results[0].mis_index == 2

    def test_kg_required_when_linking_requested(self, index):
        with pytest.raises(ValueError, match="knowledge graph"):
            explain_query(index, "q", linker="gazetteer")

    def test_gold_linker_requires_annotations(self, index, medical_kg):
        with pytest.raises(ValueError, match="gold"):
            explain_query(index, "q", kg=medical_kg, linker="gold")

    def test_gazetteer_built_once_per_kg(self, index, monkeypatch):
        kg = build_medical_kg()
        calls = []
        build = linking.build_gazetteer
        monkeypatch.setattr(linking, "build_gazetteer", lambda g: calls.append(g) or build(g))
        for text in ("cause of heart disease", "obesity", "capacity of a tablespoon"):
            explain_query(
                index, text, kg=kg, linker="gazetteer", expansion_on=True,
                relatedness="complement", k=2,
            )
        assert calls == [kg]

    def test_reranking_without_entity_cache_raises(self, medical_corpus, medical_kg):
        model = fit_embedder([d.embedding_text for d in medical_corpus])
        bare = build_index(medical_corpus, model)
        with pytest.raises(ValueError, match="kgxir index --kg-"):
            explain_query(bare, "heart disease", kg=medical_kg, relatedness="complement")
        # Without re-ranking the cache is not needed.
        assert explain_query(bare, "heart disease", kg=medical_kg, linker="gazetteer").results

    def test_warm_reranking_looks_up_only_the_query_entities(self, index):
        """The first re-ranked query resolves the entity cache to KG codes;
        a later one on the same index and KG looks up no document's ids."""
        kg = build_medical_kg()
        looked_up = []

        class Codes(dict):
            def __getitem__(self, entity_id):
                looked_up.append(entity_id)
                return super().__getitem__(entity_id)

        kg._entity_code = Codes(kg._entity_code)
        settings = dict(kg=kg, linker="gazetteer", relatedness="complement", k=4)
        explain_query(index, "tablespoon", **settings)
        assert set(looked_up) == {e for ids in index.entities for e in ids}
        for query, entity_ids in (("obesity and heart disease", ["Q1", "Q3"]), ("lungs", [])):
            looked_up.clear()
            record = explain_query(index, query, **settings)
            assert sorted(record.entity_ids) == entity_ids
            assert looked_up == entity_ids

    def test_another_kg_resolves_the_entity_cache_again(self, index, medical_kg):
        """The same graph with its entities in another order has other codes;
        re-ranking with it must not read the codes of the first."""
        entities = parse_entities(reversed(MEDICAL_ENTITY_LINES))
        relations = parse_relations(MEDICAL_RELATION_LINES)
        edges = parse_edges(MEDICAL_EDGE_LINES, entities, relations)
        reordered = KnowledgeGraph(entities, relations, edges)
        assert reordered._entity_code != medical_kg._entity_code
        settings = dict(linker="gazetteer", relatedness="complement", k=4)
        expected = explain_query(index, "obesity", kg=medical_kg, **settings)
        assert sorted({r.qdr_value for r in expected.results}) != [0.0]
        for kg in (reordered, medical_kg, reordered):
            assert explain_query(index, "obesity", kg=kg, **settings) == expected

    def test_raw_relatedness_is_not_a_ranking_mode(self, index, medical_kg):
        with pytest.raises(ValueError, match="relatedness"):
            explain_query(index, "heart disease", kg=medical_kg, relatedness="raw")

    def test_ranking_recomputable_from_record_scores(self, index, medical_kg):
        record = explain_query(
            index,
            "obesity and heart disease",
            kg=medical_kg,
            linker="gazetteer",
            expansion_on=True,
            relatedness="complement",
            k=4,
        )
        resorted = sorted(
            record.results, key=lambda r: (-r.qdr_value, r.embedding_rank)
        )
        assert [r.doc_id for r in resorted] == [r.doc_id for r in record.results]
        assert [r.final_rank for r in record.results] == list(
            range(1, len(record.results) + 1)
        )

    def test_embedding_order_recomputable_when_relatedness_off(self, index):
        record = explain_query(index, "heart disease", k=4)
        resorted = sorted(record.results, key=lambda r: (-r.embedding_score, r.doc_id))
        assert [r.doc_id for r in resorted] == [r.doc_id for r in record.results]

    def test_fresh_and_warmed_index_give_equal_records(self, medical_corpus, medical_kg):
        """A query's record does not depend on which documents' sentence rows
        earlier queries kept."""
        model = fit_embedder([d.embedding_text for d in medical_corpus])
        gazetteer = build_gazetteer(medical_kg)
        settings = dict(kg=medical_kg, linker="gazetteer", expansion_on=True)
        queries = ["cause of heart disease", "capacity of a tablespoon", "obesity and smoking"]
        warmed = build_index(medical_corpus, model, gazetteer=gazetteer)
        explain_query(warmed, "tablespoon", k=1, **settings)
        for query in queries:
            for k, relatedness in ((2, "off"), (4, "complement")):
                fresh = build_index(medical_corpus, model, gazetteer=gazetteer)
                expected = explain_query(fresh, query, k=k, relatedness=relatedness, **settings)
                got = explain_query(warmed, query, k=k, relatedness=relatedness, **settings)
                assert got.to_json() == expected.to_json()


class TestRecordSerialization:
    def test_round_trip_is_lossless(self, index, medical_kg):
        # to_json() is canonical: parsing it and dumping it again gives the
        # same bytes.
        record = explain_query(
            index,
            "cause of heart disease",
            query_id="q1",
            k=3,
            kg=medical_kg,
            linker="gazetteer",
            expansion_on=True,
            relatedness="complement",
        )
        text = record.to_json()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, ensure_ascii=False)
        assert payload["expansion_case"] == "A"
        assert [r["doc_id"] for r in payload["results"]] == [r.doc_id for r in record.results]
        assert [r["qdr_breakdown"] for r in payload["results"]] == [
            [list(pair) for pair in r.qdr_breakdown] for r in record.results
        ]

    def test_round_trip_preserves_none_fields(self, index):
        record = explain_query(index, "tablespoon", k=2)
        assert record.results[0].qdr_value is None
        text = record.to_json()
        assert '"qdr_value": null' in text
        parsed = json.loads(text)["results"][0]
        assert parsed["qdr_value"] is None and parsed["qdr_breakdown"] is None

    def test_format_block_mentions_key_facts(self, index, medical_kg):
        record = explain_query(
            index,
            "cause of heart disease",
            kg=medical_kg,
            linker="gazetteer",
            expansion_on=True,
            relatedness="complement",
            k=2,
        )
        block = record.format_block()
        assert "case A" in block
        assert "atherosclerosis obesity smoking" in block
        assert "MIS[" in block
        assert "qdr breakdown" in block


DEMO = Path(__file__).parent.parent / "demos" / "data"


def test_reassigned_entity_cache_is_resolved_again():
    """The KG codes of the entity cache are kept for one ``entities`` object:
    after a re-ranked query, the next one reads a newly assigned cache."""
    kg = load_kg(*(DEMO / f"kg_{name}.tsv" for name in ("entities", "relations", "edges")))
    index = build_index(load_corpus(DEMO / "corpus.jsonl"), gazetteer=kg.gazetteer)
    settings = dict(query_id="q1", k=4, kg=kg, linker="gazetteer", relatedness="complement")
    first = explain_query(index, "cause of heart disease", **settings)
    assert [r.qdr_value for r in first.results] == pytest.approx([8 / 15, 1 / 3, 0.0, 0.0])
    index.entities = [[] for _ in index.entities]
    second = explain_query(index, "cause of heart disease", **settings)
    assert [r.qdr_value for r in second.results] == [0.0] * 4

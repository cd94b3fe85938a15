import itertools

import numpy as np

from kgxir import expansion
from kgxir.expansion import ExpansionCase, classify, expand
from kgxir.linking import build_gazetteer, link
from kgxir.text import embed, fit_embedder

from conftest import tokenize_oracle


def entity(mid):
    return ("entity", mid)


def relation(mid):
    return ("relation", mid)


class TestClassify:
    def test_entity_plus_relation(self):
        assert classify(["Q1"], ["P1"]) is ExpansionCase.ENTITY_RELATION

    def test_single_entity(self):
        assert classify(["Q1"], []) is ExpansionCase.SINGLE_ENTITY

    def test_multiple_entities_without_relation(self):
        assert classify(["Q1", "Q2"], []) is ExpansionCase.ENTITIES_ONLY

    def test_no_entities(self):
        assert classify([], []) is ExpansionCase.NONE
        assert classify([], ["P1"]) is ExpansionCase.NONE

    def test_duplicate_mentions_count_once(self, medical_kg):
        # expand hands classify distinct ids, so a repeated mention is one entity.
        expanded = expand("q", [entity("Q1"), entity("Q1")], medical_kg)
        assert expanded.case is ExpansionCase.SINGLE_ENTITY
        assert expanded.entity_ids == ("Q1",)

    def test_many_entities_with_relation_still_relation_case(self):
        assert classify(["Q1", "Q2", "Q3"], ["P1"]) is ExpansionCase.ENTITY_RELATION


class TestExpand:
    def test_relation_case_appends_neighbor_labels_sorted_by_id(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        query = "cause of heart disease"
        expanded = expand(query, link(query, gaz), medical_kg)
        assert expanded.case is ExpansionCase.ENTITY_RELATION
        # Neighbors over the contributing-factor relation: Q2, Q3, Q5 by id.
        assert expanded.appended_terms == ("atherosclerosis", "obesity", "smoking")
        assert expanded.text == "cause of heart disease atherosclerosis obesity smoking"
        assert expanded.entity_ids == ("Q1",)
        assert expanded.relation_ids == ("P1",)

    def test_single_entity_case_appends_description_tokens(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        query = "how big is a tablespoon"
        expanded = expand(query, link(query, gaz), medical_kg)
        assert expanded.case is ExpansionCase.SINGLE_ENTITY
        assert expanded.appended_terms == tuple(
            tokenize_oracle("large spoon used as a unit of volume in cooking")
        )

    def test_description_cap_limits_tokens(self, medical_kg, monkeypatch):
        monkeypatch.setattr(expansion, "DESCRIPTION_TOKEN_CAP", 3)
        gaz = build_gazetteer(medical_kg)
        query = "how big is a tablespoon"
        expanded = expand(query, link(query, gaz), medical_kg)
        assert expanded.appended_terms == ("large", "spoon", "used")

    def test_entities_only_case_appends_labels_in_occurrence_order(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        query = "obesity and smoking together"
        expanded = expand(query, link(query, gaz), medical_kg)
        assert expanded.case is ExpansionCase.ENTITIES_ONLY
        assert expanded.appended_terms == ("obesity", "smoking")

    def test_no_mentions_yields_original(self, medical_kg):
        expanded = expand("plain words only", [], medical_kg)
        assert expanded.case is ExpansionCase.NONE
        assert expanded.appended_terms == ()
        assert expanded.text == "plain words only"

    def test_never_touches_original_text(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        query = "Cause of HEART disease?"
        expanded = expand(query, link(query, gaz), medical_kg)
        assert expanded.text.startswith(query)

    def test_none_case_embeds_bit_identically(self, medical_kg, medical_corpus):
        model = fit_embedder([d.embedding_text for d in medical_corpus])
        query = "words without any graph hits"
        expanded = expand(query, [], medical_kg)
        assert np.array_equal(embed(expanded.text, model), embed(query, model))

    def test_relation_case_invariant_under_mention_permutation(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        mentions = link("cause of heart disease and obesity", gaz)
        expansions = {
            expand("q", list(p), medical_kg).appended_terms
            for p in itertools.permutations(mentions)
        }
        assert len(expansions) == 1

    def test_appended_terms_all_come_from_kg(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        kg_tokens = set()
        for e in medical_kg.entities.values():
            kg_tokens.update(tokenize_oracle(e.label))
            kg_tokens.update(tokenize_oracle(e.description))
        for query in [
            "cause of heart disease",
            "how big is a tablespoon",
            "obesity and smoking together",
        ]:
            expanded = expand(query, link(query, gaz), medical_kg)
            for term in expanded.appended_terms:
                assert set(tokenize_oracle(term)) <= kg_tokens

    def test_relation_without_matching_edges_appends_nothing(self, medical_kg):
        # Obesity has no outgoing contributing-factor edge: case holds, terms empty.
        mentions = [entity("Q3"), relation("P1")]
        expanded = expand("anything", mentions, medical_kg)
        assert expanded.case is ExpansionCase.ENTITY_RELATION
        assert expanded.appended_terms == ()
        assert expanded.text == "anything"

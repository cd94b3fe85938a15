import math
import random

import pytest

from kgxir.linking import build_gazetteer, distinct_ids, link
from kgxir.rerank import qdr, rerank
from kgxir.retrieval import ScoredDoc


def qdr_oracle(query_entities, document_entities, kg):
    """Independent double loop over distinct (query, document) entity pairs."""
    qs = sorted(set(query_entities))
    ds = sorted(set(document_entities))
    total = 0.0
    for qe in qs:
        inner = 0.0
        for de in ds:
            inner += kg.relatedness(qe, de)
        total += inner / len(ds) if ds else 0.0
    return total


class StubKg:
    """Relatedness read from a table of (query entity, document entity) pairs."""

    def __init__(self, values):
        self.values = values

    def relatedness(self, a, b):
        return self.values[a, b]


class TestDocEntities:
    """The per-document entity ids that the re-ranking cache holds."""

    def test_duplicate_mentions_collapse(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        assert distinct_ids(link("obesity, more obesity", gaz), "entity") == ["Q3"]

    def test_no_surface_forms(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        assert distinct_ids(link("nothing from the graph", gaz), "entity") == []

    def test_occurrence_order(self, medical_kg):
        gaz = build_gazetteer(medical_kg)
        assert distinct_ids(link("heart disease then obesity", gaz), "entity") == ["Q1", "Q3"]


class TestQdr:
    def test_single_query_entity_averages_document_relatedness(self, toy_kg):
        r_self = toy_kg.relatedness("n01", "n01")
        r_other = toy_kg.relatedness("n01", "n02")
        score = qdr(["n01"], ["n01", "n02"], toy_kg)
        assert score.value == pytest.approx((r_self + r_other) / 2, abs=1e-12)
        assert score.breakdown == (("n01", score.value),)

    def test_sums_over_query_entities(self, toy_kg):
        solo_a = qdr(["n01"], ["n04", "n06"], toy_kg).value
        solo_b = qdr(["n02"], ["n04", "n06"], toy_kg).value
        combined = qdr(["n01", "n02"], ["n04", "n06"], toy_kg)
        assert combined.value == pytest.approx(solo_a + solo_b, abs=1e-12)
        assert len(combined.breakdown) == 2

    def test_empty_document_entities_scores_zero(self, toy_kg):
        score = qdr(["n01"], [], toy_kg)
        assert score.value == 0.0
        assert score.breakdown == (("n01", 0.0),)

    def test_empty_query_entities_scores_zero(self, toy_kg):
        score = qdr([], ["n01"], toy_kg)
        assert score.value == 0.0
        assert score.breakdown == ()

    def test_no_query_entities_scores_a_float(self, toy_kg):
        assert type(qdr([], ["n01"], toy_kg).value) is float

    def test_sums_add_left_to_right(self):
        # 1.0 absorbs each 1e-16 alone, but not their compensated sum (the
        # built-in sum from Python 3.12 on).
        values = {("q1", "d1"): 1.0, ("q1", "d2"): 1e-16, ("q1", "d3"): 1e-16}
        values.update({("q2", "d1"): 1e-16, ("q3", "d1"): 1e-16})
        kg = StubKg(values)
        assert math.fsum([1.0, 1e-16, 1e-16]) > 1.0
        inner = qdr(["q1"], ["d1", "d2", "d3"], kg)
        assert inner.value == 1.0 / 3
        outer = qdr(["q1", "q2", "q3"], ["d1"], kg)
        assert outer.breakdown == (("q1", 1.0), ("q2", 1e-16), ("q3", 1e-16))
        assert outer.value == 1.0

    def test_value_equals_breakdown_sum(self, toy_kg):
        score = qdr(["n01", "n02", "n04"], ["n03", "n05", "n06"], toy_kg)
        assert score.value == pytest.approx(
            sum(v for _, v in score.breakdown), abs=1e-12
        )

    def test_matches_double_loop_oracle_randomized(self, toy_kg):
        rng = random.Random(42)
        ids = sorted(toy_kg.entities)
        for _ in range(200):
            qs = rng.sample(ids, rng.randint(0, 4))
            ds = rng.sample(ids, rng.randint(0, 5))
            assert qdr(qs, ds, toy_kg).value == pytest.approx(
                qdr_oracle(qs, ds, toy_kg), abs=1e-9
            )

    def test_permutation_invariance_is_exact(self, toy_kg):
        qs = ["n04", "n01", "n02"]
        ds = ["n06", "n03", "n05", "n01"]
        baseline = qdr(qs, ds, toy_kg)
        rng = random.Random(7)
        for _ in range(20):
            qs_shuffled = qs[:]
            ds_shuffled = ds[:]
            rng.shuffle(qs_shuffled)
            rng.shuffle(ds_shuffled)
            shuffled = qdr(qs_shuffled, ds_shuffled, toy_kg)
            assert shuffled.value == baseline.value
            assert shuffled.breakdown == baseline.breakdown

    def test_duplicate_query_entities_collapse(self, toy_kg):
        assert qdr(["n01", "n01"], ["n02", "n04"], toy_kg) == qdr(
            ["n01"], ["n02", "n04"], toy_kg
        )

    def test_duplicate_document_entities_collapse(self, toy_kg):
        assert qdr(["n01"], ["n02", "n02", "n04"], toy_kg) == qdr(
            ["n01"], ["n02", "n04"], toy_kg
        )

    def test_non_negative(self, toy_kg):
        rng = random.Random(3)
        ids = sorted(toy_kg.entities)
        for _ in range(100):
            score = qdr(rng.sample(ids, 2), rng.sample(ids, 3), toy_kg)
            assert score.value >= 0.0

    def test_unknown_entity_raises(self, toy_kg):
        with pytest.raises(KeyError):
            qdr(["nope"], ["n01"], toy_kg)


class TestRerank:
    def candidates(self, *doc_ids):
        return [
            ScoredDoc(doc_id=d, score=1.0 - i * 0.1, rank=i + 1)
            for i, d in enumerate(doc_ids)
        ]

    def test_higher_qdr_moves_up(self, toy_kg):
        # n02 overlaps n01's in-links; n07 does not.
        entities_by_doc = {"d1": ["n07"], "d2": ["n02"]}
        out = rerank(self.candidates("d1", "d2"), ["n01"], toy_kg, entities_by_doc)
        assert [doc.doc_id for doc, _ in out] == ["d2", "d1"]
        assert out[0][0].rank == 2
        for doc, score in out:
            assert score == qdr(["n01"], entities_by_doc[doc.doc_id], toy_kg)

    def test_all_ties_preserve_embedding_order(self, toy_kg):
        entities_by_doc = {"d1": [], "d2": [], "d3": []}
        out = rerank(self.candidates("d1", "d2", "d3"), ["n01"], toy_kg, entities_by_doc)
        assert [doc.doc_id for doc, _ in out] == ["d1", "d2", "d3"]
        assert all(score.value == 0.0 for _, score in out)

    def test_candidate_set_preserved(self, toy_kg):
        entities_by_doc = {"d1": ["n02"], "d2": ["n07"], "d3": ["n04"]}
        candidates = self.candidates("d1", "d2", "d3")
        out = rerank(candidates, ["n01"], toy_kg, entities_by_doc)
        assert {doc for doc, _ in out} == set(candidates)
        assert len(out) == len(candidates)

    def test_embedding_scores_carried_through(self, toy_kg):
        candidates = self.candidates("d1", "d2")
        out = rerank(candidates, [], toy_kg, {"d1": [], "d2": []})
        assert [doc for doc, _ in out] == candidates

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgxir.errors import DataFormatError
from kgxir.kg import KnowledgeGraph, parse_entities
from kgxir.linking import build_gazetteer, distinct_ids, link
from kgxir.rerank import QdrScore, qdr, rerank
from kgxir.retrieval import Document, ScoredDoc, build_index

from conftest import TOY_EDGE_LINES, complement_oracle, edge_list, graph


def qdr_oracle(query_entities, document_entities, edges, n_nodes):
    """Independent double loop over distinct (query, document) entity pairs,
    each scored by the formula written out in ``complement_oracle`` from the
    edge list a graph of ``n_nodes`` entities was built from."""
    qs = sorted(set(query_entities))
    ds = sorted(set(document_entities))
    total = 0.0
    for qe in qs:
        inner = 0.0
        for de in ds:
            inner += complement_oracle(edges, n_nodes, qe, de)
        total += inner / len(ds) if ds else 0.0
    return total


def scored(*doc_ids):
    """Candidates in embedding order, with falling scores."""
    return [ScoredDoc(doc_id=d, score=1.0 - i * 0.1, rank=i + 1) for i, d in enumerate(doc_ids)]


def cached_index(caches):
    """An index of one document per key of ``caches``, in that order, whose
    entity cache is ``caches``."""
    index = build_index([Document(id=doc_id, text="a text") for doc_id in caches])
    return replace(index, entities=[list(ids) for ids in caches.values()])


class StubKg:
    """The relatedness table of the QDR kernel, read from a dict of (query
    entity, document entity) pairs. An id's code is its position in sorted
    order."""

    def __init__(self, values):
        self.values = values
        self.ids = sorted({entity for pair in values for entity in pair})

    def _code(self, entity_id):
        return self.ids.index(entity_id)

    def _complement_table(self, q, d):
        table = [[self.values[self.ids[a], self.ids[b]] for b in d.tolist()] for a in q.tolist()]
        return np.array(table, dtype=np.float64).reshape(len(q), len(d))


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

    def test_long_sums_add_left_to_right(self):
        # Past eight terms NumPy's sum switches to pairwise partial sums, in
        # which the small terms add up before they meet 1.0.
        small = [f"e{i}" for i in range(1, 12)]
        values = {("e0", d): 1e-16 for d in small} | {("e0", "e0"): 1.0}
        values.update({(q, "e0"): 1e-16 for q in small})
        kg = StubKg(values)
        assert math.fsum([1.0] + [1e-16] * 11) > 1.0
        assert qdr(["e0"], ["e0", *small], kg).value == 1.0 / 12
        outer = qdr(["e0", *small], ["e0"], kg)
        assert [average for _, average in outer.breakdown] == [1.0] + [1e-16] * 11
        assert outer.value == 1.0

    def test_value_equals_breakdown_sum(self, toy_kg):
        score = qdr(["n01", "n02", "n04"], ["n03", "n05", "n06"], toy_kg)
        assert score.value == pytest.approx(
            sum(v for _, v in score.breakdown), abs=1e-12
        )

    def test_matches_double_loop_oracle_randomized(self, toy_kg):
        rng = random.Random(42)
        ids, edges = sorted(toy_kg.entities), edge_list(TOY_EDGE_LINES)
        for _ in range(200):
            qs = rng.sample(ids, rng.randint(0, 4))
            ds = rng.sample(ids, rng.randint(0, 5))
            assert qdr(qs, ds, toy_kg).value == qdr_oracle(qs, ds, edges, len(ids))

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

    @pytest.mark.parametrize("query, document", [(["nope"], []), ([], ["nope"])])
    def test_unknown_entity_raises_with_the_other_side_empty(self, toy_kg, query, document):
        with pytest.raises(KeyError, match="unknown entity id: 'nope'"):
            qdr(query, document, toy_kg)

    def test_graph_of_one_node_refuses_every_pair_and_only_pairs(self):
        """ln(W - 1) is -inf for W = 1, so a pair would score silently wrong."""
        kg = KnowledgeGraph(parse_entities(["Q1\theart\t\t"]), {}, [])
        for query, document in ((["Q1"], ["Q1"]), (["Q1", "Q1"], ["Q1"])):
            with pytest.raises(ValueError, match="needs a graph with at least 2 nodes"):
                qdr(query, document, kg)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            rerank(scored("d1", "d2"), ["Q1"], kg, cached_index({"d1": [], "d2": ["Q1"]}))
        assert qdr([], ["Q1"], kg) == qdr([], [], kg) == QdrScore(0.0, ())
        assert qdr(["Q1"], [], kg) == QdrScore(0.0, (("Q1", 0.0),))
        out = rerank(scored("d1", "d2"), [], kg, cached_index({"d1": ["Q1"], "d2": []}))
        assert [(doc.doc_id, score.value) for doc, score in out] == [("d1", 0.0), ("d2", 0.0)]


class TestRerank:
    def candidates(self, *doc_ids):
        return [
            ScoredDoc(doc_id=d, score=1.0 - i * 0.1, rank=i + 1)
            for i, d in enumerate(doc_ids)
        ]

    def test_higher_qdr_moves_up(self, toy_kg):
        # n02 overlaps n01's in-links; n07 does not.
        caches = {"d1": ["n07"], "d2": ["n02"]}
        out = rerank(self.candidates("d1", "d2"), ["n01"], toy_kg, cached_index(caches))
        assert [doc.doc_id for doc, _ in out] == ["d2", "d1"]
        assert out[0][0].rank == 2
        for doc, score in out:
            assert score == qdr(["n01"], caches[doc.doc_id], toy_kg)

    def test_all_ties_preserve_embedding_order(self, toy_kg):
        index = cached_index({"d1": [], "d2": [], "d3": []})
        out = rerank(self.candidates("d1", "d2", "d3"), ["n01"], toy_kg, index)
        assert [doc.doc_id for doc, _ in out] == ["d1", "d2", "d3"]
        assert all(score.value == 0.0 for _, score in out)

    def test_candidate_set_preserved(self, toy_kg):
        caches = {"d1": ["n02"], "d2": ["n07"], "d3": ["n04"]}
        candidates = self.candidates("d1", "d2", "d3")
        out = rerank(candidates, ["n01"], toy_kg, cached_index(caches))
        assert {doc for doc, _ in out} == set(candidates)
        assert len(out) == len(candidates)

    def test_embedding_scores_carried_through(self, toy_kg):
        candidates = self.candidates("d1", "d2")
        out = rerank(candidates, [], toy_kg, cached_index({"d1": [], "d2": []}))
        assert [doc for doc, _ in out] == candidates


@st.composite
def rerank_cases(draw):
    """A small graph, the edge list it was built from, a query and
    candidates' entity caches. Some targets have every node as an in-link
    (the floor branch), others none; caches repeat ids and one another, and
    may be empty or hold an unknown id."""
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(nodes, nodes), min_size=n, max_size=4 * n))
    full = draw(st.sets(nodes, max_size=2))
    kg, edge_ids = graph(n, edges + [(s, t) for t in sorted(full) for s in range(n)])
    ids = st.sampled_from([f"e{i}" for i in range(n)])
    query = draw(st.lists(ids, max_size=4))
    caches = draw(st.lists(st.lists(ids, max_size=5), min_size=1, max_size=6))
    caches += draw(st.lists(st.sampled_from(caches), max_size=2))
    if draw(st.sampled_from([False] * 9 + [True])):
        side = draw(st.sampled_from([query, *caches]))
        side.insert(draw(st.integers(min_value=0, max_value=len(side))), "nope")
    return kg, edge_ids, query, {f"d{i}": cache for i, cache in enumerate(caches)}


class TestRerankKernel:
    """``rerank`` scores all candidates from one relatedness table; it must
    equal the per-candidate double loop over the written-out formula bit for
    bit, breakdown and order included."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(rerank_cases())
    def test_matches_per_candidate_oracle(self, case):
        kg, edges, query, caches = case
        candidates, index = scored(*caches), cached_index(caches)
        stale = [doc_id for doc_id, cache in caches.items() if "nope" in cache]
        if stale:
            message = f"document '{stale[0]}': cached entity id 'nope' is not in the KG"
            with pytest.raises(DataFormatError, match=message):
                rerank(candidates, query, kg, index)
            return
        if "nope" in query:
            with pytest.raises(KeyError, match="unknown entity id: 'nope'"):
                rerank(candidates, query, kg, index)
            return
        if kg.node_count < 2 and query and any(caches.values()):
            with pytest.raises(ValueError, match="at least 2 nodes"):
                rerank(candidates, query, kg, index)
            return
        expected, n = [], len(kg.entities)
        for candidate in candidates:
            document = sorted(set(caches[candidate.doc_id]))
            averages = [qdr_oracle([e], document, edges, n) for e in sorted(set(query))]
            value = qdr_oracle(query, document, edges, n)
            expected.append((candidate.doc_id, value.hex(), [a.hex() for a in averages]))
        expected.sort(key=lambda row: -float.fromhex(row[1]))
        got = [
            (doc.doc_id, score.value.hex(), [average.hex() for _, average in score.breakdown])
            for doc, score in rerank(candidates, query, kg, index)
        ]
        assert got == expected
        for doc, score in rerank(candidates, query, kg, index):
            assert score == qdr(query, caches[doc.doc_id], kg)
            assert [entity for entity, _ in score.breakdown] == sorted(set(query))


@st.composite
def resolved_cases(draw):
    """A graph of at least two nodes, the edge list it was built from, the
    entity caches of an index (unsorted lists that repeat ids, may be empty
    and repeat one another), a query that may link no entity, and the
    candidates: some of the index's documents in any embedding order."""
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = st.integers(min_value=0, max_value=n - 1)
    kg, edges = graph(n, draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=4 * n)))
    ids = st.sampled_from([f"e{i}" for i in range(n)])
    caches = draw(st.lists(st.lists(ids, max_size=6), min_size=1, max_size=8))
    caches += draw(st.lists(st.sampled_from(caches), max_size=3))
    caches = {f"d{i}": cache for i, cache in enumerate(caches)}
    order = draw(st.permutations(list(caches)))
    order = order[: draw(st.integers(min_value=1, max_value=len(order)))]
    return kg, edges, draw(st.lists(ids, max_size=4)), caches, order


class TestResolvedCodes:
    """Re-ranking reads the index's entity cache as KG codes, resolved on the
    first call with a KG and then kept."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(resolved_cases())
    def test_rerank_from_resolved_codes_matches_oracle(self, case):
        kg, edges, query, caches, order = case
        index, candidates, n = cached_index(caches), scored(*order), len(kg.entities)
        expected = [
            (doc, qdr_oracle(query, caches[doc.doc_id], edges, n),
             [qdr_oracle([e], caches[doc.doc_id], edges, n) for e in sorted(set(query))])
            for doc in candidates
        ]
        expected.sort(key=lambda row: -row[1])  # stable: ties keep embedding order
        for _ in range(2):  # the first call resolves the cache, the second reads it
            got = [
                (doc, score.value, [average for _, average in score.breakdown])
                for doc, score in rerank(candidates, query, kg, index)
            ]
            assert got == expected

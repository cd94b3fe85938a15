import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgxir.artifacts import index_from_payload, index_to_payload
from kgxir.errors import DataFormatError
from kgxir.retrieval import (
    Document,
    build_index,
    load_corpus,
    parse_corpus,
    retrieve,
    select_mis,
)
from kgxir.text import embed, fit_embedder


def make_index(corpus):
    model = fit_embedder([d.embedding_text for d in corpus])
    return build_index(corpus, model)


def full_sort_oracle(index, query_text, k):
    """Re-embed every document's text, score it densely and sort the whole
    list."""
    query_vec = embed(query_text, index.model)
    rows = []
    for doc_id, doc in index.documents.items():
        vector = embed(doc.embedding_text, index.model)
        rows.append((float(np.dot(vector, query_vec)), doc_id))
    ordered = sorted(rows, key=lambda r: (-r[0], r[1]))
    return ordered[:k]


def mis_oracle(index, doc_id, query_text):
    """Exhaustive argmax over all sentences, lowest index on ties."""
    query_vec = embed(query_text, index.model)
    doc_text = index.documents[doc_id].text
    best = None
    for span in index.sentences[doc_id]:
        score = float(np.dot(embed(span.text_of(doc_text), index.model), query_vec))
        if best is None or score > best[0]:
            best = (score, span.index)
    return best


class TestCorpusLoading:
    def test_parse_jsonl(self):
        docs = parse_corpus(
            [
                '{"id": "d1", "title": "T", "text": "Body."}',
                '{"id": "d2", "text": "No title."}',
                "",
            ]
        )
        assert docs[0].embedding_text == "T Body."
        assert docs[1].embedding_text == "No title."

    def test_invalid_json_cites_line(self):
        with pytest.raises(DataFormatError, match=":2:"):
            parse_corpus(['{"id": "d1", "text": "ok"}', "{broken"])

    def test_missing_fields_rejected(self):
        with pytest.raises(DataFormatError, match="'id' and 'text'"):
            parse_corpus(['{"id": "d1"}'])

    def test_load_corpus_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "Hello there."}\n', encoding="utf-8")
        docs = load_corpus(path)
        assert docs == [Document(id="a", text="Hello there.")]


class TestBuildIndex:
    def test_vectors_and_sentences_stored(self, medical_corpus):
        index = make_index(medical_corpus)
        assert set(index.documents) == {d.id for d in medical_corpus}
        assert len(index.doc_ptr) == len(medical_corpus) + 1
        for row, doc in enumerate(index.documents.values()):
            expected = embed(doc.embedding_text, index.model)
            assert np.array_equal(index.dense_row(row), expected)
            terms = index.doc_terms[index.doc_ptr[row] : index.doc_ptr[row + 1]]
            assert terms.tolist() == np.flatnonzero(expected).tolist()
        assert len(index.sentences["d-heart"]) == 3

    def test_duplicate_doc_id_rejected(self):
        docs = [Document(id="d1", text="a."), Document(id="d1", text="b.")]
        model = fit_embedder([d.text for d in docs])
        with pytest.raises(ValueError, match="d1"):
            build_index(docs, model)

    def test_punctuation_only_doc_stored_as_zero_vector(self, caplog):
        docs = [Document(id="d1", text="words here."), Document(id="d2", text="?!... --")]
        model = fit_embedder([d.text for d in docs])
        with caplog.at_level(logging.WARNING, logger="kgxir.retrieval"):
            index = build_index(docs, model)
        assert index.doc_ptr[2] == index.doc_ptr[1]
        assert not index.dense_row(1).any()
        assert any("d2" in record.message for record in caplog.records)
        assert [(r.doc_id, r.score) for r in retrieve(index, "words", k=2)][1] == ("d2", 0.0)


class TestRetrieve:
    def test_matches_full_sort_oracle(self, medical_corpus):
        index = make_index(medical_corpus)
        for query in [
            "heart disease risk",
            "capacity of a tablespoon",
            "obesity diet energy",
            "completely unrelated words",
        ]:
            for k in (1, 2, 10):
                got = retrieve(index, query, k)
                expected = full_sort_oracle(index, query, k)
                assert [(r.score, r.doc_id) for r in got] == expected
                assert [r.rank for r in got] == list(range(1, len(expected) + 1))

    def test_query_equal_to_document_ranks_it_first(self, medical_corpus):
        index = make_index(medical_corpus)
        doc = medical_corpus[2]
        top = retrieve(index, doc.embedding_text, k=3)
        assert top[0].doc_id == doc.id
        assert top[0].score == max(r.score for r in top)

    def test_k_larger_than_corpus_returns_everything(self, medical_corpus):
        index = make_index(medical_corpus)
        assert len(retrieve(index, "heart", k=100)) == len(medical_corpus)

    def test_identical_documents_tie_break_by_id(self):
        docs = [
            Document(id="d2", text="same exact text."),
            Document(id="d1", text="same exact text."),
            Document(id="d3", text="different words entirely."),
        ]
        index = make_index(docs)
        top = retrieve(index, "same exact text", k=3)
        assert [r.doc_id for r in top[:2]] == ["d1", "d2"]
        assert top[0].score == top[1].score

    def test_scores_non_increasing(self, medical_corpus):
        index = make_index(medical_corpus)
        results = retrieve(index, "heart disease", k=4)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_must_be_positive(self, medical_corpus):
        index = make_index(medical_corpus)
        with pytest.raises(ValueError):
            retrieve(index, "x", k=0)

    def test_appending_document_preserves_pairwise_order(self, medical_corpus):
        query = "heart disease risk"
        index = make_index(medical_corpus)
        before = {r.doc_id: r.score for r in retrieve(index, query, k=10)}
        extra = Document(id="zz-extra", text="an unrelated appendix document.")
        grown = build_index(list(medical_corpus) + [extra], index.model)
        after = {r.doc_id: r.score for r in retrieve(grown, query, k=10)}
        for a in before:
            for b in before:
                if before[a] > before[b]:
                    assert after[a] > after[b]

    def test_deterministic_across_runs(self, medical_corpus):
        index = make_index(medical_corpus)
        first = retrieve(index, "obesity and smoking", k=4)
        second = retrieve(make_index(medical_corpus), "obesity and smoking", k=4)
        assert first == second


class TestSelectMis:
    def test_single_sentence_document(self):
        docs = [Document(id="d1", text="Only one sentence here.")]
        index = make_index(docs)
        mis = select_mis(index, "d1", "anything at all")
        assert mis.index == 0
        assert mis.text == "Only one sentence here."

    def test_capacity_question_picks_capacity_sentence(self, medical_corpus):
        index = make_index(medical_corpus)
        mis = select_mis(index, "d-tbsp", "capacity of a tablespoon")
        expected = mis_oracle(index, "d-tbsp", "capacity of a tablespoon")
        assert (mis.score, mis.index) == expected
        assert mis.index == 2
        assert "capacity" in mis.text

    def test_matches_enumeration_oracle_everywhere(self, medical_corpus):
        index = make_index(medical_corpus)
        for query in ["heart disease", "energy intake", "spoon", "nothing matches this"]:
            for doc_id in index.documents:
                mis = select_mis(index, doc_id, query)
                assert (mis.score, mis.index) == mis_oracle(index, doc_id, query)

    def test_all_zero_tie_resolves_to_first_sentence(self, medical_corpus):
        index = make_index(medical_corpus)
        mis = select_mis(index, "d-heart", "zzz qqq www")
        assert mis.index == 0
        assert mis.score == 0.0

    def test_document_without_sentences_raises(self):
        docs = [Document(id="d1", text="words."), Document(id="d2", text="   ")]
        index = make_index(docs)
        with pytest.raises(ValueError, match="no sentences"):
            select_mis(index, "d2", "query")

    def test_unknown_document_raises(self, medical_corpus):
        index = make_index(medical_corpus)
        with pytest.raises(KeyError):
            select_mis(index, "nope", "query")


# --- property tests against the dense oracle --------------------------------

WORDS = ["heart", "disease", "risk", "diet", "energy", "spoon", "salt"]
SENTENCES = st.builds(
    lambda words, end: " ".join(words) + end,
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=5),
    st.sampled_from([".", "!", "?"]),
)
TEXTS = st.one_of(
    st.lists(st.one_of(SENTENCES, st.sampled_from(["Heart risk.", "Salt diet!"])), max_size=4)
    .map(" ".join),
    st.just("?!... --"),  # no token at all
)
QUERIES = st.lists(st.sampled_from(WORDS + ["zzz", "qqq"]), max_size=4).map(" ".join)


@st.composite
def corpora(draw):
    """Documents with repeated texts and sentences, ids out of insertion
    order, and a model fitted on a subset, so some documents have no
    in-vocabulary term."""
    texts = draw(st.lists(TEXTS, min_size=1, max_size=6))
    texts += draw(st.lists(st.sampled_from(texts), max_size=2))
    ids = draw(st.permutations([f"d{i}" for i in range(len(texts))]))
    title = st.sampled_from(["", "Heart", "Spoon diet"])
    titles = draw(st.lists(title, min_size=len(texts), max_size=len(texts)))
    docs = [Document(id=i, text=t, title=h) for i, t, h in zip(ids, texts, titles)]
    fitted = draw(st.lists(st.sampled_from(docs), min_size=1, unique_by=lambda d: d.id))
    return docs, fit_embedder([d.embedding_text for d in fitted])


def bits(value):
    return float(value).hex()


def round_trip(index):
    return index_from_payload(json.loads(json.dumps(index_to_payload(index))))


class TestDenseOracle:
    """Top-k and MIS equal a dense brute-force oracle that re-embeds every
    text, bit for bit, on the built and on the loaded index."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(corpora(), QUERIES, st.integers(min_value=1, max_value=10))
    def test_retrieve_matches_oracle(self, corpus, query, k):
        docs, model = corpus
        index = build_index(docs, model)
        expected = [(bits(score), doc_id) for score, doc_id in full_sort_oracle(index, query, k)]
        for candidate in (index, round_trip(index)):
            got = retrieve(candidate, query, k)
            assert [(bits(r.score), r.doc_id) for r in got] == expected
            assert [r.rank for r in got] == list(range(1, min(k, len(docs)) + 1))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(corpora(), QUERIES, st.data())
    def test_select_mis_matches_oracle(self, corpus, query, data):
        docs, model = corpus
        index = build_index(docs, model)
        payload = index_to_payload(index)
        for record in payload["documents"]:
            # Any ordered spans a loaded artifact may hold: overlapping ones,
            # and edges that cut a token.
            bound = st.integers(min_value=0, max_value=len(record["text"]))
            spans = st.lists(st.tuples(bound, bound).map(sorted), max_size=3)
            record["sentences"] = data.draw(spans)
        loaded = index_from_payload(json.loads(json.dumps(payload)))
        for candidate in (index, loaded):
            for doc_id, spans in candidate.sentences.items():
                if not spans:
                    continue
                mis = select_mis(candidate, doc_id, query)
                score, position = mis_oracle(candidate, doc_id, query)
                assert (bits(mis.score), mis.index) == (bits(score), position)
                assert mis.text == spans[position].text_of(candidate.documents[doc_id].text)

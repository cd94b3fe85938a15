import json
import logging
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgxir import retrieval
from kgxir.artifacts import index_from_payload, index_to_payload, load_index, save_index
from kgxir.errors import DataFormatError
from kgxir.explain import explain_query
from kgxir.kg import Entity, KnowledgeGraph, RelationType
from kgxir.linking import build_gazetteer, distinct_ids, link
from kgxir.retrieval import (
    Document,
    build_index,
    load_corpus,
    parse_corpus,
    retrieve,
    _select_mis_batch,
    select_mis,
)
from kgxir.text import (
    EmbedderModel,
    _count_rows,
    _unit_weights,
    embed,
    fit_embedder,
    split_sentences,
)

from conftest import arrays_of, build_disambiguation_fixture


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

    def test_deeply_nested_json_cites_line(self):
        # The decoder's RecursionError once escaped as a traceback.
        with pytest.raises(DataFormatError) as raised:
            parse_corpus(['{"id": "d1", "text": "ok"}', '{"id": "a", "text": ' + "[" * 200000])
        assert str(raised.value) == "<corpus>:2: invalid JSON (nested too deeply)"

    def test_integer_past_the_digit_limit_cites_line(self):
        # CPython refuses to decode an integer of more than 4,300 digits with
        # a plain ValueError, which once reached the user without the line.
        with pytest.raises(DataFormatError) as raised:
            parse_corpus(['{"id": "d1", "text": "ok"}', '{"id": "a", "n": ' + "1" * 5000 + "}"])
        assert str(raised.value).startswith("<corpus>:2: invalid JSON (Exceeds the limit (4300 ")

    def test_missing_fields_rejected(self):
        with pytest.raises(DataFormatError, match="'id' and 'text'"):
            parse_corpus(['{"id": "d1"}'])

    def test_null_id_rejected(self):
        with pytest.raises(DataFormatError, match=r"<corpus>:2: id: None is not a string"):
            parse_corpus(['{"id": "d1", "text": "ok"}', '{"id": null, "text": "Body."}'])

    def test_null_text_rejected(self):
        with pytest.raises(DataFormatError, match=r"<corpus>:1: text: None is not a string"):
            parse_corpus(['{"id": "d1", "text": null}'])

    def test_null_title_rejected(self):
        with pytest.raises(DataFormatError, match=r"<corpus>:1: title: None is not a string"):
            parse_corpus(['{"id": "d1", "title": null, "text": "Body."}'])

    def test_duplicate_id_cites_line(self):
        with pytest.raises(DataFormatError, match=r"<corpus>:3: id: duplicate document id 'd1'"):
            parse_corpus(
                [
                    '{"id": "d1", "text": "a."}',
                    '{"id": "d2", "text": "b."}',
                    '{"id": "d1", "text": "c."}',
                ]
            )

    def test_no_documents_rejected(self):
        with pytest.raises(DataFormatError, match=r"^<corpus>: no documents$"):
            parse_corpus(["", "  "])

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
            start, end = index.doc_ptr[row], index.doc_ptr[row + 1]
            terms = index.doc_terms[start:end]
            assert terms.tolist() == np.flatnonzero(expected).tolist()
            assert index.doc_weights[start:end].tobytes() == expected[terms].tobytes()
        assert len(index.sentences["d-heart"]) == 3

    def test_sentences_are_split_on_first_use(self, medical_corpus, monkeypatch, tmp_path):
        split = []
        monkeypatch.setattr(
            retrieval, "split_sentences", lambda text: split.append(text) or split_sentences(text)
        )
        save_index(make_index(medical_corpus), tmp_path / "index.json")
        index = load_index(tmp_path / "index.json")
        assert split == []  # neither the build nor the load split a text
        explain_query(index, "heart disease risk", k=3)
        assert 0 < len(split) <= 3
        assert len(index.sentences) == len(split)  # only the texts split so far are held
        expected = {d.id: split_sentences(d.text) for d in medical_corpus}
        for _ in range(2):  # the second read splits nothing
            assert {d.id: index.sentences[d.id] for d in medical_corpus} == expected
        assert len(split) == len(medical_corpus)  # each text once, however often it is read

    def test_duplicate_doc_id_rejected(self):
        docs = [Document(id="d1", text="a."), Document(id="d1", text="b.")]
        model = fit_embedder([d.text for d in docs])
        with pytest.raises(ValueError, match="d1"):
            build_index(docs, model)

    def test_indexes_and_models_compare_by_identity(self, medical_corpus):
        index, other = build_index(medical_corpus), build_index(medical_corpus)
        assert index == index and index.model == index.model
        assert index != other and index.model != other.model

    @pytest.mark.parametrize("n_lists", [1, 3])
    def test_entity_cache_needs_one_list_per_document(self, n_lists):
        index = build_index([Document(id="d1", text="a"), Document(id="d2", text="b")])
        with pytest.raises(ValueError, match=f"{n_lists} entity lists for 2 documents"):
            replace(index, entities=[[]] * n_lists)

    # Postings are sorted on term ids narrowed to 8, 16 or 32 bits by the
    # vocabulary's size; each side of both bounds.
    @pytest.mark.parametrize("size", [3, 256, 257, 65_536, 65_537, 70_000])
    def test_postings_hold_each_terms_rows_ascending(self, size):
        vocabulary = [f"t{i:05d}" for i in range(size)]
        model = EmbedderModel(vocabulary, [1] * size, n_docs=6)
        rng = random.Random(size)
        picks = [0, size - 1, *rng.sample(range(size), min(size, 40))]
        texts = [" ".join(vocabulary[t] for t in rng.choices(picks, k=25)) for _ in range(6)]
        index = build_index([Document(id=f"d{i}", text=t) for i, t in enumerate(texts)], model)
        expected = {}
        for row in range(len(texts)):
            for k in range(index.doc_ptr[row], index.doc_ptr[row + 1]):
                expected.setdefault(index.doc_terms[k], []).append((row, index.doc_weights[k]))
        for term in range(size):
            start, end = index.post_ptr[term], index.post_ptr[term + 1]
            postings = list(zip(index.post_rows[start:end], index.post_weights[start:end]))
            assert postings == expected.get(term, [])

    def test_punctuation_only_doc_stored_as_zero_vector(self, caplog):
        docs = [Document(id="d1", text="words here."), Document(id="d2", text="?!... --")]
        model = fit_embedder([d.text for d in docs])
        with caplog.at_level(logging.WARNING, logger="kgxir.retrieval"):
            index = build_index(docs, model)
        assert index.doc_ptr[2] == index.doc_ptr[1] == len(index.doc_weights)
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

    def test_sentence_rows_hold_the_weights_of_embed(self, medical_corpus):
        index = make_index(medical_corpus)
        for doc_id, doc in index.documents.items():
            select_mis(index, doc_id, "heart disease")
            rows, terms, weights = index._sentence_rows[doc_id]
            spans = index.sentences[doc_id]
            assert rows.tolist() == sorted(rows.tolist())
            assert set(rows.tolist()) <= set(range(len(spans)))
            for i, span in enumerate(spans):
                expected = embed(span.text_of(doc.text), index.model)
                start, end = np.searchsorted(rows, [i, i + 1])
                assert terms[start:end].tolist() == np.flatnonzero(expected).tolist()
                assert weights[start:end].tobytes() == expected[terms[start:end]].tobytes()

    def test_no_text_work_after_a_documents_first_mis(self, medical_corpus, monkeypatch):
        """Once a document's sentence rows are kept, MIS rescores from their
        counts: a query passed as a vector tokenizes nothing."""
        index = make_index(medical_corpus)
        for doc_id in index.documents:
            select_mis(index, doc_id, "heart disease")
        query = "energy intake of a tablespoon of salt"
        expected = {doc_id: mis_oracle(index, doc_id, query) for doc_id in index.documents}
        assert any(score > 0.0 for score, _ in expected.values())
        query_vec = embed(query, index.model)

        def no_tokenizing(text):
            raise AssertionError(f"tokenized {text!r}")

        monkeypatch.setattr("kgxir.text.tokenize", no_tokenizing)
        for doc_id, (score, position) in expected.items():
            mis = select_mis(index, doc_id, query_vec)
            assert (bits(mis.score), mis.index) == (bits(score), position)

    def test_index_shared_across_threads(self):
        """Four threads racing to split the same documents' sentences and to
        build their sentence rows give the answers of one thread on a fresh
        index, and building a document's rows again gives equal arrays."""
        corpus, _, queries, _, _ = build_disambiguation_fixture()
        query = " ".join(queries.values())
        sequential = make_index(corpus)
        expected = [select_mis(sequential, doc.id, query) for doc in corpus]
        spans = {doc.id: split_sentences(doc.text) for doc in corpus}
        shared = make_index(corpus)
        work = [doc.id for doc in corpus for _ in range(4)]

        def answer(doc_id):
            return shared.sentences[doc_id], select_mis(shared, doc_id, query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so first uses race
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(answer, work, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [(spans[d.id], mis) for d, mis in zip(corpus, expected) for _ in range(4)]
        assert dict(shared.sentences) == spans
        first = dict(shared._sentence_rows)
        assert sorted(first) == sorted(doc.id for doc in corpus)
        shared._sentence_rows.clear()
        assert [select_mis(shared, doc.id, query) for doc in corpus] == expected
        for doc_id, arrays in first.items():
            for again, before, alone in zip(
                shared._sentence_rows[doc_id], arrays, sequential._sentence_rows[doc_id]
            ):
                assert again.dtype == before.dtype
                assert np.array_equal(again, before) and np.array_equal(before, alone)



class TestSelectMisBatch:
    """The MIS of all of a query's candidates in one pass, as
    :func:`~kgxir.explain.explain_query` takes it."""

    def test_half_the_candidates_already_kept(self):
        corpus, _, queries, _, _ = build_disambiguation_fixture()
        index, fresh = make_index(corpus), make_index(corpus)
        query_text = " ".join(queries.values())
        query = embed(query_text, index.model)
        ids = [doc.id for doc in corpus]
        for doc_id in ids[::2]:
            select_mis(index, doc_id, "heart risk")
        kept = dict(index._sentence_rows)
        assert sorted(kept) == sorted(ids[::2])
        got = _select_mis_batch(index, ids, query)
        assert got == [select_mis(fresh, doc_id, query) for doc_id in ids]
        for doc_id, mis in zip(ids, got):
            score, position = mis_oracle(index, doc_id, query_text)
            assert (bits(mis.score), mis.index) == (bits(score), position)
        assert sorted(index._sentence_rows) == sorted(ids)
        assert all(index._sentence_rows[doc_id] is kept[doc_id] for doc_id in kept)

    def test_document_without_sentences_gives_none(self):
        docs = [
            Document(id="d1", text="Heart risk. Salt diet!"),
            Document(id="d2", text="   ", title="heart"),
            Document(id="d3", text="A diet of salt."),
        ]
        index = make_index(docs)
        query = embed("salt diet", index.model)
        got = _select_mis_batch(index, ["d1", "d2", "d3", "d1"], query)
        first, third = select_mis(index, "d1", query), select_mis(index, "d3", query)
        assert got == [first, None, third, first]
        assert _select_mis_batch(index, ["d2"], query) == [None]
        assert _select_mis_batch(index, [], query) == []
        assert sorted(index._sentence_rows) == ["d1", "d3"]
        with pytest.raises(ValueError, match="document 'd2' has no sentences"):
            select_mis(index, "d2", query)
        with pytest.raises(KeyError, match="unknown document id: 'nope'"):
            select_mis(index, "nope", query)
        record = explain_query(index, "heart salt diet", k=3)
        (empty,) = [r for r in record.results if r.doc_id == "d2"]
        assert (empty.mis_index, empty.mis_text, empty.mis_score) == (None, None, None)

    def test_kept_rows_equal_counting_each_document_alone(self, medical_corpus):
        index = make_index(medical_corpus)
        _select_mis_batch(index, list(index.documents), embed("heart disease", index.model))
        for doc_id, doc in index.documents.items():
            texts = [span.text_of(doc.text) for span in index.sentences[doc_id]]
            _, rows, terms, counts, _ = _count_rows(texts, index.model)
            alone = rows, terms, _unit_weights(rows, terms, counts, index.model)
            kept = index._sentence_rows[doc_id]
            assert len(kept) == len(alone)
            for got, expected in zip(kept, alone):
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()


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
    text, bit for bit, on the built index and on a loaded one, whose model
    (as any saved model) is fit on its own documents."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(corpora(), QUERIES, st.integers(min_value=1, max_value=10))
    def test_retrieve_matches_oracle(self, corpus, query, k):
        docs, model = corpus
        for candidate in (build_index(docs, model), round_trip(build_index(docs))):
            oracle = full_sort_oracle(candidate, query, k)
            expected = [(bits(score), doc_id) for score, doc_id in oracle]
            got = retrieve(candidate, query, k)
            assert [(bits(r.score), r.doc_id) for r in got] == expected
            assert [r.rank for r in got] == list(range(1, min(k, len(docs)) + 1))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(corpora(), QUERIES, st.data())
    def test_select_mis_batch_matches_oracle(self, corpus, query, data):
        """Any candidates, repeats included, some kept before: each is the
        dense oracle's MIS, or None without sentences."""
        docs, model = corpus
        index = build_index(docs, model)
        ids = st.sampled_from(list(index.documents))
        for doc_id in data.draw(st.lists(ids, max_size=3)):
            _select_mis_batch(index, [doc_id], embed("heart", model))
        candidates = data.draw(st.lists(ids, min_size=1, max_size=8))
        got = _select_mis_batch(index, candidates, embed(query, model))
        for doc_id, mis in zip(candidates, got):
            if not index.sentences[doc_id]:
                assert mis is None
                continue
            score, position = mis_oracle(index, doc_id, query)
            assert (bits(mis.score), mis.index) == (bits(score), position)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(corpora(), st.lists(QUERIES, min_size=2, max_size=3))
    def test_select_mis_matches_oracle(self, corpus, queries):
        """Queries run in turn on one index: the first builds each
        document's sentence rows, the later ones read them back."""
        docs, model = corpus
        for candidate in (build_index(docs, model), round_trip(build_index(docs))):
            with_spans = [doc_id for doc_id in candidate.documents if candidate.sentences[doc_id]]
            for turn, query in enumerate(queries):
                for doc_id in with_spans:
                    mis = select_mis(candidate, doc_id, query)
                    score, position = mis_oracle(candidate, doc_id, query)
                    spans = candidate.sentences[doc_id]
                    assert (bits(mis.score), mis.index) == (bits(score), position)
                    assert mis.text == spans[position].text_of(candidate.documents[doc_id].text)
                if turn == 0:
                    built = dict(candidate._sentence_rows)
                    assert list(built) == with_spans
            # Later queries read the rows the first one built.
            assert all(candidate._sentence_rows[d] is built[d] for d in with_spans)


# --- the one pass against a separate fit -------------------------------------

PASS_WORDS = ["Heart", "heart", "HEART", "disease", "Risk", "diet", "İstanbul", "straße", "10ml"]
PASS_TEXTS = st.lists(
    st.tuples(st.sampled_from(PASS_WORDS), st.sampled_from([" ", "_", "-", ". ", "?! ", "\n"])),
    max_size=8,
).map(lambda pieces: "".join(map("".join, pieces)))
PASS_KG = KnowledgeGraph(
    entities={
        "Q1": Entity("Q1", "heart", ("heart disease",)),
        "Q2": Entity("Q2", "disease risk", ()),
        "Q3": Entity("Q3", "İstanbul", ("straße",)),
    },
    relations={"P1": RelationType("P1", "diet", ("risk",))},
    edges=[],
)


@st.composite
def pass_corpora(draw):
    """Documents with empty, whitespace-only and repeated titles, texts
    without tokens, repeated words and mixed case."""
    texts = draw(st.lists(st.one_of(PASS_TEXTS, st.just("?! --")), min_size=1, max_size=6))
    title = st.one_of(st.just(""), st.just(" \t"), PASS_TEXTS)
    titles = draw(st.lists(title, min_size=len(texts), max_size=len(texts)))
    return [Document(id=f"d{i}", text=t, title=h) for i, (t, h) in enumerate(zip(texts, titles))]


class TestOnePass:
    """``build_index`` without a model fits one in its counting pass and
    links each document from the same tokens; the index is bit for bit the
    one built from a separate ``fit_embedder`` and a separate ``link``."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(pass_corpora(), st.sampled_from([None, PASS_KG]))
    def test_matches_a_separate_fit(self, docs, kg):
        gazetteer = None if kg is None else build_gazetteer(kg)
        one_pass = build_index(docs, gazetteer=gazetteer)
        fitted = fit_embedder([d.embedding_text for d in docs])
        separate = build_index(docs, fitted, gazetteer)
        # The artifact keeps all of it too: empty and whitespace titles,
        # texts with no tokens, Unicode surfaces and the entity cache.
        for other in (separate, round_trip(one_pass)):
            got, expected = one_pass.model, other.model
            assert got.vocabulary == expected.vocabulary
            assert got.document_frequency == expected.document_frequency
            assert got.n_docs == expected.n_docs == len(docs)
            assert got.idf.tobytes() == expected.idf.tobytes()
            assert arrays_of(one_pass) == arrays_of(other)
            assert list(other.documents.items()) == list(one_pass.documents.items())
            assert other.entities == one_pass.entities
        if kg is None:
            assert one_pass.entities is None
        else:
            linked = [distinct_ids(link(d.text, gazetteer), "entity") for d in docs]
            assert one_pass.entities == linked

    def test_empty_corpus_cannot_be_fit(self):
        with pytest.raises(ValueError, match="cannot fit embedder on an empty corpus"):
            build_index([])

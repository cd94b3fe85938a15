import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgxir.text import (
    EmbedderModel,
    SentenceSpan,
    _count_rows,
    embed,
    fit_embedder,
    split_sentences,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_drops_punctuation(self):
        assert tokenize("Heart Disease!") == ["heart", "disease"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_hyphen_splits(self):
        assert tokenize("obesity-related risk") == ["obesity", "related", "risk"]

    def test_underscore_is_a_separator(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode_letters_kept(self):
        assert tokenize("Crème brûlée 10ml") == ["crème", "brûlée", "10ml"]

    @given(st.text(max_size=120))
    def test_idempotent_on_joined_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    # Indexing tokenizes a document's title and text apart and joins the
    # tokens, in place of tokenizing ``Document.embedding_text``.
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.text(st.characters(), min_size=1, max_size=40), st.text(st.characters(), max_size=40))
    @example(" \t\n", "heart")  # a whitespace-only title
    @example("_", "_x_")
    @example("a_", "1")
    @example("10", "20ml")
    @example("\u0130", "\u0307x")  # İ lowercases to i and a combining dot
    @example("Stra\u00df", "\u00dfe")
    @example("e\u0301", "\u0301e")  # combining marks on both sides of the seam
    def test_title_and_text_tokenize_apart(self, title, text):
        assert tokenize(title + " " + text) == tokenize(title) + tokenize(text)


def split_sentences_oracle(text):
    """Reference for ``split_sentences`` as a character scan: cut after each
    terminator followed by whitespace or the end of text, then trim each
    piece with ``str.isspace``."""
    spans = []
    n = len(text)

    def emit(raw_start, raw_end):
        start, end = raw_start, raw_end
        while start < end and text[start].isspace():
            start += 1
        while end > start and text[end - 1].isspace():
            end -= 1
        if start < end:
            spans.append(SentenceSpan(index=len(spans), start=start, end=end))

    seg_start = 0
    for i, ch in enumerate(text):
        if ch in ".!?" and (i + 1 == n or text[i + 1].isspace()):
            emit(seg_start, i + 1)
            seg_start = i + 1
    emit(seg_start, n)
    return spans


# Terminators, ASCII and Unicode whitespace (U+001C and U+0085 count as
# whitespace for str.isspace), underscores and letters, so terminators land
# inside tokens, before separators and at either end of the text.
SENTENCE_ALPHABET = ".!?.. \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000_a1é,-"


class TestSplitSentences:
    def covered(self, text):
        return [(s.start, s.end, s.text_of(text)) for s in split_sentences(text)]

    def test_two_sentences(self):
        assert self.covered("A b. C d.") == [(0, 4, "A b."), (5, 9, "C d.")]

    def test_no_terminator_is_one_span(self):
        assert self.covered("no terminator") == [(0, 13, "no terminator")]

    def test_abbreviations_split_naively(self):
        assert [t for _, _, t in self.covered("Dr. Who?")] == ["Dr.", "Who?"]

    def test_terminator_mid_token_does_not_split(self):
        assert [t for _, _, t in self.covered("v1.2 is out! Get it.")] == [
            "v1.2 is out!",
            "Get it.",
        ]

    def test_empty_and_whitespace_only(self):
        assert split_sentences("") == []
        assert split_sentences("  \n\t ") == []

    def test_indices_are_ordinal(self):
        spans = split_sentences("One. Two! Three?")
        assert [s.index for s in spans] == [0, 1, 2]

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.text(alphabet=SENTENCE_ALPHABET, max_size=60))
    @example("v1.2 is out! Get it.")
    @example("a._b.\u2003c?\x1cd!\x85")
    @example("x.y .  ?! \u3000")
    def test_matches_the_character_scan(self, text):
        assert split_sentences(text) == split_sentences_oracle(text)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.text(max_size=200))
    def test_matches_the_character_scan_on_any_text(self, text):
        assert split_sentences(text) == split_sentences_oracle(text)

    @given(st.text(max_size=200))
    def test_spans_cover_all_non_whitespace_without_overlap(self, text):
        spans = split_sentences(text)
        prev_end = -1
        covered = set()
        for span in spans:
            assert span.start < span.end
            assert span.start > prev_end
            prev_end = span.end
            covered.update(range(span.start, span.end))
        for pos, ch in enumerate(text):
            if not ch.isspace():
                assert pos in covered


class TestEmbedder:
    def test_fit_counts_document_frequency(self):
        model = fit_embedder(["a b", "b c"])
        assert model.vocabulary == ["a", "b", "c"]
        assert model.document_frequency == {"a": 1, "b": 2, "c": 1}
        assert model.n_docs == 2

    def test_fit_single_doc_repeated_term(self):
        model = fit_embedder(["x x x"])
        assert model.vocabulary == ["x"]
        assert model.document_frequency == {"x": 1}
        assert model.n_docs == 1

    def test_fit_same_term_in_every_doc(self):
        model = fit_embedder(["a", "a"])
        assert model.document_frequency == {"a": 2}

    def test_fit_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            fit_embedder([])

    def test_idf_values(self):
        model = fit_embedder(["a b", "b c"])
        # df(b)=2, N=2: ln(3/3)+1 = 1; df(a)=1: ln(3/2)+1
        assert model.idf[model.term_index["b"]] == pytest.approx(1.0, abs=1e-12)
        assert model.idf[model.term_index["a"]] == pytest.approx(
            math.log(1.5) + 1.0, abs=1e-12
        )
        assert model.idf[model.term_index["a"]] == pytest.approx(1.405465, abs=1e-6)

    def test_idf_is_the_c_library_log_bit_for_bit(self):
        # N = 20, df = 19 is the smallest case where numpy's AVX-512 log
        # rounds (1 + N) / (1 + df) differently from its baseline path.
        model = fit_embedder(["a b"] * 19 + ["b"])
        assert model.n_docs == 20 and model.document_frequency["a"] == 19
        expected = math.log((1 + 20) / (1 + 19)) + 1.0
        assert model.idf[model.term_index["a"]].hex() == expected.hex()

    def test_idf_from_one_log_per_distinct_df_is_the_per_term_formula(self):
        # Repeated and unsorted document frequencies, as in a real vocabulary.
        frequencies = {"a": 3, "b": 1, "c": 3, "d": 7, "e": 1, "f": 2}
        model = EmbedderModel(list(frequencies), frequencies, n_docs=7)
        expected = [math.log(8 / (1 + df)) + 1.0 for df in frequencies.values()]
        assert model.idf.dtype == np.float64
        assert [value.hex() for value in model.idf.tolist()] == [e.hex() for e in expected]
        empty = EmbedderModel([], {}, n_docs=1).idf
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_out_of_vocabulary_text_embeds_to_zero(self):
        model = fit_embedder(["a b", "b c"])
        assert not embed("zebra quux", model).any()

    def test_nonzero_vectors_are_unit_norm(self):
        model = fit_embedder(["a b", "b c", "c d a"])
        for text in ["a", "a b c", "d d d b", "c a"]:
            vec = embed(text, model)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_weights_proportional_to_tf_times_idf(self):
        model = fit_embedder(["a b", "b c"])
        vec = embed("a a b", model)
        idf_a = math.log(1.5) + 1.0
        raw = np.zeros(3)
        raw[model.term_index["a"]] = 2 * idf_a
        raw[model.term_index["b"]] = 1 * 1.0
        expected = raw / np.linalg.norm(raw)
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_fit_then_embed_bit_identical_across_runs(self):
        corpus = ["the quick brown fox", "jumps over the lazy dog", "foxes and dogs"]
        first = [embed(t, fit_embedder(corpus)) for t in corpus]
        second = [embed(t, fit_embedder(corpus)) for t in corpus]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_model_rejects_nothing_but_df_invariants_hold(self):
        model = fit_embedder(["a b", "b c", "a"])
        for term in model.vocabulary:
            assert 1 <= model.document_frequency[term] <= model.n_docs
        assert len(set(model.vocabulary)) == len(model.vocabulary)


def term_counts_oracle(text, model):
    """Reference for one row of ``_count_rows``: the in-vocabulary term ids
    of ``text``, ascending, and their counts, from a ``Counter`` per text."""
    counts = Counter(map(model.term_index.get, tokenize(text)))
    counts.pop(None, None)  # out of vocabulary
    terms = sorted(counts)
    return terms, [counts[t] for t in terms]


COUNT_MODEL = fit_embedder(["alpha beta gamma", "beta delta", "épée 10ml"])
# Words in and out of COUNT_MODEL's vocabulary, in any case, and separators,
# so texts repeat terms, hold only unknown words or hold no token at all.
COUNT_WORDS = ["alpha", "Beta", "GAMMA", "delta", "épée", "10ML", "zeta", "x_1", "\n\t", "-."]
COUNT_TEXT = st.one_of(
    st.lists(st.sampled_from(COUNT_WORDS), max_size=8).map(" ".join), st.text(max_size=30)
)


class TestCountRows:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(COUNT_TEXT, max_size=6))
    @example([])
    @example([""])
    @example(["", " \n\t ", "zeta omega", "alpha ALPHA beta alpha", "zeta"])
    def test_each_row_matches_a_counter_of_its_text(self, texts):
        ptr, rows, terms, counts, _ = _count_rows(texts, COUNT_MODEL)
        assert [a.dtype for a in (ptr, rows, terms, counts)] == [np.dtype(np.int64)] * 4
        assert len(ptr) == len(texts) + 1 and ptr[0] == 0 and (np.diff(ptr) >= 0).all()
        assert ptr[-1] == len(rows) == len(terms) == len(counts)
        for i, text in enumerate(texts):
            start, end = ptr[i], ptr[i + 1]
            assert rows[start:end].tolist() == [i] * (end - start)
            assert (np.diff(terms[start:end]) > 0).all()
            row = terms[start:end].tolist(), counts[start:end].tolist()
            assert row == term_counts_oracle(text, COUNT_MODEL)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(COUNT_TEXT, min_size=1, max_size=6))
    @example(["", "..."])
    @example(["Beta beta", "ALPHA", "beta \u0130"])
    def test_fit_matches_a_counter_of_token_sets(self, texts):
        df = Counter(term for text in texts for term in set(tokenize(text)))
        model = fit_embedder(iter(texts))
        assert model.vocabulary == sorted(df)
        assert list(model.document_frequency.items()) == sorted(df.items())
        assert model.n_docs == len(texts)

    def test_empty_vocabulary_counts_nothing(self):
        model = fit_embedder(["", "..."])
        assert model.dimension == 0
        ptr, rows, terms, counts, _ = _count_rows(["a b", "", "c"], model)
        assert ptr.tolist() == [0, 0, 0, 0]
        assert not (len(rows) or len(terms) or len(counts))


class TestCosine:
    """Retrieval and MIS score by the dot product of two embeddings, which is
    their cosine because embeddings are L2-normalized (or all-zero)."""

    def test_identical_vector_scores_one(self):
        v = embed("a b", fit_embedder(["a b", "b c"]))
        assert np.dot(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors_score_zero(self):
        model = fit_embedder(["a b", "c d"])
        assert np.dot(embed("a b", model), embed("c d", model)) == 0.0

    def test_forty_five_degrees(self):
        model = fit_embedder(["a b"])  # a and b share one idf
        assert np.dot(embed("a b", model), embed("a", model)) == pytest.approx(0.707107, abs=1e-6)

    def test_zero_vector_scores_zero(self):
        model = fit_embedder(["a b c"])
        assert not embed("zzz", model).any()
        assert np.dot(embed("zzz", model), embed("a b c", model)) == 0.0

    def test_symmetry_is_exact(self):
        model = fit_embedder(["a b c", "c d e", "e f g"])
        a = embed("a c e g", model)
        b = embed("b c d", model)
        assert np.dot(a, b) == np.dot(b, a)


def test_embedder_model_dimension_property():
    model = EmbedderModel(vocabulary=["x", "y"], document_frequency={"x": 1, "y": 2}, n_docs=2)
    assert model.dimension == 2

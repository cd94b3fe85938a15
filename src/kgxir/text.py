"""Deterministic text processing: tokens, sentences, term counts, TF-IDF vectors.

Everything here is resource-free and reproducible: no stemming, no stopword
lists, no learned components. Vectors are plain ``numpy`` float64 arrays,
L2-normalized at construction (or all-zero when nothing is in vocabulary),
so the dot product of two of them is their cosine similarity. Documents,
sentences and queries are counted by one function, :func:`_count_rows`, and
weighted by one, :func:`_unit_weights`; a corpus's pass also fits the model.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

# Maximal runs of Unicode alphanumerics; underscore is a separator like any
# other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# A sentence starts at a non-space character and runs to the first '.', '!'
# or '?' followed by whitespace or the end of text; with no such terminator
# left, it runs to the last non-space character. ``\s`` is ``str.isspace``.
_SENTENCE_RE = re.compile(r"(?=\S)(?:.*?[.!?](?=\s|\Z)|.*\S)", re.DOTALL)


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric-run tokens, in order of appearance."""
    return [token.lower() for token in _TOKEN_RE.findall(text)]


@dataclass(frozen=True)
class SentenceSpan:
    """One sentence of a document: ordinal plus [start, end) character offsets."""

    index: int
    start: int
    end: int

    def text_of(self, document_text: str) -> str:
        return document_text[self.start : self.end]


def split_sentences(text: str) -> list[SentenceSpan]:
    """Split on '.', '!' or '?' followed by whitespace or end of text.

    The terminator stays with its sentence; spans exclude leading/trailing
    whitespace. Text without any terminator yields a single span; empty or
    whitespace-only text yields none. Abbreviations are split naively.
    """
    return [
        SentenceSpan(index=i, start=m.start(), end=m.end())
        for i, m in enumerate(_SENTENCE_RE.finditer(text))
    ]


@dataclass
class EmbedderModel:
    """Fitted TF-IDF vocabulary: sorted terms, document frequencies, corpus size.

    Instances are immutable by convention once built and safe to share
    between threads.
    """

    vocabulary: list[str]
    document_frequency: dict[str, int]
    n_docs: int
    term_index: dict[str, int] = field(init=False, repr=False)
    idf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.term_index = {term: i for i, term in enumerate(self.vocabulary)}
        # math.log, not np.log (its SIMD paths round differently per CPU), once per distinct df.
        n, df = self.n_docs, map(self.document_frequency.__getitem__, self.vocabulary)
        values, inverse = np.unique(np.fromiter(df, np.int64), return_inverse=True)
        self.idf = np.array([math.log((1 + n) / (1 + v)) + 1.0 for v in values.tolist()])[inverse]

    @property
    def dimension(self) -> int:
        return len(self.vocabulary)


def fit_embedder(texts: Iterable[str]) -> EmbedderModel:
    """Fit a TF-IDF model over a corpus of raw texts, in the counting pass
    :func:`_count_rows`. Vocabulary is the sorted set of all tokens; df
    counts the documents containing each term. Raises ``ValueError`` on an
    empty corpus, which would yield an unusable model.
    """
    return _count_rows(list(texts))[-1]


def embed(text: str, model: EmbedderModel) -> np.ndarray:
    """TF-IDF vector for ``text``: tf(t) * idf(t) per vocabulary position,
    L2-normalized. Out-of-vocabulary tokens are ignored; a text with no
    in-vocabulary tokens embeds to the all-zero vector.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, smoothed so it is always > 0.
    """
    _, rows, terms, counts, _ = _count_rows([text], model)
    vector = np.zeros(model.dimension, dtype=np.float64)
    vector[terms] = _unit_weights(rows, terms, counts, model)
    return vector


def _count_rows(
    texts: Sequence[str], model: EmbedderModel | None = None, titles: Sequence[str] = (),
    visit: Callable[[list[str]], object] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, EmbedderModel]:
    """The in-vocabulary term counts of ``texts`` as int64 CSR rows, the one
    place terms are counted: ``ptr``, with text ``i``'s nonzeros at
    ``ptr[i]:ptr[i + 1]``, and for each nonzero its row, its term id
    (ascending within the row) and its count; then the model, fit in the
    same pass when none is given. Each string is tokenized once, and
    ``visit`` gets each text's tokens. Row ``i`` counts the tokens of
    ``titles[i]``, if given, then of ``texts[i]``: those of ``titles[i] + " " + texts[i]``."""
    fitting = model is None
    if fitting and not texts:
        raise ValueError("cannot fit embedder on an empty corpus")
    index: dict[str, int] = {} if fitting else model.term_index
    # int64 keys, ``row * dimension + term``, or when fitting first-seen token
    # codes, made keys once the dimension is known: no list of every token.
    codes, lengths = array("q"), []
    for row, text in enumerate(texts):
        words = tokenize(text)
        if visit is not None:
            visit(words)
        if titles and titles[row]:
            words = tokenize(titles[row]) + words
        if fitting:
            codes.extend([index.setdefault(word, len(index)) for word in words])
            lengths.append(len(words))
        else:
            base = row * len(index)
            codes.extend([base + term for term in map(index.get, words) if term is not None])
    keys = np.frombuffer(codes, dtype=np.int64)
    if fitting:
        vocabulary = sorted(index)
        terms = np.argsort([index[term] for term in vocabulary])[keys]  # code -> sorted id
        keys = np.repeat(np.arange(len(texts)), lengths) * len(index) + terms
    keys, counts = np.unique(keys, return_counts=True)
    rows, terms = np.divmod(keys, len(index))
    ptr = np.searchsorted(rows, np.arange(len(texts) + 1))  # rows ascend with keys
    if fitting:
        df = np.bincount(terms, minlength=len(index)).tolist()
        model = EmbedderModel(vocabulary, dict(zip(vocabulary, df)), len(texts))
    return ptr, rows, terms, counts, model


def _unit_weights(
    rows: np.ndarray, terms: np.ndarray, counts: np.ndarray, model: EmbedderModel
) -> np.ndarray:
    """``count * idf`` of each nonzero of sparse rows, divided by its row's
    L2 norm: the one place TF-IDF weights are made. Each row's squares are
    added left to right, in its ascending term order, without BLAS, so equal
    counts give equal bits on every CPU."""
    raw = counts * model.idf[terms]
    return raw / np.sqrt(np.bincount(rows, weights=raw * raw))[rows]
